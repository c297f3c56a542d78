// Trace subsystem tests: instant-event determinism across verifier
// thread counts, ring-buffer overflow accounting, the Chrome trace-event
// JSON export round-tripping through the repo's own parser, and obs::Span /
// obs::event feeding both sinks under one name.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "apps/token_ring.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "verify/transition_system.hpp"

namespace dcft {
namespace {

/// Enables tracing on an empty buffer for one test and restores the
/// disabled default (flag, lanes, and capacity are process-wide).
struct TraceGuard {
    TraceGuard() {
        obs::set_trace_enabled(true);
        obs::set_trace_buffer_capacity(0);
        obs::trace_reset();
    }
    ~TraceGuard() {
        obs::set_trace_enabled(false);
        obs::set_trace_buffer_capacity(0);
        obs::trace_reset();
    }
};

/// Instant-event counts by name, summed across lanes. Span (begin/end)
/// events legitimately vary with the chunking, instants must not.
std::map<std::string, std::uint64_t> instant_counts(
    const obs::TraceSnapshot& snap) {
    std::map<std::string, std::uint64_t> out;
    for (const obs::TraceLane& lane : snap.lanes)
        for (const obs::TraceEvent& e : lane.events)
            if (e.phase == obs::TracePhase::kInstant)
                ++out[snap.names[e.name]];
    return out;
}

/// Explores token-ring n=6 (46656 states — big enough that 2/8-thread
/// runs really take the parallel merge under the floored work threshold)
/// and returns the instant counts of that exploration.
std::map<std::string, std::uint64_t> explore_instants(unsigned threads) {
    setenv("DCFT_VERIFIER_THREADS", std::to_string(threads).c_str(), 1);
    setenv("DCFT_PARALLEL_WORK_MIN", "1", 1);
    obs::trace_reset();
    auto sys = apps::make_token_ring(6, 6);
    // Seed from the single legitimate start state so the BFS has real
    // depth (Predicate::top() would make the whole space level 0).
    const StateIndex init = sys.initial_state();
    const Predicate seed(
        "init", [init](const StateSpace&, StateIndex s) { return s == init; });
    const TransitionSystem ts(sys.ring, &sys.corrupt_any, seed);
    EXPECT_GT(ts.num_nodes(), 0u);
    unsetenv("DCFT_VERIFIER_THREADS");
    unsetenv("DCFT_PARALLEL_WORK_MIN");
    return instant_counts(obs::trace_snapshot());
}

TEST(TraceTest, InstantCountsIdenticalAcrossThreadCounts) {
    TraceGuard guard;
    const auto t1 = explore_instants(1);
    const auto t2 = explore_instants(2);
    const auto t8 = explore_instants(8);
    ASSERT_FALSE(t1.empty());
    // level_done, interner tier, cache and spill markers are all functions
    // of the canonical BFS / byte layout, never of the chunking.
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t1, t8);
    ASSERT_TRUE(t1.count("verify/explore/level_done"));
    EXPECT_GT(t1.at("verify/explore/level_done"), 1u);
    EXPECT_EQ(t1.at("verify/interner/tier"), 1u);
}

TEST(TraceTest, OverflowDropsCountedWithoutCorruptingExport) {
    TraceGuard guard;
    obs::set_enabled(true);  // so the dropped counter gets published
    obs::Registry::global().reset();
    obs::set_trace_buffer_capacity(64);
    obs::trace_reset();

    static const std::uint32_t span_id = obs::trace_name("t/overflow/span");
    static const std::uint32_t tick_id = obs::trace_name("t/overflow/tick");
    obs::trace_begin(span_id);
    for (int i = 0; i < 1000; ++i) obs::trace_instant(tick_id, i);
    obs::trace_end(span_id);  // lane already full: this End is dropped

    const obs::TraceSnapshot snap = obs::trace_snapshot();
    EXPECT_GT(snap.dropped_total, 0u);
    std::uint64_t counter = 0;
    for (const auto& c : obs::Registry::global().counters())
        if (c.path == "obs/trace/dropped") counter = c.value;
    EXPECT_EQ(counter, snap.dropped_total);

    // The export must still be well-formed JSON with balanced spans: the
    // snapshot synthesizes an End for the open Begin whose End was lost.
    std::string error;
    const auto doc = obs::parse_json(obs::chrome_trace_json(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const auto* events = doc->find("traceEvents", obs::JsonValue::Kind::Array);
    ASSERT_NE(events, nullptr);
    std::map<double, int> depth;
    for (const obs::JsonValue& e : events->as_array()) {
        const std::string ph =
            e.find("ph", obs::JsonValue::Kind::String)->as_string();
        const double tid =
            e.find("tid", obs::JsonValue::Kind::Number)->as_number();
        if (ph == "B") ++depth[tid];
        if (ph == "E") {
            --depth[tid];
            EXPECT_GE(depth[tid], 0);
        }
    }
    for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0);
    obs::set_enabled(false);
}

TEST(TraceTest, ChromeExportRoundTripsThroughParser) {
    TraceGuard guard;
    static const std::uint32_t outer = obs::trace_name("t/round/outer");
    static const std::uint32_t mark = obs::trace_name("t/round/mark");
    obs::trace_begin(outer, 7);
    obs::trace_instant(mark, 3);
    obs::trace_end(outer);

    std::string error;
    const auto doc = obs::parse_json(obs::chrome_trace_json(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const auto* events = doc->find("traceEvents", obs::JsonValue::Kind::Array);
    ASSERT_NE(events, nullptr);

    bool saw_begin = false, saw_end = false, saw_mark = false;
    double last_ts = 0.0;
    for (const obs::JsonValue& e : events->as_array()) {
        const std::string name =
            e.find("name", obs::JsonValue::Kind::String)->as_string();
        const std::string ph =
            e.find("ph", obs::JsonValue::Kind::String)->as_string();
        const double ts =
            e.find("ts", obs::JsonValue::Kind::Number)->as_number();
        EXPECT_GE(ts, last_ts);  // single lane: globally monotone
        last_ts = ts;
        if (name == "t/round/outer" && ph == "B") {
            saw_begin = true;
            const auto* args = e.find("args", obs::JsonValue::Kind::Object);
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(args->find("v", obs::JsonValue::Kind::Number)
                          ->as_number(),
                      7.0);
        }
        if (name == "t/round/outer" && ph == "E") saw_end = true;
        if (name == "t/round/mark" && ph == "i") {
            saw_mark = true;
            EXPECT_EQ(e.find("s", obs::JsonValue::Kind::String)->as_string(),
                      "t");
        }
    }
    EXPECT_TRUE(saw_begin);
    EXPECT_TRUE(saw_end);
    EXPECT_TRUE(saw_mark);

    const auto* other = doc->find("otherData", obs::JsonValue::Kind::Object);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->find("dropped", obs::JsonValue::Kind::Number)
                  ->as_number(),
              0.0);
}

TEST(TraceTest, DisabledTracingRecordsNothing) {
    obs::set_trace_enabled(false);
    obs::trace_reset();
    static const std::uint32_t id = obs::trace_name("t/disabled/span");
    obs::trace_begin(id);
    obs::trace_instant(id);
    obs::trace_end(id);
    { const obs::Span span("t/disabled/span"); }
    const obs::TraceSnapshot snap = obs::trace_snapshot();
    for (const obs::TraceLane& lane : snap.lanes)
        EXPECT_TRUE(lane.events.empty());
    EXPECT_EQ(snap.dropped_total, 0u);
}

/// Events of `snap` whose name is `name`, across lanes, in lane order.
std::vector<obs::TracePhase> phases_named(const obs::TraceSnapshot& snap,
                                          const std::string& name) {
    std::vector<obs::TracePhase> out;
    for (const obs::TraceLane& lane : snap.lanes)
        for (const obs::TraceEvent& e : lane.events)
            if (snap.names[e.name] == name) out.push_back(e.phase);
    return out;
}

TEST(SpanTest, OneSpanFeedsTimerAndTraceUnderOneName) {
    TraceGuard guard;
    obs::set_enabled(true);
    obs::Registry::global().reset();
    { const obs::Span span("t/unified/span", 5); }
    obs::event("t/unified/event", 9);

    std::uint64_t span_calls = 0, event_count = 0;
    for (const auto& t : obs::Registry::global().timers())
        if (t.path == "t/unified/span") span_calls = t.calls;
    for (const auto& c : obs::Registry::global().counters())
        if (c.path == "t/unified/event") event_count = c.value;
    EXPECT_EQ(span_calls, 1u);
    EXPECT_EQ(event_count, 1u);

    const obs::TraceSnapshot snap = obs::trace_snapshot();
    EXPECT_EQ(phases_named(snap, "t/unified/span"),
              (std::vector<obs::TracePhase>{obs::TracePhase::kBegin,
                                            obs::TracePhase::kEnd}));
    EXPECT_EQ(phases_named(snap, "t/unified/event"),
              std::vector<obs::TracePhase>{obs::TracePhase::kInstant});
    obs::set_enabled(false);
}

TEST(SpanTest, BothSinksOffRecordNothing) {
    obs::set_enabled(false);
    obs::set_trace_enabled(false);
    obs::trace_reset();
    ASSERT_EQ(obs::active_sinks(), 0u);
    { const obs::Span span("t/off/span", 1); }
    obs::event("t/off/event", 2);

    for (const auto& t : obs::Registry::global().timers())
        EXPECT_NE(t.path, "t/off/span");
    for (const auto& c : obs::Registry::global().counters())
        EXPECT_NE(c.path, "t/off/event");
    const obs::TraceSnapshot snap = obs::trace_snapshot();
    for (const std::string& name : snap.names) {
        EXPECT_NE(name, "t/off/span");
        EXPECT_NE(name, "t/off/event");
    }
    for (const obs::TraceLane& lane : snap.lanes)
        EXPECT_TRUE(lane.events.empty());
}

}  // namespace
}  // namespace dcft
