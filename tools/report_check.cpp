// report_check — end-to-end validator for dcft run reports and traces.
//
//   report_check [--trace] [--graded] <path-to-dcft-cli> <system>[:size]...
//
// For each system it runs `dcft verify <system> [size] --report FILE`,
// parses the emitted JSON with the same reader the tests use
// (obs/json.hpp), and validates the schema: envelope keys, per-query
// verdict fields, witness traces with action provenance, non-negative
// counters, the per-level exploration timeline (levels consecutive from
// 0, non-empty frontiers, one entry per `verify/explorations` count), and
// a properly nested span tree. With --trace it additionally passes
// `--trace FILE --progress=0.2` to each verify run and validates the
// Chrome trace-event JSON: every event name is a '/'-separated
// lower_snake path, timestamps are monotone within each lane (tid),
// begin/end events balance like a stack per lane, and the
// trace carries at least one `verify/explore/level` span per timeline
// level row in the report. With --graded it passes `--graded` to each
// verify run and requires every query to carry the graded blocks:
// `masking_distance` (distance null exactly when masking, consistent
// witness_faults) and `monte_carlo` (run accounting, violation rate in
// [0,1], stats blocks whose aggregates are numbers or null with a
// consistent count). Exits non-zero on the first malformed artifact.
// Registered as the ctest targets `report_check` (token-ring,
// Byzantine), `report_check_byzantine_4`, `trace_smoke` (--trace on
// token-ring), and `report_check_graded` (--graded on token-ring), so
// neither the --report, --trace, nor --graded pipeline can rot silently.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

using dcft::obs::JsonValue;

namespace {

struct Failure {
    std::string message;
};

void require(bool ok, const std::string& what) {
    if (!ok) throw Failure{what};
}

const JsonValue& member(const JsonValue& obj, const std::string& key,
                        JsonValue::Kind kind) {
    const JsonValue* v = obj.find(key, kind);
    require(v != nullptr, "missing or mistyped member '" + key + "'");
    return *v;
}

void check_nonneg_number(const JsonValue& obj, const std::string& key) {
    const JsonValue& v = member(obj, key, JsonValue::Kind::Number);
    require(v.as_number() >= 0.0, "member '" + key + "' is negative");
}

/// A span node: name/path/ns/calls plus recursively valid children whose
/// paths extend the parent's path.
void check_span(const JsonValue& span, const std::string& parent_path) {
    const std::string name =
        member(span, "name", JsonValue::Kind::String).as_string();
    const std::string path =
        member(span, "path", JsonValue::Kind::String).as_string();
    require(!name.empty(), "span with empty name");
    const std::string expected =
        parent_path.empty() ? name : parent_path + "/" + name;
    require(path == expected, "span path '" + path +
                                  "' does not nest under '" + parent_path +
                                  "'");
    check_nonneg_number(span, "ns");
    check_nonneg_number(span, "calls");
    for (const JsonValue& child :
         member(span, "children", JsonValue::Kind::Array).as_array())
        check_span(child, path);
}

void check_witness_step(const JsonValue& step) {
    check_nonneg_number(step, "state");
    member(step, "state_repr", JsonValue::Kind::String);
    member(step, "action", JsonValue::Kind::String);
    member(step, "fault", JsonValue::Kind::Bool);
}

/// A monte_carlo stats block: count plus aggregates that are numbers or
/// null (NaN serializes as null), and an empty distribution has every
/// aggregate null.
void check_stats_block(const JsonValue& mc, const std::string& key) {
    const JsonValue& block = member(mc, key, JsonValue::Kind::Object);
    check_nonneg_number(block, "count");
    const bool empty =
        member(block, "count", JsonValue::Kind::Number).as_number() == 0.0;
    for (const char* agg : {"mean", "p50", "p90", "p99"}) {
        const JsonValue* v = block.find(agg);
        require(v != nullptr, "stats block '" + key + "' missing '" + agg +
                                  "'");
        require(v->is_number() || v->is_null(),
                "stats block '" + key + "' member '" + agg +
                    "' is neither number nor null");
        if (empty)
            require(v->is_null(), "empty stats block '" + key +
                                      "' with a non-null '" + agg + "'");
        else
            require(v->is_number(), "non-empty stats block '" + key +
                                        "' with a null '" + agg + "'");
    }
}

/// The graded blocks attached by `verify --graded`: the game result and
/// the Monte Carlo estimate, internally consistent.
void check_graded_blocks(const JsonValue& q) {
    const JsonValue& md =
        member(q, "masking_distance", JsonValue::Kind::Object);
    const bool masking =
        member(md, "masking", JsonValue::Kind::Bool).as_bool();
    const JsonValue* distance = md.find("distance");
    require(distance != nullptr, "masking_distance without 'distance'");
    if (masking)
        require(distance->is_null(),
                "masking query with a finite distance member");
    else
        require(distance->is_number() && distance->as_number() >= 0.0,
                "non-masking query without a numeric distance");
    check_nonneg_number(md, "game_nodes");
    check_nonneg_number(md, "game_layers");
    check_nonneg_number(md, "witness_faults");
    if (!masking)
        require(member(md, "witness_faults", JsonValue::Kind::Number)
                        .as_number() == distance->as_number(),
                "witness_faults disagrees with the masking distance");

    const JsonValue& mc = member(q, "monte_carlo", JsonValue::Kind::Object);
    for (const char* key : {"runs", "violated_runs", "base_seed",
                            "fault_probability", "max_steps", "max_faults"})
        check_nonneg_number(mc, key);
    const double runs =
        member(mc, "runs", JsonValue::Kind::Number).as_number();
    const double violated =
        member(mc, "violated_runs", JsonValue::Kind::Number).as_number();
    require(runs > 0.0, "monte_carlo block with zero runs");
    require(violated <= runs, "more violated runs than runs");
    const double rate =
        member(mc, "violation_rate", JsonValue::Kind::Number).as_number();
    require(rate >= 0.0 && rate <= 1.0, "violation_rate outside [0,1]");
    check_stats_block(mc, "time_to_violation");
    check_stats_block(mc, "time_to_recovery");
    check_stats_block(mc, "faults_absorbed");
    // Each violated run contributes exactly one time-to-violation sample.
    const JsonValue& ttv =
        member(mc, "time_to_violation", JsonValue::Kind::Object);
    require(member(ttv, "count", JsonValue::Kind::Number).as_number() ==
                violated,
            "time_to_violation count disagrees with violated_runs");
}

/// Validates one query; reports back whether it carried a non-trivial
/// witness and whether it passed.
void check_query(const JsonValue& q, bool graded, bool* ok_out,
                 bool* has_witness_out) {
    for (const char* key : {"name", "system", "variant", "grade", "reason"})
        member(q, key, JsonValue::Kind::String);
    const bool ok = member(q, "ok", JsonValue::Kind::Bool).as_bool();
    check_nonneg_number(q, "invariant_size");
    check_nonneg_number(q, "span_size");
    if (graded) check_graded_blocks(q);
    const JsonValue& witness =
        member(q, "witness", JsonValue::Kind::Object);
    const std::string kind =
        member(witness, "kind", JsonValue::Kind::String).as_string();
    const auto& trace =
        member(witness, "trace", JsonValue::Kind::Array).as_array();
    require(kind.empty() || kind == "counterexample" || kind == "exploration",
            "unknown witness kind '" + kind + "'");
    if (kind == "counterexample") require(!ok, "counterexample on a pass");
    if (kind == "exploration") require(ok, "exploration witness on a fail");
    if (!kind.empty()) require(!trace.empty(), "witness with empty trace");
    for (const JsonValue& step : trace) check_witness_step(step);
    // Replayability: the trace starts at a root (no acting action) and
    // every later step names the action that produced it.
    if (!trace.empty()) {
        require(trace.front()
                    .find("action", JsonValue::Kind::String)
                    ->as_string()
                    .empty(),
                "witness root carries an action");
        for (std::size_t i = 1; i < trace.size(); ++i)
            require(!trace[i]
                         .find("action", JsonValue::Kind::String)
                         ->as_string()
                         .empty(),
                    "witness step without action provenance");
    }
    *ok_out = ok;
    *has_witness_out = !trace.empty();
}

/// The 'timeline' member: one entry per exploration, each with per-level
/// rows whose level numbers run consecutively from 0. Returns the total
/// number of level rows (cross-checked against the event trace).
std::size_t check_timeline(const JsonValue& doc) {
    std::size_t level_rows = 0;
    const auto& timelines =
        member(doc, "timeline", JsonValue::Kind::Array).as_array();
    require(!timelines.empty(), "report with no exploration timelines");
    for (const JsonValue& tl : timelines) {
        check_nonneg_number(tl, "id");
        check_nonneg_number(tl, "space_states");
        check_nonneg_number(tl, "total_ns");
        member(tl, "complete", JsonValue::Kind::Bool);
        member(tl, "spilled", JsonValue::Kind::Bool);
        const auto& levels =
            member(tl, "levels", JsonValue::Kind::Array).as_array();
        require(!levels.empty(), "timeline entry with no levels");
        for (std::size_t i = 0; i < levels.size(); ++i) {
            const JsonValue& row = levels[i];
            for (const char* key :
                 {"frontier", "new_nodes", "program_edges", "fault_edges",
                  "level_ns", "expand_claim_ns", "claim_filter_ns",
                  "publish_ns", "edge_write_ns", "rss_bytes", "spill_bytes",
                  "spill_released_bytes"})
                check_nonneg_number(row, key);
            member(row, "parallel", JsonValue::Kind::Bool);
            require(member(row, "level", JsonValue::Kind::Number)
                            .as_number() == static_cast<double>(i),
                    "timeline levels not consecutive from 0");
            require(member(row, "frontier", JsonValue::Kind::Number)
                            .as_number() > 0.0,
                    "timeline level with empty frontier");
        }
        level_rows += levels.size();
    }
    return level_rows;
}

/// Trace event names follow the telemetry path convention: '/'-separated
/// non-empty lower_snake segments.
void check_event_name(const std::string& name) {
    require(!name.empty(), "trace event with empty name");
    bool segment_empty = true;
    for (const char c : name) {
        if (c == '/') {
            require(!segment_empty,
                    "trace event name '" + name + "' has an empty segment");
            segment_empty = true;
            continue;
        }
        require((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_',
                "trace event name '" + name + "' is not lower_snake");
        segment_empty = false;
    }
    require(!segment_empty, "trace event name '" + name +
                                "' has an empty segment");
}

/// Chrome trace-event JSON: monotone timestamps and balanced begin/end
/// per lane, valid names everywhere. Returns the number of
/// verify/explore/level spans.
std::size_t check_trace(const JsonValue& doc) {
    const auto& events =
        member(doc, "traceEvents", JsonValue::Kind::Array).as_array();
    require(!events.empty(), "trace with no events");
    std::map<double, std::vector<std::string>> open;  // per-tid span stack
    std::map<double, double> last_ts;
    std::size_t level_spans = 0;
    for (const JsonValue& e : events) {
        const std::string name =
            member(e, "name", JsonValue::Kind::String).as_string();
        check_event_name(name);
        const std::string ph =
            member(e, "ph", JsonValue::Kind::String).as_string();
        require(ph == "B" || ph == "E" || ph == "i",
                "unexpected event phase '" + ph + "'");
        const double ts = member(e, "ts", JsonValue::Kind::Number).as_number();
        require(ts >= 0.0, "negative trace timestamp");
        const double tid =
            member(e, "tid", JsonValue::Kind::Number).as_number();
        if (const auto it = last_ts.find(tid); it != last_ts.end())
            require(ts >= it->second,
                    "timestamps not monotone within lane");
        last_ts[tid] = ts;
        std::vector<std::string>& stack = open[tid];
        if (ph == "B") {
            stack.push_back(name);
            if (name == "verify/explore/level") ++level_spans;
        } else if (ph == "E") {
            require(!stack.empty() && stack.back() == name,
                    "unbalanced begin/end for '" + name + "'");
            stack.pop_back();
        }
    }
    for (const auto& [tid, stack] : open)
        require(stack.empty(), "lane ends with open spans");
    check_nonneg_number(member(doc, "otherData", JsonValue::Kind::Object),
                        "dropped");
    return level_spans;
}

struct ReportSummary {
    std::size_t queries = 0;
    std::size_t passing_with_witness = 0;
    std::size_t failing_with_witness = 0;
    std::size_t timeline_levels = 0;
};

ReportSummary check_report(const JsonValue& doc, bool graded) {
    require(member(doc, "schema", JsonValue::Kind::String).as_string() ==
                "dcft.report",
            "wrong schema tag");
    require(member(doc, "schema_version", JsonValue::Kind::Number)
                    .as_number() == 1.0,
            "unexpected schema_version");
    require(member(doc, "kind", JsonValue::Kind::String).as_string() ==
                "run_report",
            "wrong kind");
    member(doc, "tool", JsonValue::Kind::String);
    member(doc, "command", JsonValue::Kind::String);

    // Host block: present in every envelope; cores/page size must be real
    // (positive) on the platforms CI runs on, the rest is best-effort.
    const JsonValue& host = member(doc, "host", JsonValue::Kind::Object);
    require(member(host, "cores", JsonValue::Kind::Number).as_number() > 0.0,
            "host.cores must be positive");
    require(member(host, "page_size_bytes", JsonValue::Kind::Number)
                    .as_number() > 0.0,
            "host.page_size_bytes must be positive");
    require(!member(host, "kernel", JsonValue::Kind::String)
                 .as_string()
                 .empty(),
            "host.kernel must be non-empty");
    check_nonneg_number(host, "total_ram_bytes");

    ReportSummary summary;
    const auto& queries =
        member(doc, "queries", JsonValue::Kind::Array).as_array();
    require(!queries.empty(), "report with no queries");
    summary.queries = queries.size();
    for (const JsonValue& q : queries) {
        bool ok = false, has_witness = false;
        check_query(q, graded, &ok, &has_witness);
        if (has_witness) {
            if (ok)
                ++summary.passing_with_witness;
            else
                ++summary.failing_with_witness;
        }
    }

    // Kernel-coverage section: one entry per program variant, counts must
    // be internally consistent (compiled subsets cannot exceed the action
    // count; a batch-eligible program has no uncovered actions).
    const auto& programs =
        member(doc, "programs", JsonValue::Kind::Array).as_array();
    require(!programs.empty(), "report with no program coverage entries");
    for (const JsonValue& p : programs) {
        member(p, "name", JsonValue::Kind::String);
        auto count = [&](const char* key) {
            check_nonneg_number(p, key);
            return member(p, key, JsonValue::Kind::Number).as_number();
        };
        const double actions = count("actions");
        const double compiled = count("fully_compiled");
        const double structured = count("structured_effects");
        const double batchable_actions = count("batchable_actions");
        count("kcall_ops");
        require(compiled <= actions && structured <= actions &&
                    batchable_actions <= compiled &&
                    batchable_actions <= structured,
                "inconsistent kernel coverage counts");
        if (member(p, "batchable", JsonValue::Kind::Bool).as_bool())
            require(batchable_actions == actions,
                    "batchable program with uncovered actions");
    }

    summary.timeline_levels = check_timeline(doc);

    const JsonValue& telemetry =
        member(doc, "telemetry", JsonValue::Kind::Object);
    require(member(telemetry, "enabled", JsonValue::Kind::Bool).as_bool(),
            "--report must enable telemetry");
    const auto& counters =
        member(telemetry, "counters", JsonValue::Kind::Object).as_object();
    require(!counters.empty(), "telemetry with no counters");
    for (const auto& [path, value] : counters) {
        require(value.is_number() && value.as_number() >= 0.0,
                "counter '" + path + "' is not a non-negative number");
    }
    // Every BFS publishes one timeline entry and counts itself once.
    const auto found = counters.find("verify/explorations");
    require(found != counters.end(), "no verify/explorations counter");
    const auto explorations =
        static_cast<std::uint64_t>(found->second.as_number());
    const std::size_t timelines =
        member(doc, "timeline", JsonValue::Kind::Array).as_array().size();
    require(explorations == timelines,
            "verify/explorations is " + std::to_string(explorations) +
                " but the report has " + std::to_string(timelines) +
                " timeline entries");
    const auto& spans =
        member(telemetry, "spans", JsonValue::Kind::Array).as_array();
    require(!spans.empty(), "telemetry with no spans");
    for (const JsonValue& span : spans) check_span(span, "");
    return summary;
}

/// Reads and parses one JSON artifact; nullopt (with a message printed)
/// on a missing file or a parse error.
std::optional<JsonValue> load_json(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "report_check: no artifact written at %s\n",
                     path.c_str());
        return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    auto doc = dcft::obs::parse_json(buffer.str(), &error);
    if (!doc)
        std::fprintf(stderr, "report_check: %s is not valid JSON: %s\n",
                     path.c_str(), error.c_str());
    return doc;
}

int run_system(const std::string& cli, const std::string& spec,
               bool with_trace, bool graded, ReportSummary* total) {
    std::string system = spec;
    std::string size;
    if (const auto colon = spec.find(':'); colon != std::string::npos) {
        system = spec.substr(0, colon);
        size = spec.substr(colon + 1);
    }
    // Distinct artifact per size and mode so parallel ctest invocations
    // (plain, --trace, --graded; Byzantine 3 and 4) never race on one file.
    const std::string stem =
        "report_check_" + system + (size.empty() ? "" : "_" + size);
    const std::string report_path =
        stem + (graded ? "_graded" : "") + ".json";
    const std::string trace_path = stem + "_trace.json";
    std::string command = "\"" + cli + "\" verify " + system;
    if (!size.empty()) command += " " + size;
    command += " --report " + report_path;
    if (graded) command += " --graded";
    if (with_trace) command += " --trace " + trace_path + " --progress=0.2";
    std::printf("report_check: %s\n", command.c_str());
    if (std::system(command.c_str()) != 0) {
        std::fprintf(stderr, "report_check: command failed: %s\n",
                     command.c_str());
        return 1;
    }

    const std::optional<JsonValue> doc = load_json(report_path);
    if (!doc) return 1;
    ReportSummary summary;
    try {
        summary = check_report(*doc, graded);
        total->queries += summary.queries;
        total->passing_with_witness += summary.passing_with_witness;
        total->failing_with_witness += summary.failing_with_witness;
        std::printf(
            "report_check: %s ok (%zu queries, %zu passing / %zu failing "
            "with witnesses, %zu timeline levels)\n",
            report_path.c_str(), summary.queries,
            summary.passing_with_witness, summary.failing_with_witness,
            summary.timeline_levels);
    } catch (const Failure& failure) {
        std::fprintf(stderr, "report_check: %s invalid: %s\n",
                     report_path.c_str(), failure.message.c_str());
        return 1;
    }
    if (!with_trace) return 0;

    const std::optional<JsonValue> trace = load_json(trace_path);
    if (!trace) return 1;
    try {
        const std::size_t level_spans = check_trace(*trace);
        // Timeline rows and level spans come from the same explorations
        // (both record when tracing is on), so the trace must cover every
        // level the report saw.
        require(level_spans >= summary.timeline_levels,
                "trace has fewer verify/explore/level spans than the "
                "report has timeline levels");
        std::printf("report_check: %s ok (%zu level spans)\n",
                    trace_path.c_str(), level_spans);
    } catch (const Failure& failure) {
        std::fprintf(stderr, "report_check: %s invalid: %s\n",
                     trace_path.c_str(), failure.message.c_str());
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    int argi = 1;
    bool with_trace = false;
    bool graded = false;
    while (argi < argc) {
        const std::string arg = argv[argi];
        if (arg == "--trace")
            with_trace = true;
        else if (arg == "--graded")
            graded = true;
        else
            break;
        ++argi;
    }
    if (argc - argi < 2) {
        std::fprintf(stderr,
                     "usage: report_check [--trace] [--graded] <dcft-cli> "
                     "<system>[:size]...\n");
        return 2;
    }
    const std::string cli = argv[argi++];
    ReportSummary total;
    for (int i = argi; i < argc; ++i)
        if (const int rc =
                run_system(cli, argv[i], with_trace, graded, &total);
            rc != 0)
            return rc;
    // Across the validated systems there must be at least one passing and
    // one failing query whose witness traces are replayable.
    if (total.passing_with_witness == 0 || total.failing_with_witness == 0) {
        std::fprintf(stderr,
                     "report_check: expected both a passing and a failing "
                     "query with witnesses (got %zu passing, %zu failing)\n",
                     total.passing_with_witness, total.failing_with_witness);
        return 1;
    }
    std::printf("report_check: all reports valid (%zu queries)\n",
                total.queries);
    return 0;
}
