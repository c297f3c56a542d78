// Unified telemetry: named atomic counters, and the one instrumentation
// primitive (obs::Span / obs::event) that feeds both the aggregate timers
// here and the event trace of obs/trace.hpp (src/obs/, see DESIGN.md §8).
//
// Design constraints, in order:
//  1. Near-zero overhead when disabled. Both sinks — aggregate (counters,
//     timers) and event (trace) — are gated by bits of ONE relaxed atomic
//     word (`active_sinks()`); when both are off that load is the *entire*
//     cost of a span or event, so the verifier's hot loops stay at their
//     uninstrumented speeds. Hot paths additionally accumulate into local
//     variables and flush once per phase, so even the enabled path never
//     puts an atomic RMW inside a per-state loop.
//  2. Thread-safe. The registry is a mutex-guarded map from path to a
//     heap-stable Counter/Timer whose cells are std::atomic — concurrent
//     checker threads and simulator workers record without coordination
//     once they hold a reference.
//  3. Deterministic where the verifier is deterministic. Exploration
//     counters (levels, frontier sizes, interner hits/misses, edge counts)
//     are derived from the canonical BFS, so their values are identical for
//     every DCFT_VERIFIER_THREADS setting — a property the test suite
//     pins (tests/obs/telemetry_test).
//
// Naming convention: '/'-separated lower_snake paths whose prefixes form
// the phase tree, e.g. "verify/explore/level", "verify/closure",
// "sim/step", "synth/fixpoint". RunReport (obs/run_report.hpp) serializes
// the tree from these paths. A span or event uses its path as its trace
// event name too: the registry entry carries the interned trace id, so one
// lookup serves both sinks and the two views line up term for term.
//
// Enabling: the DCFT_TELEMETRY environment variable (any truthy value, see
// common/env.hpp; read once, at first use) or set_enabled(true) from code
// (dcft_cli --report does this). The event sink has its own twins,
// DCFT_TRACE and set_trace_enabled() (obs/trace.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dcft::obs {

/// The instrumentation sinks, as bits of the word active_sinks() returns.
enum Sink : unsigned {
    kAggregateSink = 1u,  ///< Counters and timers (this header).
    kEventSink = 2u,      ///< Begin/end/instant events (obs/trace.hpp).
};

/// Bitwise OR of the sinks that are on. One relaxed atomic load (after the
/// first call, which consults DCFT_TELEMETRY and DCFT_TRACE).
unsigned active_sinks();

/// Is telemetry collection (the aggregate sink) on?
inline bool enabled() { return (active_sinks() & kAggregateSink) != 0; }

/// Programmatic override of the DCFT_TELEMETRY toggle (tests, --report).
void set_enabled(bool on);

/// A named monotonic counter. Heap-stable: references returned by the
/// registry stay valid for the process lifetime.
class Counter {
public:
    explicit Counter(std::uint32_t trace_name) : trace_name_(trace_name) {}
    void add(std::uint64_t delta = 1) {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    /// Records v if it exceeds the current value (high-water mark).
    void record_max(std::uint64_t v) {
        std::uint64_t cur = value_.load(std::memory_order_relaxed);
        while (cur < v && !value_.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }
    /// Overwrites the value (gauges, e.g. resolved thread counts).
    void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
    std::uint64_t value() const {
        return value_.load(std::memory_order_relaxed);
    }
    /// The trace event name id of this counter's path.
    std::uint32_t trace_name() const { return trace_name_; }

private:
    std::atomic<std::uint64_t> value_{0};
    const std::uint32_t trace_name_;
};

/// Accumulated wall time and call count for one phase path.
class Timer {
public:
    explicit Timer(std::uint32_t trace_name) : trace_name_(trace_name) {}
    void add(std::uint64_t ns, std::uint64_t calls = 1) {
        ns_.fetch_add(ns, std::memory_order_relaxed);
        calls_.fetch_add(calls, std::memory_order_relaxed);
    }
    std::uint64_t nanos() const { return ns_.load(std::memory_order_relaxed); }
    std::uint64_t calls() const {
        return calls_.load(std::memory_order_relaxed);
    }
    /// Zeroes the accumulators (Registry::reset()).
    void reset() {
        ns_.store(0, std::memory_order_relaxed);
        calls_.store(0, std::memory_order_relaxed);
    }
    /// The trace event name id of this timer's path.
    std::uint32_t trace_name() const { return trace_name_; }

private:
    std::atomic<std::uint64_t> ns_{0};
    std::atomic<std::uint64_t> calls_{0};
    const std::uint32_t trace_name_;
};

/// Process-wide registry of counters and timers, keyed by phase path.
class Registry {
public:
    /// The process registry every recording helper targets.
    static Registry& global();

    /// Counter/timer at `path`, created on first use (which also interns
    /// `path` as a trace event name). Thread-safe; the returned reference
    /// is stable for the registry's lifetime.
    Counter& counter(std::string_view path);
    Timer& timer(std::string_view path);

    struct CounterSample {
        std::string path;
        std::uint64_t value = 0;
    };
    struct TimerSample {
        std::string path;
        std::uint64_t ns = 0;
        std::uint64_t calls = 0;
    };

    /// Point-in-time snapshots, sorted by path (deterministic emission).
    std::vector<CounterSample> counters() const;
    std::vector<TimerSample> timers() const;

    /// Zeroes every counter and timer (registrations survive). Tests use
    /// this to compare runs; concurrent recorders see a clean slate.
    void reset();

private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
    std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_;
};

// -- recording helpers (no-ops when disabled) ------------------------------

/// Adds `delta` to the counter at `path` iff telemetry is enabled.
inline void count(std::string_view path, std::uint64_t delta = 1) {
    if (enabled()) Registry::global().counter(path).add(delta);
}

/// High-water-mark record iff enabled.
inline void count_max(std::string_view path, std::uint64_t v) {
    if (enabled()) Registry::global().counter(path).record_max(v);
}

/// Gauge write iff enabled.
inline void record(std::string_view path, std::uint64_t v) {
    if (enabled()) Registry::global().counter(path).set(v);
}

/// Monotonic clock reading in nanoseconds (steady).
std::uint64_t now_ns();

/// One occurrence of a named event: adds 1 to the counter at `path`
/// (aggregate sink) and records an instant named `path` carrying `arg`
/// (event sink). When both sinks are off the cost is one relaxed load.
void event(std::string_view path, std::uint64_t arg = 0);

/// RAII instrumentation span, the one primitive for both sinks. With the
/// aggregate sink on it adds its lifetime to the timer at `path`; with the
/// event sink on it records a begin/end pair named `path` (the begin
/// carries `arg`). The sinks are sampled once at construction, so a span
/// always closes what it opened. With both off the span is inert: one
/// relaxed load, no lookup, no clock read.
class Span {
public:
    explicit Span(std::string_view path, std::uint64_t arg = 0) {
        if (const unsigned sinks = active_sinks(); sinks != 0)
            open(sinks, path, arg);
    }
    ~Span() {
        if (timer_ != nullptr) close();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    void open(unsigned sinks, std::string_view path, std::uint64_t arg);
    void close();

    Timer* timer_ = nullptr;
    std::uint64_t start_ns_ = 0;
    unsigned sinks_ = 0;
};

}  // namespace dcft::obs
