// Shared declarations of the perfbench workload runner.
//
// The runner executes one workload in its own process (so the process's
// peak RSS belongs to that workload alone) and writes one JSON document of
// raw measurements and answers; perfbench/run.py turns it into metrics and
// checks the answers against perfbench/expected/.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "runtime/estimate.hpp"

namespace dcft::apps {
struct SystemInstance;
}

namespace perfbench {

inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;      ///< self-check sizes
    std::string run_dir;    ///< working directory (socket, graph store)
    std::string dcftd;      ///< daemon binary (daemon-mix)
};

/// Connections daemon-mix's generator keeps open to dcftd (at most the
/// host's core count).
constexpr unsigned kDaemonConnections = 4;

/// One catalog query: `dcft verify <system> <size> [--graded]`.
struct Item {
    std::string system;
    int size = 0;
    bool graded = false;
    std::string key() const { return system + " " + std::to_string(size); }
};

/// One open-loop arrival of daemon-mix.
struct Arrival {
    double due_s = 0;
    Item item;
};

// ---- plan.cpp: seeded inputs --------------------------------------------

/// Passes over the cold-verify / restart-verify item list, each in a
/// seeded order. The number of passes follows from `seconds` alone.
std::vector<std::vector<Item>> verify_passes(const Options& o);
/// The keys daemon-mix warms the daemon with during set-up.
std::vector<Item> daemon_pool(const Options& o);
/// The open-loop schedule: arrival times and keys, in due order.
std::vector<Arrival> daemon_schedule(const Options& o);
/// A seed-independent description of the workload's inputs (the multiset
/// of items/keys and the schedule size); two seeds must agree on it.
std::string plan_shape(const Options& o);

// ---- tracing -------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans wrap calls into the
/// library's public functions from the runner's own code; each carries the
/// id of the item or request it serves. Self time is the span's duration
/// minus its children's.
class Tracer {
public:
    struct Record {
        std::string name;
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
        std::int64_t parent = -1;
        std::uint32_t item = 0;
    };

    /// Records one span for its lifetime; inert when the tracer is null
    /// or disabled.
    class Span {
    public:
        Span(Tracer* t, std::string name);
        ~Span();
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;
        /// Renames the open span (the layer is known only after the call,
        /// e.g. a cache hit versus a fresh exploration).
        void rename(std::string name);

    private:
        Tracer* t_ = nullptr;
        std::int64_t index_ = -1;
    };

    bool enabled() const { return enabled_; }
    void set_enabled(bool on) { enabled_ = on; }
    /// Starts a new item/request; later spans carry its id.
    void begin_item(std::string label);
    /// Records a child of the innermost open span covering `ns` of it,
    /// measured by the library's own timer.
    void add_child(std::string name, std::uint64_t ns);
    /// Adds to a named count (nodes, edges, runs, ...).
    void count(const std::string& name, double v) {
        if (enabled_) counts_[name] += v;
    }

    /// Self milliseconds per span name, over all items or over the items
    /// whose label equals `label`.
    std::map<std::string, double> self_ms(const std::string& label = "") const;
    /// Sum of the durations of the top-level spans (ms).
    double covered_ms() const;
    const std::map<std::string, double>& counts() const { return counts_; }
    /// Writes every span as JSON (name, start/end ns, parent, item).
    bool write(const std::string& path) const;

private:
    bool enabled_ = false;
    std::vector<Record> records_;
    std::vector<std::int64_t> open_;
    std::vector<std::string> item_labels_{""};
    std::uint32_t item_ = 0;
    std::map<std::string, double> counts_;
};

/// The traced run of one pass: the pass with spans off, with spans (and,
/// when `telemetry`, the library's counters) on, and with spans off again;
/// the untraced time is the mean of the two quiet passes, so warm-up order
/// does not masquerade as tracing overhead. `pass` returns its wall time
/// in seconds. Writes the spans to `spans_path` and returns every
/// per-layer metric.
std::map<std::string, double> traced_run(
    const std::function<double(Tracer&)>& pass, bool telemetry,
    const std::string& spans_path);

// ---- results -------------------------------------------------------------

/// Raw measurements of one run; run.py derives every metric from these.
struct Result {
    std::vector<double> setup_s;
    double wall_s = 0;
    std::vector<double> item_ms;     ///< per item: time to its full answer
    std::vector<double> latency_ms;  ///< per item: from its due time
    std::vector<double> gen_wait_ms; ///< daemon-mix: due -> send
    std::uint64_t completed = 0;
    double mc_steps = 0;
    double mc_seconds = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double peak_rss_mb = 0;
    /// One JSON object per answer: {"op", "kind", "key", ...}.
    std::vector<std::string> answers;
    std::vector<std::string> errors;
    /// Traced run: per-layer metrics by name.
    std::map<std::string, double> layers;
    /// Free-form facts printed by run.py (late generator, sample counts).
    std::map<std::string, double> notes;
};

/// Serializes the answers of one verdict grid / graded estimate.
std::string grid_answer(std::uint64_t op, const std::string& key,
                        const std::map<std::string, std::vector<bool>>& grid);

// ---- workloads -----------------------------------------------------------

Result run_cold_verify(const Options& o, bool restart);
Result run_daemon_mix(const Options& o);

// ---- helpers shared by the workloads -------------------------------------

/// Verdict grid of one loaded system, variant -> {fail-safe, nonmasking,
/// masking}. `replay` selects the span-wrapped decomposition of
/// check_tolerance instead of the check_failsafe/... calls of `dcft verify`.
std::map<std::string, std::vector<bool>> verdict_grid(
    const dcft::apps::SystemInstance& sys, Tracer* replay);

/// The graded answers of `dcft verify --graded` for every variant: the
/// masking distance and the catalog-standard Monte Carlo estimate. Appends
/// answer objects and returns the simulated steps; `mc_ns` receives the
/// time spent in estimate_tolerance.
double graded_answers(const dcft::apps::SystemInstance& sys,
                      const std::string& key, std::uint64_t op, Tracer* t,
                      std::vector<std::string>& answers, std::uint64_t& mc_ns);

/// Monte Carlo answer object for one estimate.
std::string mc_answer(std::uint64_t op, const std::string& set,
                      const std::string& key, const std::string& variant,
                      const dcft::ToleranceEstimate& est);

/// Peak RSS (VmHWM) of `pid` in MiB, or of this process when pid == 0.
double peak_rss_mb(int pid = 0);

double median(std::vector<double> v);

}  // namespace perfbench
