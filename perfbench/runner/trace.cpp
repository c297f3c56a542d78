// Span recorder, per-layer metric table and answer serialization.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace perfbench {

Tracer::Span::Span(Tracer* t, std::string name) {
    if (t == nullptr || !t->enabled_) return;
    t_ = t;
    index_ = static_cast<std::int64_t>(t_->records_.size());
    Record r;
    r.name = std::move(name);
    r.parent = t_->open_.empty() ? -1 : t_->open_.back();
    r.item = t_->item_;
    r.start_ns = now_ns();
    t_->records_.push_back(std::move(r));
    t_->open_.push_back(index_);
}

Tracer::Span::~Span() {
    if (t_ == nullptr) return;
    t_->records_[static_cast<std::size_t>(index_)].end_ns = now_ns();
    t_->open_.pop_back();
}

void Tracer::Span::rename(std::string name) {
    if (t_ != nullptr)
        t_->records_[static_cast<std::size_t>(index_)].name = std::move(name);
}

void Tracer::begin_item(std::string label) {
    item_labels_.push_back(std::move(label));
    item_ = static_cast<std::uint32_t>(item_labels_.size() - 1);
}

void Tracer::add_child(std::string name, std::uint64_t ns) {
    if (!enabled_ || open_.empty() || ns == 0) return;
    Record r;
    r.name = std::move(name);
    r.parent = open_.back();
    r.item = item_;
    r.end_ns = now_ns();
    r.start_ns = r.end_ns - ns;
    records_.push_back(std::move(r));
}

std::map<std::string, double> Tracer::self_ms(const std::string& label) const {
    std::vector<double> child_ns(records_.size(), 0.0);
    for (const Record& r : records_)
        if (r.parent >= 0)
            child_ns[static_cast<std::size_t>(r.parent)] +=
                static_cast<double>(r.end_ns - r.start_ns);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record& r = records_[i];
        if (!label.empty() && item_labels_[r.item] != label) continue;
        const double self = static_cast<double>(r.end_ns - r.start_ns) - child_ns[i];
        out[r.name] += std::max(0.0, self) / 1e6;
    }
    return out;
}

double Tracer::covered_ms() const {
    double ns = 0;
    for (const Record& r : records_)
        if (r.parent < 0) ns += static_cast<double>(r.end_ns - r.start_ns);
    return ns / 1e6;
}

bool Tracer::write(const std::string& path) const {
    dcft::obs::JsonWriter w;
    w.begin_array();
    for (const Record& r : records_) {
        w.begin_object();
        w.kv("name", r.name).kv("start_ns", r.start_ns).kv("end_ns", r.end_ns);
        w.kv("parent", static_cast<std::int64_t>(r.parent));
        w.kv("item", item_labels_[r.item]);
        w.end_object();
    }
    w.end_array();
    std::ofstream out(path);
    out << w.str() << "\n";
    return static_cast<bool>(out);
}

namespace {

/// The library's telemetry counters at one instant (they count only while
/// telemetry is on, i.e. during the traced pass).
struct CounterSnapshot {
    std::map<std::string, double> values;

    static CounterSnapshot take() {
        CounterSnapshot s;
        for (const auto& c : dcft::obs::Registry::global().counters())
            s.values[c.path] = static_cast<double>(c.value);
        return s;
    }
    CounterSnapshot minus(const CounterSnapshot& before) const {
        CounterSnapshot d = *this;
        for (auto& [k, v] : d.values) v -= before.get(k);
        return d;
    }
    double get(const std::string& name) const {
        const auto it = values.find(name);
        return it == values.end() ? 0.0 : it->second;
    }
};

double at(const std::map<std::string, double>& m, const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Every per-layer metric of BENCHMARK.json from one traced pass: the
/// span self times and counts, the counter deltas, and the traced and
/// untraced wall times of the same pass. Layers the workload does not
/// reach read 0; daemon-mix fills in service.*.
std::map<std::string, double> layer_metrics(const Tracer& t,
                                            const CounterSnapshot& delta,
                                            double traced_s, double untraced_s) {
    const auto self = t.self_ms();
    const auto& c = t.counts();
    std::map<std::string, double> L;
    L["apps.load_ms"] = at(self, "apps.load");
    L["verify.explore_program_ms"] = at(self, "verify.explore_program");
    L["verify.explore_program_nodes"] = at(c, "verify.explore_program_nodes");
    L["verify.explore_program_edges"] = at(c, "verify.explore_program_program_edges");
    L["verify.fault_span_ms"] = at(self, "verify.fault_span");
    L["verify.fault_span_nodes"] = at(c, "verify.fault_span_nodes");
    L["verify.fault_edges"] = at(c, "verify.fault_span_fault_edges");
    L["verify.fault_span_states_per_s"] =
        ratio(L["verify.fault_span_nodes"], L["verify.fault_span_ms"] / 1e3);
    L["verify.materialize_ms"] = at(self, "verify.materialize");
    L["verify.closure_ms"] = at(self, "verify.closure");
    L["verify.refine_ms"] = at(self, "verify.refine");
    L["verify.liveness_ms"] = at(self, "verify.liveness");
    const double hits = delta.get("verify/explore_cache/hits");
    L["verify.cache_hit_ratio"] =
        ratio(hits, hits + delta.get("verify/explore_cache/misses"));
    L["verify.store_load_ms"] = at(self, "verify.store_load");
    L["verify.store_bytes"] = delta.get("verify/graph_store/bytes_loaded");
    const double store_hits = delta.get("verify/graph_store/hits");
    L["verify.store_hit_ratio"] =
        ratio(store_hits, store_hits + delta.get("verify/graph_store/misses"));
    L["verify.game_ms"] = at(self, "verify.game");
    L["verify.game_nodes"] = at(c, "verify.game_nodes");
    L["runtime.estimate_ms"] = at(self, "runtime.estimate");
    L["runtime.runs"] = at(c, "runtime.runs");
    L["runtime.steps"] = at(c, "runtime.steps");
    L["runtime.steps_per_s"] =
        ratio(L["runtime.steps"], L["runtime.estimate_ms"] / 1e3);
    for (const char* k : {"service.rtt_ms_p50", "service.gen_wait_ms_p50",
                          "service.coalesced_ratio", "service.executed"})
        L[k] = 0.0;
    L["trace.overhead_ratio"] = ratio(traced_s, untraced_s);
    L["trace.coverage_ratio"] = ratio(t.covered_ms(), traced_s * 1e3);
    const auto ring = t.self_ms("token-ring 7");
    for (const char* k : {"fault_span", "closure", "refine", "liveness"})
        L[std::string("token_ring_7.verify.") + k + "_ms"] =
            at(ring, std::string("verify.") + k);
    return L;
}

}  // namespace

std::map<std::string, double> traced_run(
    const std::function<double(Tracer&)>& pass, bool telemetry,
    const std::string& spans_path) {
    Tracer quiet;
    double untraced_s = pass(quiet);
    Tracer tracer;
    tracer.set_enabled(true);
    dcft::obs::set_enabled(telemetry);
    const CounterSnapshot before = CounterSnapshot::take();
    const double traced_s = pass(tracer);
    const CounterSnapshot delta = CounterSnapshot::take().minus(before);
    dcft::obs::set_enabled(false);
    tracer.set_enabled(false);
    untraced_s = (untraced_s + pass(quiet)) / 2;
    if (!tracer.write(spans_path))
        std::fprintf(stderr, "perfbench_runner: cannot write %s\n", spans_path.c_str());
    return layer_metrics(tracer, delta, traced_s, untraced_s);
}

// ---- answers ---------------------------------------------------------------

std::string grid_answer(std::uint64_t op, const std::string& key,
                        const std::map<std::string, std::vector<bool>>& grid) {
    dcft::obs::JsonWriter w;
    w.begin_object();
    w.kv("op", op).kv("kind", "grid").kv("key", key);
    w.key("variants").begin_object();
    for (const auto& [variant, row] : grid) {
        w.key(variant).begin_array();
        for (bool b : row) w.value(b);
        w.end_array();
    }
    w.end_object().end_object();
    return w.str();
}

namespace {

void stats_block(dcft::obs::JsonWriter& w, const char* name,
                 const dcft::SummaryStats& s) {
    w.key(name).begin_object();
    w.kv("count", static_cast<std::uint64_t>(s.count()));
    w.kv("mean", s.mean()).kv("p50", s.p50()).kv("p90", s.p90()).kv("p99", s.p99());
    w.end_object();
}

}  // namespace

std::string mc_answer(std::uint64_t op, const std::string& set,
                      const std::string& key, const std::string& variant,
                      const dcft::ToleranceEstimate& est) {
    double steps = 0;
    for (double v : est.batch.steps.samples()) steps += v;
    dcft::obs::JsonWriter w;
    w.begin_object();
    w.kv("op", op).kv("kind", "mc").kv("set", set).kv("key", key).kv("variant", variant);
    w.kv("runs", static_cast<std::uint64_t>(est.batch.runs));
    w.kv("violated_runs", static_cast<std::uint64_t>(est.batch.violated_runs));
    w.kv("violation_rate", est.violation_rate());
    stats_block(w, "time_to_violation", est.time_to_violation());
    stats_block(w, "time_to_recovery", est.time_to_recovery());
    stats_block(w, "faults_absorbed", est.faults_absorbed());
    w.kv("steps", static_cast<std::uint64_t>(std::llround(steps)));
    w.end_object();
    return w.str();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mb(int pid) {
    const std::string path =
        pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    return 0;
}

}  // namespace perfbench
