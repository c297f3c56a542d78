// cold-verify and restart-verify: closed-loop workloads run in-process
// against the library's public surfaces, plus the span-wrapped replay the
// traced run uses to split their time by layer.
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>

#include "apps/catalog.hpp"
#include "bench.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "verify/exploration_cache.hpp"
#include "verify/fairness.hpp"
#include "verify/masking_distance.hpp"
#include "verify/refinement.hpp"
#include "verify/state_set.hpp"

namespace perfbench {

using namespace dcft;

namespace {

std::uint64_t counter(const char* path) {
    return obs::Registry::global().counter(path).value();
}

std::uint64_t timer_ns(const char* path) {
    return obs::Registry::global().timer(path).nanos();
}

/// get_or_build inside a span named after what the cache did: a fresh
/// exploration (`build_name`), a graph-store adoption, or an in-memory hit.
/// Outcomes come from the library's explore-cache / graph-store counters,
/// which count only while telemetry is on (the traced pass).
std::shared_ptr<const TransitionSystem> lookup(Tracer* t, const char* build_name,
                                               const Program& p,
                                               const FaultClass* f,
                                               const Predicate& init) {
    if (t == nullptr || !t->enabled())
        return ExplorationCache::global().get_or_build(p, f, init);
    Tracer::Span span(t, build_name);
    const std::uint64_t hits = counter("verify/explore_cache/hits");
    const std::uint64_t store_hits = counter("verify/graph_store/hits");
    auto ts = ExplorationCache::global().get_or_build(p, f, init);
    if (counter("verify/graph_store/hits") != store_hits) {
        span.rename("verify.store_load");
    } else if (counter("verify/explore_cache/hits") != hits) {
        span.rename("verify.cache_hit");
    } else {
        const std::string base = build_name;
        t->count(base + "_nodes", static_cast<double>(ts->num_nodes()));
        t->count(base + "_program_edges",
                 static_cast<double>(ts->num_program_edges()));
        t->count(base + "_fault_edges",
                 static_cast<double>(ts->num_fault_edges()));
    }
    return ts;
}

/// refines_spec_on's closure + safety scans (the liveness obligations are
/// run separately by `liveness`). The closure share is read from the
/// library's own verify/closure timer.
CheckResult refine(Tracer* t, const TransitionSystem& ts, const FaultClass* f,
                   const ProblemSpec& spec, const Predicate& from) {
    if (t == nullptr || !t->enabled())
        return refines_spec_on(ts, f, spec.failsafe_weakening(), from);
    Tracer::Span span(t, "verify.refine");
    const std::uint64_t closure0 = timer_ns("verify/closure");
    CheckResult r = refines_spec_on(ts, f, spec.failsafe_weakening(), from);
    t->add_child("verify.closure", timer_ns("verify/closure") - closure0);
    return r;
}

CheckResult liveness(Tracer* t, const TransitionSystem& ts,
                     const ProblemSpec& spec, bool with_faults) {
    const Tracer::Span span(t, "verify.liveness");
    for (const auto& ob : spec.liveness().obligations())
        if (CheckResult r = check_leads_to(ts, ob.from, ob.to, with_faults); !r)
            return r;
    return CheckResult::success();
}

/// One tolerance verdict composed from the public functions
/// check_tolerance itself calls, in its order: materialize the invariant,
/// p from S (absence of faults), p [] F from S (the canonical fault span),
/// then the grade's obligations on the recorded edges.
bool replay_tolerance(Tracer* t, const apps::SystemInstance& sys,
                      const Program& p, Tolerance grade) {
    const FaultClass& f = *sys.faults;
    const ProblemSpec& spec = sys.spec;

    std::shared_ptr<StateSet> inv_states;
    {
        const Tracer::Span span(t, "verify.materialize");
        inv_states = std::make_shared<StateSet>(
            materialize_parallel(p.space(), sys.invariant));
    }
    const Predicate inv = predicate_of(inv_states, sys.invariant.name());

    const auto ts_p = lookup(t, "verify.explore_program", p, nullptr, inv);
    CheckResult absence = refine(t, *ts_p, nullptr, spec, inv);
    if (absence) absence = liveness(t, *ts_p, spec, false);

    const auto ts_pf = lookup(t, "verify.fault_span", p, &f, inv);
    Predicate span_pred;
    {
        const Tracer::Span span(t, "verify.materialize");
        span_pred = predicate_of(std::make_shared<StateSet>(ts_pf->state_bits()),
                                 "span(" + p.name() + "," + f.name() + "," +
                                     sys.invariant.name() + ")");
    }

    CheckResult presence;
    switch (grade) {
        case Tolerance::FailSafe:
            presence = refine(t, *ts_pf, &f, spec, span_pred);
            break;
        case Tolerance::Nonmasking: {
            const Tracer::Span span(t, "verify.liveness");
            presence = check_reaches(*ts_pf, inv, true);
            if (presence) presence = absence;
            break;
        }
        case Tolerance::Masking:
            presence = refine(t, *ts_pf, &f, spec, span_pred);
            if (presence) presence = liveness(t, *ts_pf, spec, true);
            break;
    }
    return absence.ok && presence.ok;
}

/// Drops the in-memory exploration cache and hands the freed heap back to
/// the kernel, so the next item starts from the memory state of a new
/// process instead of whatever the previous item left behind.
void clear_cache() {
    ExplorationCache::global().clear();
    malloc_trim(0);
}

/// Setup of the verify workloads: load every distinct item once, then
/// either populate the graph store with every item's grid (restart-verify)
/// or run three mid-size grids as a warm-up (cold-verify).
void verify_setup(const std::vector<Item>& items, bool restart,
                  const std::string& store_dir) {
    if (restart) {
        std::filesystem::remove_all(store_dir);
        std::filesystem::create_directories(store_dir);
    }
    std::set<std::string> seen;
    for (const Item& it : items) {
        if (!seen.insert(it.key()).second) continue;
        clear_cache();
        const apps::SystemInstance sys = apps::load_system(it.system, it.size);
        if (restart) verdict_grid(sys, nullptr);
    }
    clear_cache();
    if (restart) return;
    for (const Item& it : {Item{"spanning-tree", 6}, Item{"election", 4},
                           Item{"token-ring", 6}}) {
        verdict_grid(apps::load_system(it.system, it.size), nullptr);
        clear_cache();
    }
}

/// Writes the store's files to disk. The store does not fsync; left to
/// the kernel, the write-back of set-up's files would fall inside the
/// measured run.
void flush_store(const std::string& store_dir) {
    for (const auto& entry : std::filesystem::directory_iterator(store_dir)) {
        const int fd = ::open(entry.path().c_str(), O_RDONLY | O_CLOEXEC);
        if (fd < 0) continue;
        ::fsync(fd);
        ::close(fd);
    }
}

/// One closed-loop pass. Each item drops the in-memory exploration cache
/// and loads a fresh instance, the way a new `dcft verify` process does.
void verify_pass(const std::vector<Item>& pass, Tracer* replay, Result& r,
                 std::uint64_t& mc_ns) {
    for (const Item& it : pass) {
        const std::uint64_t op = r.attempted++;
        // Freeing the previous item's graphs is not this item's work.
        clear_cache();
        const std::uint64_t t0 = now_ns();
        try {
            if (replay != nullptr) replay->begin_item(it.key());
            std::unique_ptr<apps::SystemInstance> sys;
            {
                const Tracer::Span span(replay, "apps.load");
                sys = std::make_unique<apps::SystemInstance>(
                    apps::load_system(it.system, it.size));
            }
            r.answers.push_back(grid_answer(op, it.key(), verdict_grid(*sys, replay)));
            if (it.graded)
                r.mc_steps += graded_answers(*sys, it.key(), op, replay,
                                             r.answers, mc_ns);
        } catch (const std::exception& e) {
            ++r.failed;
            r.errors.push_back(it.key() + ": " + e.what());
        }
        const double ms = (now_ns() - t0) / 1e6;
        r.item_ms.push_back(ms);
        r.latency_ms.push_back(ms);
        ++r.completed;
    }
}

}  // namespace

std::map<std::string, std::vector<bool>> verdict_grid(
    const apps::SystemInstance& sys, Tracer* replay) {
    std::map<std::string, std::vector<bool>> grid;
    for (const auto& [variant, program] : sys.variants) {
        std::vector<bool>& row = grid[variant];
        if (replay == nullptr) {
            row.push_back(check_failsafe(program, *sys.faults, sys.spec,
                                         sys.invariant).ok());
            row.push_back(check_nonmasking(program, *sys.faults, sys.spec,
                                           sys.invariant).ok());
            row.push_back(check_masking(program, *sys.faults, sys.spec,
                                        sys.invariant).ok());
        } else {
            for (Tolerance g : {Tolerance::FailSafe, Tolerance::Nonmasking,
                                Tolerance::Masking})
                row.push_back(replay_tolerance(replay, sys, program, g));
        }
    }
    return grid;
}

double graded_answers(const apps::SystemInstance& sys, const std::string& key,
                      std::uint64_t op, Tracer* t,
                      std::vector<std::string>& answers, std::uint64_t& mc_ns) {
    const bool on = t != nullptr && t->enabled();
    double steps = 0;
    for (const auto& [variant, program] : sys.variants) {
        MaskingDistanceResult game;
        {
            const Tracer::Span span(t, "verify.game");
            game = masking_distance(program, *sys.faults, sys.spec, sys.invariant);
        }
        if (on) t->count("verify.game_nodes", static_cast<double>(game.game_nodes));
        obs::JsonWriter w;
        w.begin_object();
        w.kv("op", op).kv("kind", "distance").kv("key", key).kv("variant", variant);
        w.key("distance");
        if (game.masking) w.value("inf"); else w.value(game.distance);
        w.end_object();
        answers.push_back(w.str());

        const std::uint64_t t0 = now_ns();
        ToleranceEstimate est;
        {
            const Tracer::Span span(t, "runtime.estimate");
            // The library's per-fault counters would inflate the traced
            // estimate; no span here reads them.
            const bool telemetry = obs::enabled();
            obs::set_enabled(false);
            est = estimate_tolerance(program, *sys.faults, sys.spec,
                                     sys.invariant, sys.initial, {});
            obs::set_enabled(telemetry);
        }
        mc_ns += now_ns() - t0;
        double s = 0;
        for (double v : est.batch.steps.samples()) s += v;
        steps += s;
        if (on) {
            t->count("runtime.runs", static_cast<double>(est.batch.runs));
            t->count("runtime.steps", s);
        }
        answers.push_back(mc_answer(op, "standard", key, variant, est));
    }
    return steps;
}

Result run_cold_verify(const Options& o, bool restart) {
    Result r;
    const std::string store_dir = o.run_dir + "/store";
    if (restart) setenv("DCFT_GRAPH_STORE", store_dir.c_str(), 1);
    const auto passes = verify_passes(o);
    const std::vector<Item>& items = passes.front();

    if (o.trace) {
        verify_setup(items, restart, store_dir);
        if (restart) flush_store(store_dir);
        std::uint64_t mc_ns = 0;
        r.layers = traced_run(
            [&](Tracer& t) {
                const std::uint64_t t0 = now_ns();
                verify_pass(items, &t, r, mc_ns);
                return (now_ns() - t0) / 1e9;
            },
            true, o.run_dir + "/spans.json");
    } else {
        std::vector<double> setups;
        for (int i = 0; i < 3; ++i) {
            const std::uint64_t t0 = now_ns();
            verify_setup(items, restart, store_dir);
            setups.push_back((now_ns() - t0) / 1e9);
        }
        r.setup_s = setups;
        if (restart) flush_store(store_dir);
        std::uint64_t mc_ns = 0;
        const std::uint64_t t0 = now_ns();
        for (const auto& pass : passes) verify_pass(pass, nullptr, r, mc_ns);
        r.wall_s = (now_ns() - t0) / 1e9;
        r.mc_seconds = mc_ns / 1e9;
    }
    if (restart) {
        std::error_code ec;
        std::filesystem::remove_all(store_dir, ec);
    }
    r.peak_rss_mb = peak_rss_mb();
    return r;
}

}  // namespace perfbench
