#include "verify/reachability.hpp"

#include "obs/telemetry.hpp"
#include "verify/exploration_cache.hpp"

namespace dcft {

StateSet reachable_states(const Program& p, const FaultClass* f,
                          const Predicate& from, unsigned n_threads) {
    // Built directly, not through the ExplorationCache: catalog loads call
    // this once per system, and no verdict ever reads the graph again.
    return StateSet(TransitionSystem(p, f, from, n_threads).state_bits());
}

CheckResult check_unreachable(const Program& p, const FaultClass* f,
                              const Predicate& from, const Predicate& bad,
                              unsigned n_threads) {
    const obs::Span span("verify/reachability");
    obs::count("verify/obligations/reachability");
    const auto ts = ExplorationCache::global().get_or_build_early_exit(
        p, f, from, bad, n_threads);
    // Fragment: the stop predicate fired and bad_node() is the canonical
    // first violation. Complete graph (cache hit, or `bad` unreachable):
    // first_bad_node scans for exactly the node the early exit would have
    // reported.
    const NodeId b =
        ts->complete() ? ts->first_bad_node(bad) : ts->bad_node();
    if (b == TransitionSystem::kNoNode) return CheckResult::success();
    obs::count("verify/obligations/failed");
    return CheckResult::failure(
        "reachable: state " + ts->space().format(ts->state_of(b)) +
            " satisfies " + bad.name() + "; witness: " +
            ts->format_witness(b),
        ts->witness_trace(b));
}

}  // namespace dcft
