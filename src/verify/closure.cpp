#include "verify/closure.hpp"

#include <memory>

#include "common/bitvec.hpp"
#include "common/check.hpp"
#include "obs/telemetry.hpp"
#include "verify/action_kernel.hpp"
#include "verify/exploration_cache.hpp"

namespace dcft {
namespace {

CheckResult check_preserved_by(const StateSpace& space,
                               std::span<const Action> actions,
                               const Predicate& s, const char* what) {
    // Evaluate the predicate exactly once per state, then test membership
    // of every successor with bit probes instead of repeated evaluation.
    // Guards and effects run compiled (bytecode + stride arithmetic).
    const BitVec s_bits = eval_bits(space, s);
    // Non-owning alias: the set lives only inside this call.
    std::shared_ptr<const StateSpace> sp(std::shared_ptr<void>{}, &space);
    const CompiledActionSet compiled(std::move(sp), actions);
    std::vector<StateIndex> succ;
    CheckResult result = CheckResult::success();
    s_bits.for_each_set([&](std::uint64_t st_raw) {
        if (!result.ok) return;
        const StateIndex st = static_cast<StateIndex>(st_raw);
        for (std::size_t ai = 0; ai < actions.size(); ++ai) {
            const CompiledAction& ka = compiled[ai];
            if (!ka.enabled(st)) continue;
            succ.clear();
            ka.successors(st, succ);
            for (StateIndex t : succ) {
                if (!s_bits.test(t)) {
                    result = CheckResult::failure(
                        std::string(what) + ": predicate " + s.name() +
                        " not preserved by action '" + actions[ai].name() +
                        "' from " + space.format(st) + " to " +
                        space.format(t));
                    return;
                }
            }
        }
    });
    return result;
}

}  // namespace

CheckResult check_closed(const Program& p, const Predicate& s) {
    return check_preserved_by(p.space(), p.actions(), s,
                              ("closed in " + p.name()).c_str());
}

CheckResult check_preserved(const FaultClass& f, const Predicate& s) {
    return check_preserved_by(f.space(), f.actions(), s,
                              ("preserved by " + f.name()).c_str());
}

CheckResult check_closed_reachable(const Program& p, const FaultClass* f,
                                   const Predicate& s, unsigned n_threads) {
    const obs::Span span("verify/closure");
    obs::count("verify/obligations/closure");
    const Predicate escape = !s;
    const auto ts = ExplorationCache::global().get_or_build_early_exit(
        p, f, s, escape, n_threads);
    const NodeId b =
        ts->complete() ? ts->first_bad_node(escape) : ts->bad_node();
    if (b == TransitionSystem::kNoNode) return CheckResult::success();

    // Reconstruct the closure-style message from the BFS tree edge that
    // discovered the escaping state. Its parent has a strictly smaller
    // node id (b is the least escaping node, and every root satisfies s),
    // so the parent satisfies s — the reported transition is exactly an
    // s -> !s step.
    std::vector<WitnessStep> trace = ts->witness_trace(b);
    DCFT_EXPECTS(trace.size() >= 2,
                 "escaping state cannot be a root (roots satisfy s)");
    const WitnessStep& last = trace.back();
    const WitnessStep& prev = trace[trace.size() - 2];
    const std::string what =
        last.fault ? ("preserved by " + f->name()) : ("closed in " + p.name());
    std::string reason = what + ": predicate " + s.name() +
                         " not preserved by action '" + last.action +
                         "' from " + prev.state_repr + " to " +
                         last.state_repr;
    return CheckResult::failure(std::move(reason), std::move(trace));
}

}  // namespace dcft
