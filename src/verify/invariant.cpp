#include "verify/invariant.hpp"

#include <algorithm>
#include <utility>

#include "common/bitvec.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "verify/reachability.hpp"
#include "verify/transition_system.hpp"

namespace dcft {

Predicate reachable_invariant(const Program& p, const Predicate& initial) {
    auto reach = std::make_shared<StateSet>(
        reachable_states(p, nullptr, initial));
    return predicate_of(std::move(reach),
                        "reach(" + p.name() + "," + initial.name() + ")");
}

Predicate largest_safety_invariant(const Program& p,
                                   const SafetySpec& safety) {
    // Seeded with the whole space, the exploration runs on the identity
    // interner: node id == state index throughout.
    const TransitionSystem ts(p, nullptr, Predicate::top());
    DCFT_ASSERT(ts.identity_interner(),
                "a whole-space exploration has node id == state index");
    const StateSpace& space = p.space();
    const StateIndex n = space.num_states();

    // One parallel pass over the recorded program edges marks the states
    // that must be removed outright: disallowed themselves, or having a
    // disallowed transition. Chunks are word-aligned so no two workers
    // share a word of the `removed` bitset.
    BitVec removed(n);
    parallel_chunks(
        n, default_verifier_threads(), BitVec::kWordBits,
        [&](unsigned, std::uint64_t begin, std::uint64_t end) {
            for (StateIndex s = begin; s < end; ++s) {
                const auto edges = ts.program_edges(static_cast<NodeId>(s));
                const bool bad =
                    !safety.state_allowed(space, s) ||
                    std::any_of(edges.begin(), edges.end(), [&](const auto& e) {
                        return !safety.transition_allowed(space, s, e.to);
                    });
                if (bad) removed.set(s);
            }
        });

    // Greatest fixpoint via backward propagation: any state with a
    // successor outside the candidate set must go too (closure).
    const TransitionSystem::CsrList& preds = ts.predecessors(false);
    std::vector<NodeId> queue;
    queue.reserve(static_cast<std::size_t>(removed.popcount()));
    removed.for_each_set([&](std::uint64_t s) {
        queue.push_back(static_cast<NodeId>(s));
    });
    while (!queue.empty()) {
        const NodeId t = queue.back();
        queue.pop_back();
        for (const NodeId s : preds[t])
            if (removed.test_and_set(s)) queue.push_back(s);
    }

    removed.complement();
    auto keep = std::make_shared<StateSet>(std::move(removed));
    return predicate_of(std::move(keep),
                        "largest-inv(" + p.name() + "," + safety.name() +
                            ")");
}

}  // namespace dcft
