// Termination detection (the DFG probe ring) as a verified *detector*:
// 'done detects all-passive'. Safeness is DFG soundness; Progress is its
// eventual-detection property; both decided by the model checker.
#include "apps/termination_detection.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "gc/composition.hpp"
#include "runtime/experiment.hpp"
#include "verify/closure.hpp"
#include "verify/component_checker.hpp"
#include "verify/fairness.hpp"
#include "verify/invariant.hpp"
#include "verify/refinement.hpp"

namespace dcft {
namespace {

using apps::make_termination_detection;
using apps::TerminationDetectionSystem;

TEST(TerminationDetectionTest, DetectorClaimHolds) {
    for (int n : {2, 3, 4, 5}) {
        auto sys = make_termination_detection(n);
        const Predicate inv =
            reachable_invariant(sys.system, sys.initial);
        const DetectorClaim claim{sys.done, sys.all_passive, inv};
        EXPECT_TRUE(check_detector(sys.system, claim).ok) << "n=" << n;
    }
}

TEST(TerminationDetectionTest, DetectionPredicateIsClosed) {
    // All-passive is stable: only an active process can activate another.
    auto sys = make_termination_detection(3);
    EXPECT_TRUE(check_closed(sys.system, sys.all_passive).ok);
}

TEST(TerminationDetectionTest, SoundnessNeverLies) {
    // Explicitly: in every reachable state, done implies all-passive.
    auto sys = make_termination_detection(3);
    const Predicate inv = reachable_invariant(sys.system, sys.initial);
    EXPECT_TRUE(implies_everywhere(
        *sys.space, (inv && sys.done).renamed("reach&&done"),
        sys.all_passive));
}

TEST(TerminationDetectionTest, EventualDetection) {
    // Once the computation terminates, the probe eventually declares it:
    // all-passive ~~> done, from every reachable state.
    auto sys = make_termination_detection(3);
    const Predicate inv = reachable_invariant(sys.system, sys.initial);
    const TransitionSystem ts(sys.system, nullptr, inv);
    EXPECT_TRUE(check_leads_to(ts, sys.all_passive, sys.done, false).ok);
}

TEST(TerminationDetectionTest, ProbeNeedsAtMostTwoRounds) {
    // Bounded-latency sanity: from any reachable all-passive state, the
    // witness path to `done` exists within 2 full probe rounds.
    auto sys = make_termination_detection(3);
    const Predicate inv = reachable_invariant(sys.system, sys.initial);
    // Statically: count probe steps needed — handled by the liveness
    // check above; here check the specific canonical run.
    const StateIndex start = sys.initial_state({false, false, false});
    const TransitionSystem ts(sys.system, nullptr,
                              Predicate("s0",
                                        [start](const StateSpace&,
                                                StateIndex s) {
                                            return s == start;
                                        }));
    bool found_done = false;
    for (NodeId node = 0; node < ts.num_nodes(); ++node) {
        if (sys.done.eval(*sys.space, ts.state_of(node))) {
            found_done = true;
            // retry + n passes + judge, twice, is a generous bound.
            EXPECT_LE(ts.witness_path(node).size(),
                      2u * (static_cast<std::size_t>(sys.n) + 2) + 1);
        }
    }
    EXPECT_TRUE(found_done);
}

TEST(TerminationDetectionTest, DetectionLatencyGrowsWithRingSize) {
    // Simulated from all-active starts: the steps from all-passive to done
    // grow with n, since the probe passes the token round the ring.
    double previous = 0;
    for (int n : {3, 5, 8, 12}) {
        auto sys = make_termination_detection(n);
        Experiment ex;
        ex.program = &sys.system;
        ex.initial = sys.initial_state(
            std::vector<bool>(static_cast<std::size_t>(n), true));
        ex.runs = 100;
        ex.options.max_steps = 100000;
        ex.options.stop_when = sys.done;
        ex.detector = std::make_pair(sys.done, sys.all_passive);
        const BatchResult r = run_experiment(ex);
        EXPECT_EQ(r.stopped_early, r.runs) << "n=" << n;
        EXPECT_GT(r.detection_latency.mean(), previous) << "n=" << n;
        previous = r.detection_latency.mean();
    }
}

TEST(TerminationDetectionTest, SpuriousActivationBreaksSafeness) {
    // If the environment can re-activate a passive process, the claim is
    // not even fail-safe F-tolerant: a fault right after `done` leaves a
    // lying witness. This is the (documented) diffusing-computation
    // contract.
    auto sys = make_termination_detection(3);
    const Predicate inv = reachable_invariant(sys.system, sys.initial);
    const DetectorClaim claim{sys.done, sys.all_passive, inv};
    const Predicate span = reachable_invariant(
        with_faults(sys.system, sys.spurious_activation), sys.initial);
    EXPECT_FALSE(check_tolerant_detector(sys.system,
                                         sys.spurious_activation, claim,
                                         Tolerance::FailSafe, span)
                     .ok);
}

TEST(TerminationDetectionTest, DeadlocksOnlyAfterDetection) {
    auto sys = make_termination_detection(3);
    const Predicate inv = reachable_invariant(sys.system, sys.initial);
    for (StateIndex s = 0; s < sys.space->num_states(); ++s) {
        if (!inv.eval(*sys.space, s)) continue;
        if (sys.system.is_terminal(s)) {
            EXPECT_TRUE(sys.done.eval(*sys.space, s))
                << sys.space->format(s);
        }
    }
}

TEST(TerminationDetectionTest, InitialStateShape) {
    auto sys = make_termination_detection(3);
    const StateIndex s = sys.initial_state({true, false, true});
    EXPECT_EQ(sys.space->get(s, sys.active_var[0]), 1);
    EXPECT_EQ(sys.space->get(s, sys.active_var[1]), 0);
    EXPECT_EQ(sys.space->get(s, sys.token_var), 0);
    EXPECT_EQ(sys.space->get(s, sys.done_var), 0);
    EXPECT_TRUE(sys.initial.eval(*sys.space, s));
    EXPECT_THROW(sys.initial_state({true}), ContractError);
}

}  // namespace
}  // namespace dcft
