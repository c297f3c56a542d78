// Distributed reset: a wave corrector with a completion detector whose
// detection predicate is deliberately not closed (Remark, Section 3.1).
#include "apps/distributed_reset.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "runtime/experiment.hpp"
#include "verify/closure.hpp"
#include "verify/component_checker.hpp"
#include "verify/fairness.hpp"
#include "verify/invariant.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"

namespace dcft {
namespace {

using apps::DistributedResetSystem;
using apps::make_distributed_reset;

const std::vector<int> kTree{0, 0, 0, 1};

Predicate start_state(const DistributedResetSystem& sys) {
    const StateIndex init = sys.initial_state();
    return Predicate("init", [init](const StateSpace&, StateIndex s) {
        return s == init;
    });
}

TEST(DistributedResetTest, RefinesItsSpecInAbsenceOfFaults) {
    auto sys = make_distributed_reset(kTree);
    const Predicate inv = reachable_invariant(sys.system, start_state(sys));
    EXPECT_TRUE(refines_spec(sys.system, sys.spec, inv).ok);
}

TEST(DistributedResetTest, CompletionWitnessIsADetector) {
    // 'wc detects all-sessions-equal' — with a non-closed detection
    // predicate: the next wave falsifies X, and Stability's escape clause
    // (Z next-holds or X has been falsified) is what makes this legal.
    auto sys = make_distributed_reset(kTree);
    const Predicate inv = reachable_invariant(sys.system, start_state(sys));
    const DetectorClaim claim{sys.witness, sys.all_equal, inv};
    EXPECT_TRUE(check_detector(sys.system, claim).ok);
}

TEST(DistributedResetTest, DetectionPredicateIsNotClosed) {
    // The point of the Remark: starting a wave falsifies all-equal.
    auto sys = make_distributed_reset(kTree);
    EXPECT_FALSE(check_closed(sys.system, sys.all_equal).ok);
}

TEST(DistributedResetTest, EveryRequestLeadsToACompletedWave) {
    auto sys = make_distributed_reset(kTree);
    const Predicate inv = reachable_invariant(sys.system, start_state(sys));
    const TransitionSystem ts(sys.system, nullptr, inv);
    EXPECT_TRUE(check_leads_to(ts,
                               Predicate::var_eq(*sys.space, "req", 1),
                               sys.witness, false)
                    .ok);
}

TEST(DistributedResetTest, NonmaskingToSessionCorruption) {
    // After corruption the wave machinery re-converges to a truthful
    // witness; safety may be violated meanwhile (the witness can lie
    // transiently), so this is nonmasking, not masking.
    auto sys = make_distributed_reset(kTree);
    const Predicate inv = reachable_invariant(sys.system, start_state(sys));
    EXPECT_TRUE(
        check_nonmasking(sys.system, sys.corrupt_sessions, sys.spec, inv)
            .ok());
    EXPECT_FALSE(
        check_failsafe(sys.system, sys.corrupt_sessions, sys.spec, inv)
            .ok());
}

TEST(DistributedResetTest, AdoptionConvergesToAgreement) {
    auto sys = make_distributed_reset(kTree);
    // From any state (even corrupted), sessions converge to agreement
    // i.o.: true ~~> all-equal.
    EXPECT_TRUE(converges(sys.system, nullptr, Predicate::top(),
                          sys.all_equal)
                    .ok);
}

TEST(DistributedResetTest, NoPrematureWaveInFaultFreeRuns) {
    auto sys = make_distributed_reset(kTree);
    const Predicate inv = reachable_invariant(sys.system, start_state(sys));
    // Every reachable start of a wave (sn.0 change) departs from a
    // completed (all-equal) state: re-checked directly on the graph.
    const TransitionSystem ts(sys.system, nullptr, inv);
    for (NodeId n = 0; n < ts.num_nodes(); ++n) {
        const StateIndex s = ts.state_of(n);
        for (const auto& e : ts.program_edges(n)) {
            const StateIndex t = ts.state_of(e.to);
            if (sys.space->get(s, sys.sn[0]) !=
                sys.space->get(t, sys.sn[0])) {
                EXPECT_TRUE(sys.all_equal.eval(*sys.space, s))
                    << sys.space->format(s);
            }
        }
    }
}

TEST(DistributedResetTest, DeeperTreeStillWorks) {
    auto sys = make_distributed_reset({0, 0, 1, 2});  // a chain
    const Predicate inv = reachable_invariant(sys.system, start_state(sys));
    EXPECT_TRUE(refines_spec(sys.system, sys.spec, inv).ok);
    EXPECT_TRUE(
        check_nonmasking(sys.system, sys.corrupt_sessions, sys.spec, inv)
            .ok());
}

TEST(DistributedResetTest, WaveLatencyTracksSizeNotDepth) {
    // Simulated from a freshly started wave to the completion witness: in
    // the interleaving model each process adopts once, so a star and a
    // chain of n processes take the same steps, and 7 processes take more
    // than 4.
    const auto wave_steps = [](const std::vector<int>& parent) {
        auto sys = make_distributed_reset(parent);
        StateIndex wave = sys.initial_state();
        wave = sys.space->set(wave, sys.sn[0], 1);
        wave = sys.space->set(wave, sys.wc_var, 0);
        Experiment ex;
        ex.program = &sys.system;
        ex.initial = wave;
        ex.runs = 100;
        ex.options.max_steps = 10000;
        ex.options.stop_when = sys.witness;
        const BatchResult r = run_experiment(ex);
        EXPECT_EQ(r.stopped_early, r.runs);
        return r.steps.mean();
    };
    const double star4 = wave_steps({0, 0, 0, 0});
    const double chain4 = wave_steps({0, 0, 1, 2});
    const double tree7 = wave_steps({0, 0, 0, 1, 1, 2, 2});
    const double chain7 = wave_steps({0, 0, 1, 2, 3, 4, 5});
    EXPECT_NEAR(star4, chain4, 0.5);
    EXPECT_NEAR(tree7, chain7, 0.5);
    EXPECT_GT(tree7, star4);
}

TEST(DistributedResetTest, RejectsMalformedTrees) {
    EXPECT_THROW(make_distributed_reset({0, 2, 1}), ContractError);
    EXPECT_THROW(make_distributed_reset({1, 0}), ContractError);
}

}  // namespace
}  // namespace dcft
