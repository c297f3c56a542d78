// Barrier synchronization with a hierarchical witness tree: the
// "hierarchical construction of detectors" the paper's companion method
// provides, with the trusting-vs-rechecking ablation adjudicated by the
// checker.
#include "apps/barrier.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "runtime/experiment.hpp"
#include "verify/component_checker.hpp"
#include "verify/fairness.hpp"
#include "verify/invariant.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"

namespace dcft {
namespace {

using apps::BarrierSystem;
using apps::make_barrier;

Predicate start_state(const BarrierSystem& sys) {
    const StateIndex init = sys.initial_state();
    return Predicate("init", [init](const StateSpace&, StateIndex s) {
        return s == init;
    });
}

TEST(BarrierTest, BothDesignsCorrectWithoutFaults) {
    for (int n : {2, 4}) {
        auto sys = make_barrier(n);
        for (const Program* p : {&sys.trusting, &sys.rechecking}) {
            const Predicate inv = reachable_invariant(*p, start_state(sys));
            EXPECT_TRUE(refines_spec(*p, sys.spec, inv).ok)
                << p->name() << " n=" << n;
        }
    }
}

TEST(BarrierTest, RootWitnessIsAHierarchicalDetector) {
    auto sys = make_barrier(4);
    const Predicate inv =
        reachable_invariant(sys.rechecking, start_state(sys));
    const DetectorClaim claim{sys.root_witness, sys.all_arrived, inv};
    EXPECT_TRUE(check_detector(sys.rechecking, claim).ok);
}

TEST(BarrierTest, WitnessesAreTruthfulInFaultFreeRuns) {
    auto sys = make_barrier(4);
    const Predicate inv =
        reachable_invariant(sys.trusting, start_state(sys));
    EXPECT_TRUE(implies_everywhere(*sys.space, inv,
                                   sys.witnesses_truthful));
}

TEST(BarrierTest, TrustingDesignIsNotFailsafeToWitnessCorruption) {
    for (int n : {2, 4, 8}) {
        auto sys = make_barrier(n);
        const Predicate inv =
            reachable_invariant(sys.trusting, start_state(sys));
        const ToleranceReport r = check_failsafe(
            sys.trusting, sys.corrupt_witness, sys.spec, inv);
        EXPECT_FALSE(r.ok()) << "n=" << n;
        // The failure is a premature release, not some setup artifact.
        EXPECT_NE(r.reason().find("safety violated"), std::string::npos)
            << "n=" << n;
    }
}

TEST(BarrierTest, RecheckingDesignIsMaskingToWitnessCorruption) {
    for (int n : {2, 4, 8}) {
        auto sys = make_barrier(n);
        const Predicate inv =
            reachable_invariant(sys.rechecking, start_state(sys));
        const ToleranceReport r = check_masking(
            sys.rechecking, sys.corrupt_witness, sys.spec, inv);
        EXPECT_TRUE(r.ok()) << "n=" << n << ": " << r.reason();
    }
}

TEST(BarrierTest, RecheckCostsNoExtraSteps) {
    // The recheck strengthens a guard and adds no step: both designs
    // finish the first round in exactly 2n steps (n arrivals, n-1 witness
    // raises, one release) in every simulated run.
    for (int n : {4, 8}) {
        auto sys = make_barrier(n);
        for (const Program* p : {&sys.trusting, &sys.rechecking}) {
            Experiment ex;
            ex.program = p;
            ex.initial = sys.initial_state();
            ex.runs = 100;
            ex.options.max_steps = 10000;
            ex.options.stop_when = Predicate::var_eq(*sys.space, "round", 1);
            const BatchResult r = run_experiment(ex);
            EXPECT_EQ(r.stopped_early, r.runs) << p->name() << " n=" << n;
            EXPECT_EQ(r.steps.min(), 2.0 * n) << p->name() << " n=" << n;
            EXPECT_EQ(r.steps.max(), 2.0 * n) << p->name() << " n=" << n;
        }
    }
}

TEST(BarrierTest, ReleaseClearsEverything) {
    auto sys = make_barrier(4);
    StateIndex s = sys.initial_state();
    for (VarId a : sys.arrived) s = sys.space->set(s, a, 1);
    for (int k = 1; k < sys.n; ++k)
        s = sys.space->set(s, sys.w[static_cast<std::size_t>(k)], 1);
    const Action& release = sys.rechecking.action_named("release");
    ASSERT_TRUE(release.enabled(*sys.space, s));
    const StateIndex t = release.apply(*sys.space, s);
    EXPECT_EQ(sys.space->get(t, sys.round_var), 1);
    for (VarId a : sys.arrived) EXPECT_EQ(sys.space->get(t, a), 0);
    for (int k = 1; k < sys.n; ++k)
        EXPECT_EQ(
            sys.space->get(t, sys.w[static_cast<std::size_t>(k)]), 0);
}

TEST(BarrierTest, RoundsKeepAlternating) {
    auto sys = make_barrier(2);
    const Predicate inv =
        reachable_invariant(sys.rechecking, start_state(sys));
    const TransitionSystem ts(sys.rechecking, nullptr, inv);
    EXPECT_TRUE(check_leads_to(ts, Predicate::var_eq(*sys.space, "round", 0),
                               Predicate::var_eq(*sys.space, "round", 1),
                               false)
                    .ok);
    EXPECT_TRUE(check_leads_to(ts, Predicate::var_eq(*sys.space, "round", 1),
                               Predicate::var_eq(*sys.space, "round", 0),
                               false)
                    .ok);
}

TEST(BarrierTest, RejectsNonPowerOfTwo) {
    EXPECT_THROW(make_barrier(3), ContractError);
    EXPECT_THROW(make_barrier(0), ContractError);
}

TEST(BarrierTest, EightWorkers) {
    auto sys = make_barrier(8);
    const Predicate inv =
        reachable_invariant(sys.rechecking, start_state(sys));
    EXPECT_TRUE(refines_spec(sys.rechecking, sys.spec, inv).ok);
}

}  // namespace
}  // namespace dcft
