// Section 6.2: Byzantine agreement decomposed into IB + DB + CB, with the
// 3f+1 threshold recovered as a verification outcome.
#include "apps/byzantine.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/check.hpp"

#include "runtime/simulator.hpp"
#include "verify/component_checker.hpp"
#include "verify/reachability.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"

namespace dcft {
namespace {

using apps::ByzantineSystem;
using apps::make_byzantine;

/// The invariant we verify from: all states reachable by the given program
/// in the absence of faults, from the canonical initial states.
Predicate reachable_invariant(const ByzantineSystem& sys,
                              const Program& program) {
    const Predicate init(
        "init", [&sys](const StateSpace& sp, StateIndex s) {
            if (sp.get(s, sys.b_g) != 0) return false;
            for (std::size_t i = 0; i < sys.d.size(); ++i) {
                if (sp.get(s, sys.b[i]) != 0) return false;
                if (sp.get(s, sys.d[i]) != 2) return false;    // bot
                if (sp.get(s, sys.out[i]) != 2) return false;  // bot
            }
            return true;  // d.g free: both initial decisions included
        });
    auto reach = std::make_shared<StateSet>(
        reachable_states(program, nullptr, init));
    return predicate_of(std::move(reach), "reach(" + program.name() + ")");
}

class ByzantineTest : public ::testing::Test {
protected:
    ByzantineSystem sys = make_byzantine(4, 1);
};

TEST_F(ByzantineTest, IntolerantRefinesSpecWithoutByzantineProcesses) {
    const Predicate inv = reachable_invariant(sys, sys.intolerant);
    EXPECT_TRUE(refines_spec(sys.intolerant, sys.spec, inv).ok);
}

TEST_F(ByzantineTest, IntolerantViolatesSafetyUnderByzantineGeneral) {
    const Predicate inv = reachable_invariant(sys, sys.intolerant);
    EXPECT_FALSE(check_failsafe(sys.intolerant, sys.byzantine_fault,
                                sys.spec, inv)
                     .ok());
    EXPECT_FALSE(check_masking(sys.intolerant, sys.byzantine_fault,
                               sys.spec, inv)
                     .ok());
}

TEST_F(ByzantineTest, DetectorGatedVersionIsFailsafeTolerant) {
    const Predicate inv = reachable_invariant(sys, sys.failsafe);
    const ToleranceReport r = check_failsafe(
        sys.failsafe, sys.byzantine_fault, sys.spec, inv);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST_F(ByzantineTest, FailsafeVersionIsNotMasking) {
    // A Byzantine general that equivocates can block one process forever —
    // fail-safe, but liveness is lost without the corrector.
    const Predicate inv = reachable_invariant(sys, sys.failsafe);
    EXPECT_FALSE(check_masking(sys.failsafe, sys.byzantine_fault, sys.spec,
                               inv)
                     .ok());
}

TEST_F(ByzantineTest, FullConstructionIsMaskingTolerant) {
    const Predicate inv = reachable_invariant(sys, sys.masking);
    const ToleranceReport r =
        check_masking(sys.masking, sys.byzantine_fault, sys.spec, inv);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST_F(ByzantineTest, MaskingVersionIsAlsoFailsafe) {
    const Predicate inv = reachable_invariant(sys, sys.masking);
    EXPECT_TRUE(check_failsafe(sys.masking, sys.byzantine_fault, sys.spec,
                               inv)
                    .ok());
}

TEST_F(ByzantineTest, DbWitnessIsADetectorOfCorrectDecision) {
    // 'W.j detects (d.j = corrdecn)' in the masking program, from its
    // fault-free invariant.
    const Predicate inv = reachable_invariant(sys, sys.masking);
    for (int j = 1; j < sys.num_processes; ++j) {
        const DetectorClaim claim{sys.witness(j), sys.detection(j), inv};
        EXPECT_TRUE(check_detector(sys.masking, claim).ok) << "process " << j;
    }
}

TEST_F(ByzantineTest, MaskingThresholdIsThreeFPlusOne) {
    // f = 1: masking is impossible exactly for 3 <= n <= 3f (n = 3), the
    // Lamport-Shostak-Pease bound; n = 2 (a single lieutenant) masks
    // trivially, and n = 4, 5 >= 3f+1 mask.
    for (int n : {2, 3, 4, 5}) {
        ByzantineSystem s = make_byzantine(n, 1);
        const Predicate inv = reachable_invariant(s, s.masking);
        const ToleranceReport r =
            check_masking(s.masking, s.byzantine_fault, s.spec, inv);
        EXPECT_EQ(r.ok(), n != 3) << "n=" << n << ": " << r.reason();
    }
}

TEST_F(ByzantineTest, NoFaultBudgetMeansTrivialTolerance) {
    ByzantineSystem calm = make_byzantine(4, 0);
    const Predicate inv = reachable_invariant(calm, calm.masking);
    EXPECT_TRUE(check_masking(calm.masking, calm.byzantine_fault, calm.spec,
                              inv)
                    .ok());
}

TEST_F(ByzantineTest, InitialStateShape) {
    const StateIndex s0 = sys.initial_state(1);
    EXPECT_EQ(sys.space->get(s0, sys.d_g), 1);
    EXPECT_EQ(sys.space->get(s0, sys.b_g), 0);
    for (std::size_t i = 0; i < sys.d.size(); ++i) {
        EXPECT_EQ(sys.space->get(s0, sys.d[i]), 2);
        EXPECT_EQ(sys.space->get(s0, sys.out[i]), 2);
        EXPECT_EQ(sys.space->get(s0, sys.b[i]), 0);
    }
    EXPECT_THROW(sys.initial_state(2), ContractError);
}

TEST_F(ByzantineTest, WitnessRequiresAllDecisionsPresent) {
    StateIndex s = sys.initial_state(1);
    EXPECT_FALSE(sys.witness(1).eval(*sys.space, s));
    for (std::size_t i = 0; i < sys.d.size(); ++i)
        s = sys.space->set(s, sys.d[i], 1);
    EXPECT_TRUE(sys.witness(1).eval(*sys.space, s));
    s = sys.space->set(s, sys.d[0], 0);  // minority now
    EXPECT_FALSE(sys.witness(1).eval(*sys.space, s));
    EXPECT_TRUE(sys.witness(2).eval(*sys.space, s));
}

// --- Seeded runs with an equivocating general. ---

struct Agreement {
    int decided = 0;  ///< runs in which every honest process output
    int agreed = 0;   ///< decided runs whose honest outputs all agree
    double steps = 0;  ///< mean steps of the decided runs
};

/// 100 seeded runs of `p` whose general turns Byzantine at step 0.
Agreement simulate(const ByzantineSystem& sys, const Program& p) {
    Agreement a;
    RandomScheduler scheduler;
    for (int i = 0; i < 100; ++i) {
        Simulator sim(p, scheduler, 31 + static_cast<std::uint64_t>(i));
        FaultInjector injector(sys.byzantine_fault, 0.0, 1);
        injector.schedule(0, 0);
        sim.set_fault_injector(&injector);
        RunOptions options;
        options.max_steps = 2000;
        options.stop_when = sys.all_honest_output;
        const RunResult run = sim.run(
            sys.initial_state(static_cast<Value>(i % 2)), options);
        if (!run.stopped_early) continue;
        ++a.decided;
        a.steps += static_cast<double>(run.steps);
        std::set<Value> outputs;
        for (std::size_t j = 0; j < sys.out.size(); ++j)
            if (sys.space->get(run.final_state, sys.b[j]) == 0)
                outputs.insert(sys.space->get(run.final_state, sys.out[j]));
        if (outputs.size() == 1) ++a.agreed;
    }
    if (a.decided > 0) a.steps /= a.decided;
    return a;
}

TEST_F(ByzantineTest, SimulatedAgreementWithEquivocatingGeneral) {
    // Without CB an equivocating general can block a lieutenant forever;
    // with CB every run decides, honest outputs always agree, and deciding
    // takes longer with more processes. The intolerant IB decides but
    // disagrees.
    double previous_steps = 0;
    for (int n : {4, 5}) {
        ByzantineSystem s = make_byzantine(n, 1);
        const Agreement gated = simulate(s, s.failsafe);
        const Agreement full = simulate(s, s.masking);
        EXPECT_LT(gated.decided, 100) << "n=" << n;
        EXPECT_EQ(full.decided, 100) << "n=" << n;
        EXPECT_EQ(full.agreed, 100) << "n=" << n;
        EXPECT_GT(full.steps, previous_steps) << "n=" << n;
        previous_steps = full.steps;
    }
    const Agreement intolerant = simulate(sys, sys.intolerant);
    EXPECT_GT(intolerant.decided, 0);
    EXPECT_LT(intolerant.agreed, intolerant.decided);
}

}  // namespace
}  // namespace dcft
