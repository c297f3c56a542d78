// Section 6.1: triple modular redundancy decomposed into IR + DR + CR.
#include "apps/tmr.hpp"

#include <gtest/gtest.h>

#include "runtime/simulator.hpp"
#include "verify/component_checker.hpp"
#include "verify/encapsulation.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"

namespace dcft {
namespace {

using apps::make_tmr;
using apps::TmrSystem;

class TmrTest : public ::testing::Test {
protected:
    TmrSystem sys = make_tmr(2);
};

TEST_F(TmrTest, IntolerantRefinesSpecInAbsenceOfFaults) {
    EXPECT_TRUE(refines_spec(sys.intolerant, sys.spec, sys.invariant).ok);
}

TEST_F(TmrTest, IntolerantViolatesSafetyUnderCorruption) {
    EXPECT_FALSE(check_failsafe(sys.intolerant, sys.corrupt_one_input,
                                sys.spec, sys.invariant)
                     .ok());
    EXPECT_FALSE(check_masking(sys.intolerant, sys.corrupt_one_input,
                               sys.spec, sys.invariant)
                     .ok());
}

// --- DR ; IR: fail-safe (Theorem 3.6 instance, Section 6.1). ---

TEST_F(TmrTest, TheoremHypothesis_DrIrRefinesIr) {
    EXPECT_TRUE(
        refines_program(sys.failsafe, sys.intolerant, sys.invariant).ok);
}

TEST_F(TmrTest, TheoremHypothesis_DrIrEncapsulatesIr) {
    EXPECT_TRUE(check_encapsulates(sys.failsafe, sys.intolerant).ok);
}

TEST_F(TmrTest, DrIrIsFailsafeTolerant) {
    const ToleranceReport r = check_failsafe(
        sys.failsafe, sys.corrupt_one_input, sys.spec, sys.invariant);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST_F(TmrTest, DrIrDeadlocksWhenXCorrupted) {
    // "Program DR;IR deadlocks when the value of x gets corrupted" — that
    // is exactly why it is not masking.
    EXPECT_FALSE(check_masking(sys.failsafe, sys.corrupt_one_input, sys.spec,
                               sys.invariant)
                     .ok());
    // Concretely: x != y == z and out unassigned leaves no enabled action.
    StateIndex s = sys.initial_state(0);
    s = sys.space->set(s, sys.x_var, 1);  // corrupt x
    EXPECT_TRUE(sys.failsafe.is_terminal(s));
    EXPECT_FALSE(sys.masking.is_terminal(s));
}

TEST_F(TmrTest, DrWitnessDetectsXUncorrupted) {
    // 'Z_DR detects X_DR' in DR;IR from the invariant: the witness
    // (x=y \/ x=z) correctly witnesses "x equals an uncorrupted input".
    const DetectorClaim claim{sys.dr_witness, sys.x_uncorrupted,
                              sys.invariant};
    EXPECT_TRUE(check_detector(sys.failsafe, claim).ok);
}

TEST_F(TmrTest, DrIsAFailsafeTolerantDetector) {
    const DetectorClaim claim{sys.dr_witness, sys.x_uncorrupted,
                              sys.invariant};
    // Span: the states reachable under faults — at most one corruption.
    const ToleranceReport fs = check_failsafe(
        sys.failsafe, sys.corrupt_one_input, sys.spec, sys.invariant);
    EXPECT_TRUE(check_tolerant_detector(sys.failsafe, sys.corrupt_one_input,
                                        claim, Tolerance::FailSafe,
                                        fs.fault_span)
                    .ok);
}

// --- DR ; IR || CR: masking (Section 6.1's main construction). ---

TEST_F(TmrTest, MaskingTmrIsMaskingTolerant) {
    const ToleranceReport r = check_masking(
        sys.masking, sys.corrupt_one_input, sys.spec, sys.invariant);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST_F(TmrTest, MaskingTmrIsAlsoFailsafe) {
    EXPECT_TRUE(check_failsafe(sys.masking, sys.corrupt_one_input, sys.spec,
                               sys.invariant)
                    .ok());
}

TEST_F(TmrTest, CrIsACorrectorOfOutputCorrectness) {
    // CR's correction predicate and witness predicate are both
    // out = uncorrupted value; within the masking composition it corrects
    // the output from every span state.
    const ToleranceReport mk = check_masking(
        sys.masking, sys.corrupt_one_input, sys.spec, sys.invariant);
    const CorrectorClaim claim{sys.output_correct, sys.output_correct,
                               mk.fault_span};
    EXPECT_TRUE(check_corrector(sys.masking, claim).ok);
}

TEST_F(TmrTest, MaskedOutputIsAlwaysTheMajorityValue) {
    // Enumerate the whole span: every terminal state has out = majority.
    const ToleranceReport mk = check_masking(
        sys.masking, sys.corrupt_one_input, sys.spec, sys.invariant);
    for (StateIndex s = 0; s < sys.space->num_states(); ++s) {
        if (!mk.fault_span.eval(*sys.space, s)) continue;
        if (sys.masking.is_terminal(s)) {
            EXPECT_TRUE(sys.output_correct.eval(*sys.space, s))
                << sys.space->format(s);
        }
    }
}

TEST_F(TmrTest, LargerValueDomains) {
    for (Value domain : {3, 4, 5}) {
        auto sys2 = make_tmr(domain);
        const ToleranceReport r = check_masking(
            sys2.masking, sys2.corrupt_one_input, sys2.spec, sys2.invariant);
        EXPECT_TRUE(r.ok()) << "domain=" << domain << ": " << r.reason();
    }
}

TEST_F(TmrTest, SpanIsAtMostOneCorruption) {
    const ToleranceReport mk = check_masking(
        sys.masking, sys.corrupt_one_input, sys.spec, sys.invariant);
    for (StateIndex s = 0; s < sys.space->num_states(); ++s) {
        if (!mk.fault_span.eval(*sys.space, s)) continue;
        // At least two of the three inputs agree in every span state.
        const Value x = sys.space->get(s, sys.x_var);
        const Value y = sys.space->get(s, sys.y_var);
        const Value z = sys.space->get(s, sys.z_var);
        EXPECT_TRUE(x == y || y == z || x == z) << sys.space->format(s);
    }
}

// --- The construction chain as behaviour: seeded runs under corruption. ---

struct Outcomes {
    int correct = 0, wrong = 0, stuck = 0;
};

/// Final outputs of 400 seeded runs of `p`, one input corrupted with
/// per-step probability `fault_p`, inputs alternating 0/1 by run.
Outcomes simulate(const TmrSystem& sys, const Program& p, double fault_p) {
    Outcomes o;
    RandomScheduler scheduler;
    for (int i = 0; i < 400; ++i) {
        Simulator sim(p, scheduler, 77 + static_cast<std::uint64_t>(i));
        FaultInjector injector(sys.corrupt_one_input, fault_p, 1);
        sim.set_fault_injector(&injector);
        RunOptions options;
        options.max_steps = 40;
        const StateIndex end =
            sim.run(sys.initial_state(static_cast<Value>(i % 2)), options)
                .final_state;
        if (sys.output_correct.eval(*sys.space, end))
            ++o.correct;
        else if (sys.output_unassigned.eval(*sys.space, end))
            ++o.stuck;
        else
            ++o.wrong;
    }
    return o;
}

TEST_F(TmrTest, SimulatedOutcomesUnderCorruption) {
    // IR outputs wrongly more often as corruption rises; DR;IR turns each
    // of those wrong outputs into a stall, run for run; the voter
    // DR;IR || CR outputs correctly in every run.
    int ir_wrong_before = 0;
    for (const double fault_p : {0.1, 0.3, 0.6}) {
        const Outcomes ir = simulate(sys, sys.intolerant, fault_p);
        const Outcomes dr = simulate(sys, sys.failsafe, fault_p);
        const Outcomes voter = simulate(sys, sys.masking, fault_p);
        EXPECT_GT(ir.wrong, ir_wrong_before) << "p=" << fault_p;
        ir_wrong_before = ir.wrong;
        EXPECT_EQ(dr.wrong, 0) << "p=" << fault_p;
        EXPECT_EQ(dr.stuck, ir.wrong) << "p=" << fault_p;
        EXPECT_EQ(voter.correct, 400) << "p=" << fault_p;
    }
}

}  // namespace
}  // namespace dcft
