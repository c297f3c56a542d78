// Theorem 3.3, Theorem 3.4 and Theorem 3.6 instantiated end-to-end: on the
// paper's own examples, the hypotheses are discharged mechanically and the
// conclusions — that safety-refining programs contain detectors — are
// verified with the component checker.
#include <gtest/gtest.h>

#include "apps/memory_access.hpp"
#include "apps/tmr.hpp"
#include "verify/component_checker.hpp"
#include "verify/detection_predicate.hpp"
#include "verify/encapsulation.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"

namespace dcft {
namespace {

TEST(Theorem36Test, MemoryAccessInstance) {
    // Hypotheses of Theorem 3.6 with p' = pf, p = the intolerant read,
    // R = S, F = page fault.
    auto sys = apps::make_memory_access();

    // (H1) p refines SPEC from S.
    ASSERT_TRUE(refines_spec(sys.intolerant, sys.spec, sys.S).ok);
    // (H2) p' refines p from R (= S).
    ASSERT_TRUE(refines_program(sys.failsafe, sys.intolerant, sys.S).ok);
    // (H3) p' encapsulates p.
    ASSERT_TRUE(check_encapsulates(sys.failsafe, sys.intolerant).ok);
    // (H4) p' [] F refines SSPEC from T (the canonical span).
    const ToleranceReport fs =
        check_failsafe(sys.failsafe, sys.page_fault, sys.spec, sys.S);
    ASSERT_TRUE(refines_spec(sys.failsafe, sys.spec.failsafe_weakening(),
                             fs.fault_span, &sys.page_fault)
                    .ok);

    // (C1) p' is fail-safe F-tolerant for SPEC from R.
    EXPECT_TRUE(fs.ok()) << fs.reason();

    // (C2) p' is a fail-safe F-tolerant detector of a detection predicate
    // of the action of p. X1 is such a detection predicate:
    EXPECT_TRUE(is_detection_predicate(
        *sys.space, sys.X1, sys.intolerant.action_named("read"),
        sys.spec.safety()));
    const DetectorClaim claim{sys.Z1, sys.X1, sys.S};
    EXPECT_TRUE(check_tolerant_detector(sys.failsafe, sys.page_fault, claim,
                                        Tolerance::FailSafe, sys.U1)
                    .ok);
}

TEST(Theorem36Test, TmrInstance) {
    auto sys = apps::make_tmr(2);

    ASSERT_TRUE(refines_spec(sys.intolerant, sys.spec, sys.invariant).ok);
    ASSERT_TRUE(
        refines_program(sys.failsafe, sys.intolerant, sys.invariant).ok);
    ASSERT_TRUE(check_encapsulates(sys.failsafe, sys.intolerant).ok);

    const ToleranceReport fs = check_failsafe(
        sys.failsafe, sys.corrupt_one_input, sys.spec, sys.invariant);
    EXPECT_TRUE(fs.ok()) << fs.reason();

    // X_DR = (x = uncor) is a detection predicate of IR1 for SPEC_io.
    EXPECT_TRUE(is_detection_predicate(*sys.space, sys.x_uncorrupted,
                                       sys.intolerant.action_named("IR1"),
                                       sys.spec.safety()));
    const DetectorClaim claim{sys.dr_witness, sys.x_uncorrupted,
                              sys.invariant};
    EXPECT_TRUE(check_tolerant_detector(sys.failsafe, sys.corrupt_one_input,
                                        claim, Tolerance::FailSafe,
                                        fs.fault_span)
                    .ok);
}

TEST(Theorem34Test, SafetyRefiningProgramContainsDetectors) {
    // Theorem 3.4 (no faults): pf refines SSPEC from S, so it refines
    // 'Z detects X' from S for the detection predicate of p's action.
    auto sys = apps::make_memory_access();
    ASSERT_TRUE(refines_spec(sys.failsafe, sys.spec.failsafe_weakening(),
                             sys.S)
                    .ok);
    const DetectorClaim claim{sys.Z1, sys.X1, sys.S};
    EXPECT_TRUE(check_detector(sys.failsafe, claim).ok);
}

TEST(Theorem33Test, EveryActionHasADetectionPredicate) {
    // Theorem 3.3 over every action of every example program: the weakest
    // detection predicate exists and is a detection predicate.
    auto mem = apps::make_memory_access();
    auto tmr = apps::make_tmr(2);
    const std::vector<std::pair<const Program*, const SafetySpec*>> cases{
        {&mem.intolerant, &mem.spec.safety()},
        {&mem.masking, &mem.spec.safety()},
        {&tmr.intolerant, &tmr.spec.safety()},
        {&tmr.masking, &tmr.spec.safety()},
    };
    for (const auto& [program, safety] : cases) {
        for (const auto& ac : program->actions()) {
            const Predicate wdp =
                weakest_detection_predicate(program->space(), ac, *safety);
            EXPECT_TRUE(is_detection_predicate(program->space(), wdp, ac,
                                               *safety))
                << program->name() << "/" << ac.name();
        }
    }
}

TEST(Theorem33Test, DetectionPredicatesClosedUnderDisjunction) {
    // "If sf1 and sf2 are detection predicates of ac then so is sf1 \/
    // sf2" — on the paper's TMR action with a family of candidates.
    auto sys = apps::make_tmr(3);
    const Action& ir1 = sys.intolerant.action_named("IR1");
    std::vector<Predicate> found;
    for (Value vx = 0; vx < 3; ++vx) {
        const Predicate candidate =
            Predicate::var_eq(*sys.space, "x", vx) && sys.all_inputs_agree;
        if (is_detection_predicate(*sys.space, candidate, ir1,
                                   sys.spec.safety()))
            found.push_back(candidate);
    }
    ASSERT_GE(found.size(), 2u);
    Predicate joined = found[0];
    for (std::size_t i = 1; i < found.size(); ++i)
        joined = joined || found[i];
    EXPECT_TRUE(
        is_detection_predicate(*sys.space, joined, ir1, sys.spec.safety()));
}

TEST(Lemma35Test, EncapsulationAloneGivesFailsafeDetector) {
    // Lemma 3.5: without the refinement hypothesis (H2), Safeness and
    // Stability still hold — pf minus its progress obligations is a
    // fail-safe tolerant detector. We check it by verifying that the
    // fail-safe weakening of 'Z detects X' (which drops Progress) holds
    // for a deliberately sluggish variant of pf.
    auto sys = apps::make_memory_access();
    // pf with the detector action removed: never witnesses, never lies.
    Program sluggish(sys.space, "sluggish-pf");
    sluggish.add_action(sys.failsafe.action_named("pf1").restricted(
        Predicate::bottom()));  // disabled detector
    const ProblemSpec weak =
        detects_spec(sys.Z1, sys.X1).failsafe_weakening();
    EXPECT_TRUE(refines_spec(sluggish, weak, sys.S).ok);
    // The full detector specification fails, of course: no Progress.
    EXPECT_FALSE(refines_spec(sluggish, detects_spec(sys.Z1, sys.X1),
                              sys.S)
                     .ok);
}

}  // namespace
}  // namespace dcft
