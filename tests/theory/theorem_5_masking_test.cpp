// Theorems 5.2, 5.3 and 5.5: masking tolerance decomposes into fail-safe
// (detectors) plus convergence (correctors), and masking tolerant programs
// contain both kinds of components.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "apps/byzantine.hpp"
#include "apps/memory_access.hpp"
#include "apps/tmr.hpp"
#include "verify/component_checker.hpp"
#include "verify/encapsulation.hpp"
#include "verify/reachability.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"

namespace dcft {
namespace {

TEST(Theorem52Test, SafetyPlusConvergenceImpliesMasking) {
    // Theorem 5.2 on pm: (i) pm refines SPEC from S; (ii) pm [] F refines
    // SSPEC from T; (iii) pm [] F converges to S from T. Conclusion: pm
    // refines the masking tolerance specification from T.
    auto sys = apps::make_memory_access();
    const ToleranceReport mk =
        check_masking(sys.masking, sys.page_fault, sys.spec, sys.S);

    ASSERT_TRUE(refines_spec(sys.masking, sys.spec, sys.S).ok);
    ASSERT_TRUE(refines_spec(sys.masking, sys.spec.failsafe_weakening(),
                             mk.fault_span, &sys.page_fault)
                    .ok);
    ASSERT_TRUE(
        converges(sys.masking, &sys.page_fault, mk.fault_span, sys.S).ok);

    EXPECT_TRUE(mk.ok()) << mk.reason();
}

TEST(Theorem52Test, HoldsAcrossTheExampleSuite) {
    // fail-safe && nonmasking => masking, and masking => both, checked on
    // every (program, fault) pair in the example suite whose checks have
    // the invariant-convergent shape.
    struct Case {
        std::string name;
        bool failsafe, nonmasking, masking;
    };
    std::vector<Case> cases;

    auto mem = apps::make_memory_access();
    for (const Program* p : {&mem.intolerant, &mem.failsafe, &mem.nonmasking,
                             &mem.masking}) {
        cases.push_back(Case{
            p->name(),
            check_failsafe(*p, mem.page_fault, mem.spec, mem.S).ok(),
            check_nonmasking(*p, mem.page_fault, mem.spec, mem.S).ok(),
            check_masking(*p, mem.page_fault, mem.spec, mem.S).ok()});
    }
    auto tmr = apps::make_tmr(2);
    for (const Program* p : {&tmr.intolerant, &tmr.failsafe}) {
        cases.push_back(Case{
            p->name(),
            check_failsafe(*p, tmr.corrupt_one_input, tmr.spec,
                           tmr.invariant)
                .ok(),
            check_nonmasking(*p, tmr.corrupt_one_input, tmr.spec,
                             tmr.invariant)
                .ok(),
            check_masking(*p, tmr.corrupt_one_input, tmr.spec,
                          tmr.invariant)
                .ok()});
    }

    bool some_masking = false;
    for (const Case& c : cases) {
        if (c.failsafe && c.nonmasking) {
            EXPECT_TRUE(c.masking) << c.name << ": Theorem 5.2 direction";
        }
        if (c.masking) {
            some_masking = true;
            EXPECT_TRUE(c.failsafe) << c.name;
            EXPECT_TRUE(c.nonmasking) << c.name;
        }
    }
    EXPECT_TRUE(some_masking);  // the suite exercises the masking row
}

TEST(Theorem52Test, GradeLatticeOverEverySingleJumpFault) {
    // Reference program: climb v from 0 to the goal 6; v = 7 is forbidden.
    // Each fault class is one jump v == a --> v := b (a <= goal, a != b).
    // Over all 49 classes the verdicts populate only (fs, nm, mk) =
    // (yes, yes, yes) and (no, no, no): fs && nm <=> mk, with jumps to the
    // forbidden state the only failures.
    const Value goal = 6, forbidden = 7;
    auto space = make_space({Variable{"v", forbidden + 1, {}}});
    Program climb(space, "climb");
    climb.add_action(Action::assign(
        *space, "inc",
        Predicate("v<goal",
                  [goal](const StateSpace& sp, StateIndex s) {
                      return sp.get(s, 0) < goal;
                  }),
        "v",
        [](const StateSpace& sp, StateIndex s) { return sp.get(s, 0) + 1; }));
    LivenessSpec live;
    live.add_eventually(Predicate::var_eq(*space, "v", goal));
    const ProblemSpec spec(
        "climb-spec",
        SafetySpec::never(Predicate::var_eq(*space, "v", forbidden)),
        std::move(live));
    const Predicate inv("v<=goal", [goal](const StateSpace&, StateIndex s) {
        return static_cast<Value>(s) <= goal;
    });

    std::map<std::tuple<bool, bool, bool>, int> populations;
    for (Value a = 0; a <= goal; ++a) {
        for (Value b = 0; b <= forbidden; ++b) {
            if (a == b) continue;
            FaultClass jump(space, "jump");
            jump.add_action(Action::assign_const(
                *space, "jump", Predicate::var_eq(*space, "v", a), "v", b));
            ++populations[{check_failsafe(climb, jump, spec, inv).ok(),
                           check_nonmasking(climb, jump, spec, inv).ok(),
                           check_masking(climb, jump, spec, inv).ok()}];
        }
    }
    const std::map<std::tuple<bool, bool, bool>, int> expected = {
        {{true, true, true}, 42}, {{false, false, false}, 7}};
    EXPECT_EQ(populations, expected);
}

TEST(Theorem55Test, MemoryAccessConclusions) {
    // The full conclusion set of Theorem 5.5 for pm (Section 5.1): masking
    // tolerance, a masking F-tolerant detector, a masking tolerant (and
    // nonmasking F-tolerant) corrector.
    auto sys = apps::make_memory_access();

    const ToleranceReport mk =
        check_masking(sys.masking, sys.page_fault, sys.spec, sys.S);
    EXPECT_TRUE(mk.ok()) << mk.reason();

    const DetectorClaim detector{sys.Z1, sys.X1, sys.S};
    EXPECT_TRUE(check_tolerant_detector(sys.masking, sys.page_fault,
                                        detector, Tolerance::Masking,
                                        sys.U1)
                    .ok);

    const CorrectorClaim corrector{sys.X1, sys.X1, sys.U1};
    // Masking tolerant (program steps alone satisfy the corrector spec
    // from the span)...
    EXPECT_TRUE(check_corrector(sys.masking, corrector).ok);
    // ...and nonmasking F-tolerant, but NOT masking F-tolerant: the fault
    // step itself violates the corrector's Convergence closure.
    EXPECT_TRUE(check_tolerant_corrector(sys.masking, sys.page_fault,
                                         corrector, Tolerance::Nonmasking,
                                         sys.U1)
                    .ok);
    EXPECT_FALSE(check_tolerant_corrector(sys.masking, sys.page_fault,
                                          corrector, Tolerance::Masking,
                                          sys.U1)
                     .ok);
}

TEST(Theorem53Test, EncapsulationChainForMasking) {
    // Theorem 5.3's hypothesis chain for pm over pn: pm encapsulates pn,
    // refines it, converges, and satisfies the safety specification — so
    // it contains both component kinds.
    auto sys = apps::make_memory_access();
    ASSERT_TRUE(check_encapsulates(sys.masking, sys.nonmasking).ok);
    ASSERT_TRUE(refines_program(sys.masking, sys.nonmasking, sys.S).ok);
    ASSERT_TRUE(converges(sys.masking, nullptr, sys.U1, sys.S).ok);
    ASSERT_TRUE(
        refines_spec(sys.masking, sys.spec.failsafe_weakening(), sys.U1).ok);

    const DetectorClaim detector{sys.Z1, sys.X1, sys.S};
    EXPECT_TRUE(check_detector(sys.masking, detector).ok);
    const CorrectorClaim corrector{sys.X1, sys.X1, sys.U1};
    EXPECT_TRUE(check_corrector(sys.masking, corrector).ok);
}

TEST(Theorem55Test, ByzantineAgreementConclusions) {
    // Section 6.2's headline: the DB+CB construction is masking Byzantine
    // tolerant, and each DB.j is a masking F-tolerant detector of its
    // detection predicate d.j = corrdecn.
    auto sys = apps::make_byzantine(4, 1);
    const Predicate init(
        "init", [&sys](const StateSpace& sp, StateIndex s) {
            if (sp.get(s, sys.b_g) != 0) return false;
            for (std::size_t i = 0; i < sys.d.size(); ++i) {
                if (sp.get(s, sys.b[i]) != 0) return false;
                if (sp.get(s, sys.d[i]) != 2) return false;
                if (sp.get(s, sys.out[i]) != 2) return false;
            }
            return true;
        });
    auto reach = std::make_shared<StateSet>(
        reachable_states(sys.masking, nullptr, init));
    const Predicate inv = predicate_of(std::move(reach), "inv");

    const ToleranceReport mk =
        check_masking(sys.masking, sys.byzantine_fault, sys.spec, inv);
    EXPECT_TRUE(mk.ok()) << mk.reason();
}

}  // namespace
}  // namespace dcft
