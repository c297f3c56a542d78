// Question 2 of the paper, masking direction: detectors (fail-safe gating)
// plus a safety-respecting corrector yield masking tolerance — the
// constructive mirror of Theorem 5.2.
#include "synth/add_masking.hpp"

#include <gtest/gtest.h>

#include "apps/memory_access.hpp"
#include "apps/tmr.hpp"
#include "common/env.hpp"
#include "obs/telemetry.hpp"
#include "verify/exploration_cache.hpp"
#include "verify/tolerance_checker.hpp"

namespace dcft {
namespace {

std::shared_ptr<const StateSpace> counter_space() {
    return make_space({Variable{"v", 6, {}}});
}

Predicate at(const StateSpace& sp, Value v) {
    return Predicate::var_eq(sp, "v", v);
}

struct Fixture {
    std::shared_ptr<const StateSpace> space = counter_space();
    Program p{space, "climb"};
    FaultClass f{space, "throw"};
    ProblemSpec spec;
    Predicate inv;

    Fixture() {
        p.add_action(Action::assign(
            *space, "inc",
            Predicate("v<3",
                      [](const StateSpace& sp, StateIndex s) {
                          return sp.get(s, 0) < 3;
                      }),
            "v",
            [](const StateSpace& sp, StateIndex s) {
                return sp.get(s, 0) + 1;
            }));
        f.add_action(Action::assign_const(
            *space, "throw",
            Predicate("v<=3",
                      [](const StateSpace& sp, StateIndex s) {
                          return sp.get(s, 0) <= 3;
                      }),
            "v", 4));
        LivenessSpec live;
        live.add_eventually(at(*space, 3));
        spec = ProblemSpec("reach3-avoid5",
                           SafetySpec::never(at(*space, 5)),
                           std::move(live));
        inv = Predicate("v<=3", [](const StateSpace&, StateIndex s) {
            return s <= 3;
        });
    }
};

TEST(MaskingSynthesisTest, IntolerantProgramIsNotMasking) {
    Fixture fx;
    EXPECT_FALSE(check_masking(fx.p, fx.f, fx.spec, fx.inv).ok());
}

TEST(MaskingSynthesisTest, SynthesizedProgramIsMasking) {
    Fixture fx;
    const MaskingSynthesis mk =
        add_masking(fx.p, fx.f, fx.spec.safety(), fx.inv);
    EXPECT_TRUE(mk.complete);
    const ToleranceReport r =
        check_masking(mk.program, fx.f, fx.spec, fx.inv);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST(MaskingSynthesisTest, SynthesizedProgramIsAlsoFailsafeAndNonmasking) {
    // Masking is the strictest grade; the synthesized program must pass
    // all three checks.
    Fixture fx;
    const MaskingSynthesis mk =
        add_masking(fx.p, fx.f, fx.spec.safety(), fx.inv);
    EXPECT_TRUE(check_failsafe(mk.program, fx.f, fx.spec, fx.inv).ok());
    EXPECT_TRUE(check_nonmasking(mk.program, fx.f, fx.spec, fx.inv).ok());
}

TEST(MaskingSynthesisTest, RecoveryAvoidsForbiddenStates) {
    // The forbidden state v == 5 sits right next to the perturbed state
    // v == 4 in single-variable-write space; safe recovery must route
    // around it.
    Fixture fx;
    const MaskingSynthesis mk =
        add_masking(fx.p, fx.f, fx.spec.safety(), fx.inv);
    std::vector<StateIndex> succ;
    for (StateIndex s = 0; s < fx.space->num_states(); ++s) {
        succ.clear();
        mk.corrector.successors(s, succ);
        for (StateIndex t : succ) EXPECT_NE(fx.space->get(t, 0), 5);
    }
}

TEST(MaskingSynthesisTest, ReportsDetectionPredicates) {
    Fixture fx;
    const MaskingSynthesis mk =
        add_masking(fx.p, fx.f, fx.spec.safety(), fx.inv);
    ASSERT_EQ(mk.detection_predicates.size(), fx.p.num_actions());
}

TEST(MaskingSynthesisTest, ImpossibleMaskingReportedIncomplete) {
    // Forbid every state except the perturbed one and the invariant is
    // unreachable by safe single-variable writes: synthesis must admit it.
    auto space = make_space({Variable{"v", 4, {}}});
    Program p(space, "p");  // no actions
    FaultClass f(space, "F");
    f.add_action(Action::assign_const(
        *space, "hit", Predicate::var_eq(*space, "v", 0), "v", 3));
    // Safety forbids entering states 1 and 2 — and also jumping 3 -> 0.
    SafetySpec safety(
        "wall", Predicate::bottom(),
        [](const StateSpace&, StateIndex from, StateIndex to) {
            if (from == to) return false;
            if (to == 1 || to == 2) return true;
            return from == 3 && to == 0;
        });
    const MaskingSynthesis mk =
        add_masking(p, f, safety, Predicate::var_eq(*space, "v", 0));
    EXPECT_FALSE(mk.complete);
    EXPECT_FALSE(mk.unrecoverable.empty());
}

TEST(MaskingSynthesisTest, TmrSynthesisMatchesPaperConstruction) {
    // Section 6.1 re-derived mechanically: gate IR with its weakest
    // detection predicate (the DR step), then synthesize a corrector whose
    // correction target is the *goal* 'out = uncorrupted value' — the CR
    // step — with recovery restricted to safe writes of `out`. The result
    // passes the same masking check as the hand-built DR;IR || CR.
    auto sys = apps::make_tmr(2);
    const FailsafeSynthesis fs =
        add_failsafe(sys.intolerant, sys.spec.safety());

    NonmaskingOptions opts;
    opts.safety = &sys.spec.safety();
    opts.writable = {"out"};
    opts.span_from = sys.invariant;  // goal-correction: span from S_tmr
    const NonmaskingSynthesis nm = add_nonmasking(
        fs.program, sys.corrupt_one_input, sys.output_correct, opts);
    EXPECT_TRUE(nm.complete);

    const ToleranceReport synthesized = check_masking(
        nm.program, sys.corrupt_one_input, sys.spec, sys.invariant);
    EXPECT_TRUE(synthesized.ok()) << synthesized.reason();
    const ToleranceReport hand = check_masking(
        sys.masking, sys.corrupt_one_input, sys.spec, sys.invariant);
    EXPECT_TRUE(hand.ok()) << hand.reason();
}

TEST(MaskingSynthesisTest, MemoryAccessSynthesisBuildsEachGraphOnce) {
    // add_masking on the intolerant read passes the same masking check as
    // the hand-built pm. The synthesis query and its check ask for the
    // same graphs repeatedly; the exploration cache explores each distinct
    // graph once, so a repeated check explores nothing.
    const ScopedEnv cache_on("DCFT_NO_EXPLORE_CACHE", nullptr);
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    auto& reg = obs::Registry::global();
    const auto counter = [&reg](const char* path) {
        return reg.counter(path).value();
    };
    ExplorationCache::global().clear();
    const std::uint64_t explored0 = counter("verify/explorations");
    const std::uint64_t misses0 = counter("verify/explore_cache/misses");

    auto mem = apps::make_memory_access();
    const MaskingSynthesis mk = add_masking(mem.intolerant, mem.page_fault,
                                            mem.spec.safety(), mem.S);
    EXPECT_TRUE(mk.complete);
    EXPECT_TRUE(
        check_masking(mk.program, mem.page_fault, mem.spec, mem.S).ok());
    const std::uint64_t explored = counter("verify/explorations");
    EXPECT_EQ(explored - explored0,
              counter("verify/explore_cache/misses") - misses0);
    EXPECT_TRUE(
        check_masking(mk.program, mem.page_fault, mem.spec, mem.S).ok());
    EXPECT_EQ(counter("verify/explorations"), explored);
    obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace dcft
