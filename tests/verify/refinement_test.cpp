#include "verify/refinement.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "apps/token_ring.hpp"
#include "gc/composition.hpp"
#include "verify/reference.hpp"

namespace dcft {
namespace {

std::shared_ptr<const StateSpace> counter_space(Value n) {
    return make_space({Variable{"v", n, {}}});
}

Predicate at(const StateSpace& sp, Value v) {
    return Predicate::var_eq(sp, "v", v);
}

/// v < limit --> v := v+1.
Program incrementer(std::shared_ptr<const StateSpace> sp, Value limit) {
    Program p(sp, "inc");
    p.add_action(Action::assign(
        *sp, "inc",
        Predicate("v<lim",
                  [limit](const StateSpace& space, StateIndex s) {
                      return space.get(s, 0) < limit;
                  }),
        "v",
        [](const StateSpace& space, StateIndex s) {
            return space.get(s, 0) + 1;
        }));
    return p;
}

TEST(RefinesSpecTest, SafetyAndLivenessBothChecked) {
    auto sp = counter_space(5);
    const Program p = incrementer(sp, 3);
    LivenessSpec live;
    live.add_eventually(at(*sp, 3));
    const ProblemSpec good("good", SafetySpec::never(at(*sp, 4)),
                           std::move(live));
    // The `from` predicate must be closed in p (refinement is judged from
    // an invariant, Section 2.2.1) — v == 0 alone is not.
    const Predicate from("v<=3", [](const StateSpace& space, StateIndex s) {
        return space.get(s, 0) <= 3;
    });
    EXPECT_TRUE(refines_spec(p, good, from).ok);
    EXPECT_FALSE(refines_spec(p, good, at(*sp, 0)).ok);  // not closed
}

TEST(RefinesSpecTest, ClosureFailureReported) {
    auto sp = counter_space(5);
    const Program p = incrementer(sp, 3);
    // v==0 is not closed (inc leaves it immediately).
    const CheckResult r =
        refines_spec(p, ProblemSpec("s", SafetySpec(), {}), at(*sp, 0) ||
                                                               at(*sp, 1));
    EXPECT_FALSE(r.ok);
}

TEST(RefinesSpecTest, BadStateDetected) {
    auto sp = counter_space(5);
    const Program p = incrementer(sp, 3);
    const ProblemSpec spec("no-2", SafetySpec::never(at(*sp, 2)), {});
    const Predicate from("v<=3", [](const StateSpace& space, StateIndex s) {
        return space.get(s, 0) <= 3;
    });
    const CheckResult r = refines_spec(p, spec, from);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.reason.find("safety violated"), std::string::npos);
}

TEST(RefinesSpecTest, BadTransitionDetected) {
    auto sp = counter_space(5);
    const Program p = incrementer(sp, 3);
    const ProblemSpec spec(
        "no-1to2", SafetySpec::pair(at(*sp, 1), !at(*sp, 2)), {});
    const Predicate from("v<=3", [](const StateSpace& space, StateIndex s) {
        return space.get(s, 0) <= 3;
    });
    EXPECT_FALSE(refines_spec(p, spec, from).ok);
}

TEST(RefinesSpecTest, LivenessFailureDetected) {
    auto sp = counter_space(5);
    const Program p = incrementer(sp, 2);  // stops at 2
    LivenessSpec live;
    live.add_eventually(at(*sp, 3));
    const ProblemSpec spec("reach-3", SafetySpec(), std::move(live));
    EXPECT_FALSE(refines_spec(p, spec, at(*sp, 0)).ok);
}

TEST(RefinesSpecTest, FaultStepsMustSatisfySafetyToo) {
    auto sp = counter_space(5);
    const Program p = incrementer(sp, 2);
    FaultClass f(sp, "F");
    f.add_action(Action::assign_const(*sp, "corrupt", at(*sp, 1), "v", 4));
    const ProblemSpec spec(
        "never-jump-to-4", SafetySpec::pair(Predicate::top(), !at(*sp, 4)),
        {});
    const Predicate from("v<=2", [](const StateSpace& space, StateIndex s) {
        return space.get(s, 0) <= 2;
    });
    // Without faults the program satisfies the spec...
    EXPECT_TRUE(refines_spec(p, spec, from).ok);
    // ...but the fault's own transition violates it. Note `from` must also
    // be widened to stay closed under the fault.
    const Predicate span("v<=4", [](const StateSpace& space, StateIndex s) {
        return space.get(s, 0) <= 4;
    });
    const CheckResult r = refines_spec(p, spec, span, &f);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.reason.find("fault step"), std::string::npos);
}

TEST(RefinesProgramTest, IdenticalProgramRefines) {
    auto sp = counter_space(5);
    const Program p = incrementer(sp, 3);
    EXPECT_TRUE(refines_program(p, p, Predicate::top()).ok);
}

TEST(RefinesProgramTest, RestrictionRefines) {
    auto sp = counter_space(5);
    const Program p = incrementer(sp, 3);
    const Program gated = restrict_program(at(*sp, 1), p);
    EXPECT_TRUE(refines_program(gated, p, Predicate::top()).ok);
}

TEST(RefinesProgramTest, ExtraVariableStuttersAreAllowed) {
    auto sp = make_space({Variable{"v", 3, {}}, Variable{"aux", 2, {}}});
    Program base(sp, sp->varset({"v"}), "base");
    base.add_action(Action::assign_const(
        *sp, "go", Predicate::var_eq(*sp, "v", 0), "v", 1));
    Program extended(sp, "ext");
    extended.add_action(base.action(0));
    extended.add_action(Action::assign_const(
        *sp, "mark", Predicate::var_eq(*sp, "aux", 0), "aux", 1));
    EXPECT_TRUE(refines_program(extended, base, Predicate::top()).ok);
}

TEST(RefinesProgramTest, ForeignStepRejected) {
    auto sp = counter_space(5);
    const Program p = incrementer(sp, 3);
    Program rogue(sp, "rogue");
    rogue.add_action(Action::assign_const(*sp, "jump", at(*sp, 0), "v", 4));
    const CheckResult r = refines_program(rogue, p, Predicate::top());
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.reason.find("refinement violated"), std::string::npos);
}

TEST(ConvergesTest, ReachesTarget) {
    auto sp = counter_space(5);
    const Program p = incrementer(sp, 4);
    EXPECT_TRUE(converges(p, nullptr, Predicate::top(), at(*sp, 4)).ok);
}

TEST(ConvergesTest, FaultsCanBlockConvergence) {
    auto sp = counter_space(5);
    const Program p = incrementer(sp, 3);  // deadlocks at 3
    FaultClass f(sp, "F");
    f.add_action(Action::assign_const(*sp, "reset", at(*sp, 2), "v", 0));
    // Without faults, converges to 3 from anywhere <= 3.
    const Predicate from("v<=3", [](const StateSpace& space, StateIndex s) {
        return space.get(s, 0) <= 3;
    });
    EXPECT_TRUE(converges(p, nullptr, from, at(*sp, 3)).ok);
    // The reset fault only delays convergence finitely often — still ok.
    EXPECT_TRUE(converges(p, &f, from, at(*sp, 3)).ok);
    // But a fault that jumps past the guard creates a stuck state.
    FaultClass g(sp, "G");
    g.add_action(Action::assign_const(*sp, "overshoot", at(*sp, 2), "v", 4));
    EXPECT_FALSE(converges(p, &g, from, at(*sp, 3)).ok);
}

TEST(RefinesWeakenedTest, GradesDifferInStrictness) {
    auto sp = counter_space(6);
    // Program: from 0, diverge to a "bad" detour 4 -> 5 -> target 3?
    // Simpler: inc to 3; spec requires never 2 (violated on the way).
    const Program p = incrementer(sp, 3);
    LivenessSpec live;
    live.add_eventually(at(*sp, 3));
    SafetySpec safety = SafetySpec::never(at(*sp, 1));
    const ProblemSpec spec("demo", safety, live);
    const Predicate from("v<=3", [](const StateSpace& space, StateIndex s) {
        return space.get(s, 0) <= 3;
    });
    // Masking: full spec — fails (state 1 occurs).
    EXPECT_FALSE(refines_weakened(p, nullptr, spec, Tolerance::Masking, from,
                                  at(*sp, 3))
                     .ok);
    // Fail-safe: safety only — still fails on state 1.
    EXPECT_FALSE(refines_weakened(p, nullptr, spec, Tolerance::FailSafe,
                                  from, at(*sp, 3))
                     .ok);
    // Nonmasking via v==3: converges to 3, and from 3 the spec holds
    // (state 1 never recurs, liveness already satisfied).
    EXPECT_TRUE(refines_weakened(p, nullptr, spec, Tolerance::Nonmasking,
                                 from, at(*sp, 3))
                    .ok);
}

// -- closure on a recorded graph -------------------------------------------
//
// refines_spec_on checks closure of `from` on the recorded edges, and skips
// the edge sweep when `from` holds on every node. A spec that constrains
// nothing isolates that obligation; its reasons must be the interpreted
// oracle's (closure sweep, then fault preservation) whether `from` is the
// node set, a strict superset of it, or the node set less one node.

CheckResult closure_on(const TransitionSystem& ts, const FaultClass* f,
                       const Predicate& from) {
    return refines_spec_on(ts, f, ProblemSpec("any", SafetySpec(), {}),
                           from);
}

CheckResult ref_closure(const Program& p, const FaultClass* f,
                        const Predicate& from) {
    if (CheckResult r = reference::ref_check_closed(p, from); !r) return r;
    if (f != nullptr) return reference::ref_check_preserved(*f, from);
    return CheckResult::success();
}

/// The node set of ts, with `drop` (if any) removed and `add` (if any)
/// added, as a set-backed predicate.
Predicate node_set(const TransitionSystem& ts, std::string name,
                   std::optional<StateIndex> drop = std::nullopt,
                   std::optional<StateIndex> add = std::nullopt) {
    auto bits = std::make_shared<BitVec>(ts.state_bits());
    if (drop) bits->reset(*drop);
    if (add) bits->set(*add);
    return Predicate::from_bits(std::move(name), std::move(bits));
}

TEST(ClosureOnGraphTest, MatchesReferenceOnSmallSpan) {
    // inc: 0 -> 1 -> 2; the fault jumps 1 -> 4. From v==0 the span is
    // {0, 1, 2, 4}, discovered in ascending state order.
    auto sp = counter_space(6);
    const Program p = incrementer(sp, 2);
    FaultClass f(sp, "F");
    f.add_action(Action::assign_const(*sp, "corrupt", at(*sp, 1), "v", 4));
    const TransitionSystem ts(p, &f, at(*sp, 0));
    ASSERT_EQ(ts.num_nodes(), 4u);

    struct Case {
        Predicate from;
        bool ok;
    };
    const std::vector<Case> cases = {
        {node_set(ts, "span"), true},
        {node_set(ts, "span+5", std::nullopt, 5), true},
        {Predicate::top(), true},
        // Missing a root: nothing enters it, still closed.
        {node_set(ts, "span-0", 0), true},
        // Missing a program target: inc leaves the set at 1 -> 2.
        {node_set(ts, "span-2", 2), false},
        // Missing a fault target: only the fault step 1 -> 4 leaves it.
        {node_set(ts, "span-4", 4), false},
    };
    for (const Case& c : cases) {
        const CheckResult got = closure_on(ts, &f, c.from);
        const CheckResult want = ref_closure(p, &f, c.from);
        EXPECT_EQ(got.ok, c.ok) << c.from.name();
        EXPECT_EQ(want.ok, c.ok) << c.from.name();
        EXPECT_EQ(got.reason, want.reason) << c.from.name();
    }
}

TEST(ClosureOnGraphTest, MatchesReferenceOnTokenRing) {
    const auto sys = apps::make_token_ring(4, 4);

    // The fault span is the node set of its own graph: closed.
    const TransitionSystem span(sys.ring, &sys.corrupt_any, sys.legitimate);
    const Predicate t = node_set(span, "T");
    EXPECT_TRUE(closure_on(span, &sys.corrupt_any, t).ok);
    EXPECT_TRUE(ref_closure(sys.ring, &sys.corrupt_any, t).ok);

    // The program-only graph from S has node set S; T strictly contains
    // it and is closed in the program.
    const TransitionSystem prog(sys.ring, nullptr, sys.legitimate);
    ASSERT_LT(prog.num_nodes(), span.num_nodes());
    EXPECT_TRUE(closure_on(prog, nullptr, t).ok);
    EXPECT_TRUE(ref_closure(sys.ring, nullptr, t).ok);

    // Whole-space graph (node id == state index, so the sweep order is
    // the oracle's): drop the target of node 0's first program edge.
    const TransitionSystem all(sys.ring, &sys.corrupt_any, Predicate::top());
    ASSERT_FALSE(all.program_edges(0).empty());
    const StateIndex x = all.state_of(all.program_edges(0)[0].to);
    const Predicate missing = node_set(all, "all-but-one", x);
    const CheckResult got = closure_on(all, &sys.corrupt_any, missing);
    const CheckResult want =
        ref_closure(sys.ring, &sys.corrupt_any, missing);
    EXPECT_FALSE(got.ok);
    EXPECT_EQ(got.reason, want.reason);
}

}  // namespace
}  // namespace dcft
