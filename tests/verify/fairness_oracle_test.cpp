// An independent brute-force oracle for the fair-avoidance engine.
//
// fairness.cpp decides "does a fair computation avoiding the target
// exist?" by SCC analysis with action-starvation pruning. On tiny systems
// we can decide the same question by definition: enumerate EVERY subset
// of target-free nodes, test whether it could be the infinity-set of a
// fair run (strongly connected; every action enabled at all its states
// has an internal edge), and take the backward closure. The two answers
// must agree exactly, on every randomly generated system, and the leads-to
// verdicts built on them must match the reference engine's reasons.
#include <gtest/gtest.h>

#include <deque>

#include "common/rng.hpp"
#include "verify/fairness.hpp"
#include "verify/reference.hpp"

namespace dcft {
namespace {

constexpr Value kStates = 9;  // 2^9 subsets to enumerate — cheap

struct System {
    std::shared_ptr<const StateSpace> space;
    Program program;
    std::vector<char> target;  // over raw state indices == node ids
};

/// Random single-variable system; every state is in the transition system
/// (init = true), so NodeId == StateIndex.
System random_system(std::uint64_t seed) {
    Rng rng(seed);
    auto space = make_space({Variable{"v", kStates, {}}});
    Program p(space, "random");
    const std::size_t num_actions = 1 + rng.below(4);
    for (std::size_t a = 0; a < num_actions; ++a) {
        // Random guard set and a random (possibly nondeterministic) move.
        auto guard_set = std::make_shared<std::vector<char>>(kStates);
        for (auto& g : *guard_set) g = rng.chance(0.5) ? 1 : 0;
        const Value t1 = static_cast<Value>(rng.below(kStates));
        const Value t2 = static_cast<Value>(rng.below(kStates));
        const bool relative = rng.chance(0.5);
        p.add_action(Action::nondet(
            "ac" + std::to_string(a),
            Predicate("g",
                      [guard_set](const StateSpace&, StateIndex s) {
                          return (*guard_set)[s] != 0;
                      }),
            [t1, t2, relative](const StateSpace& sp, StateIndex s,
                               std::vector<StateIndex>& out) {
                if (relative)  // shift by one (a cycle-maker)
                    out.push_back(
                        sp.set(s, 0, (sp.get(s, 0) + 1) % kStates));
                else
                    out.push_back(sp.set(s, 0, t1));
                if (t2 != t1) out.push_back(sp.set(s, 0, t2));
            }));
    }
    std::vector<char> target(kStates);
    for (auto& t : target) t = rng.chance(0.3) ? 1 : 0;
    return System{space, std::move(p), std::move(target)};
}

/// Brute-force avoidance set, straight from the definition.
std::vector<char> oracle(const TransitionSystem& ts,
                         const std::vector<char>& target) {
    const std::size_t n = ts.num_nodes();
    std::vector<char> avoid(n, 0);

    // Finite maximal runs: terminal target-free nodes.
    for (NodeId v = 0; v < n; ++v)
        if (!target[v] && ts.terminal(v)) avoid[v] = 1;

    // Infinite runs: every candidate infinity-set.
    for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
        // Members must all be target-free.
        bool ok = true;
        std::vector<NodeId> members;
        for (NodeId v = 0; v < n; ++v) {
            if (!(mask & (1u << v))) continue;
            if (target[v]) {
                ok = false;
                break;
            }
            members.push_back(v);
        }
        if (!ok) continue;
        // Internal edges per node; the set must have at least one edge.
        auto internal = [&](NodeId from, NodeId to) {
            for (const auto& e : ts.program_edges(from))
                if (e.to == to && (mask & (1u << to))) return true;
            return false;
        };
        // Strong connectivity inside the set (trivially true for size 1
        // with a self-loop; size 1 without self-loop cannot host a run).
        if (members.size() == 1) {
            if (!internal(members[0], members[0])) continue;
        } else {
            bool connected = true;
            for (NodeId src : members) {
                std::vector<char> seen(n, 0);
                std::deque<NodeId> queue{src};
                seen[src] = 1;
                while (!queue.empty()) {
                    const NodeId u = queue.front();
                    queue.pop_front();
                    for (const auto& e : ts.program_edges(u)) {
                        if ((mask & (1u << e.to)) && !seen[e.to]) {
                            seen[e.to] = 1;
                            queue.push_back(e.to);
                        }
                    }
                }
                for (NodeId dst : members)
                    if (!seen[dst]) connected = false;
            }
            if (!connected) continue;
        }
        // Weak fairness: every action enabled at ALL member states must
        // have an edge staying inside the set.
        bool fair = true;
        for (std::uint32_t a = 0;
             a < ts.num_program_actions() && fair; ++a) {
            bool enabled_everywhere = true;
            for (NodeId v : members)
                if (!ts.enabled(v, a)) enabled_everywhere = false;
            if (!enabled_everywhere) continue;
            bool has_internal = false;
            for (NodeId v : members)
                for (const auto& e : ts.program_edges(v))
                    if (e.action == a && (mask & (1u << e.to)))
                        has_internal = true;
            if (!has_internal) fair = false;
        }
        if (!fair) continue;
        for (NodeId v : members) avoid[v] = 1;
    }

    // Backward closure within the target-free region.
    bool changed = true;
    while (changed) {
        changed = false;
        for (NodeId v = 0; v < n; ++v) {
            if (target[v] || avoid[v]) continue;
            for (const auto& e : ts.program_edges(v)) {
                if (!target[e.to] && avoid[e.to]) {
                    avoid[v] = 1;
                    changed = true;
                    break;
                }
            }
        }
    }
    return avoid;
}

class FairnessOracleTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FairnessOracleTest, SccEngineMatchesBruteForce) {
    const System sys = random_system(GetParam());
    const TransitionSystem ts(sys.program, nullptr, Predicate::top());
    ASSERT_EQ(ts.num_nodes(), static_cast<std::size_t>(kStates));
    // NodeId ordering equals state order because every state is initial.
    std::vector<char> target(kStates);
    for (NodeId v = 0; v < ts.num_nodes(); ++v)
        target[v] = sys.target[ts.state_of(v)];

    const auto fast = fair_avoidance_set(ts, target);
    const auto slow = oracle(ts, target);
    for (NodeId v = 0; v < ts.num_nodes(); ++v)
        EXPECT_EQ(static_cast<bool>(fast[v]), static_cast<bool>(slow[v]))
            << "node " << v << " state "
            << ts.space().format(ts.state_of(v));

    const auto target_set = std::make_shared<BitVec>(kStates);
    for (StateIndex s = 0; s < static_cast<StateIndex>(kStates); ++s)
        if (sys.target[s]) target_set->set(s);
    const Predicate q = Predicate::from_bits("target", target_set);
    const reference::RefTransitionSystem ref(sys.program, nullptr,
                                             Predicate::top());
    const CheckResult got = check_reaches(ts, q, false);
    const CheckResult want = reference::ref_check_reaches(ref, q, false);
    EXPECT_EQ(got.ok, want.ok);
    EXPECT_EQ(got.reason, want.reason);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FairnessOracleTest,
                         ::testing::Range<std::uint64_t>(1, 41));

// Hand-built cyclic components: a singleton with a self-loop and a
// two-node cycle, each once feasible (the exit is not continuously
// enabled, or absent) and once infeasible (an exit enabled at every member
// state forces the run out). Only cyclic components enter the feasibility
// test, so these pin both of its outcomes for both kinds of cycle.
struct CycleCase {
    const char* name;
    bool two_node;     ///< 0 <-> 1 cycle; otherwise a self-loop at 0
    bool exit_always;  ///< exit to 2 enabled at every cycle state
};

void PrintTo(const CycleCase& c, std::ostream* os) { *os << c.name; }

class CyclicSccTest : public ::testing::TestWithParam<CycleCase> {};

TEST_P(CyclicSccTest, MatchesBruteForceAndReference) {
    const CycleCase& c = GetParam();
    auto space = make_space({Variable{"v", 3, {}}});
    const StateSpace& sp = *space;
    const Predicate at0 = Predicate::var_eq(sp, "v", 0);
    const Predicate on_cycle("v<2", [](const StateSpace& s, StateIndex i) {
        return s.get(i, 0) < 2;
    });
    Program p(space, c.name);
    if (c.two_node) {
        p.add_action(Action::assign(
            sp, "toggle", on_cycle, "v",
            [](const StateSpace& s, StateIndex i) { return 1 - s.get(i, 0); }));
    } else {
        p.add_action(Action::skip("spin", at0));
    }
    // The exit to v==2 is enabled at every cycle state, or else only at a
    // state the run can keep leaving (v==0 of the two-node cycle) or never
    // visits (v==1 next to the self-loop).
    const Predicate exit_guard =
        c.exit_always ? (c.two_node ? on_cycle : at0)
                      : (c.two_node ? at0 : Predicate::var_eq(sp, "v", 1));
    p.add_action(Action::assign_const(sp, "exit", exit_guard, "v", 2));
    const Predicate q = Predicate::var_eq(sp, "v", 2);
    const TransitionSystem ts(p, nullptr, at0);
    const std::vector<char> target = eval_on_nodes(ts, q);
    const auto fast = fair_avoidance_set(ts, target);
    const auto slow = oracle(ts, target);
    for (NodeId v = 0; v < ts.num_nodes(); ++v)
        EXPECT_EQ(static_cast<bool>(fast[v]), static_cast<bool>(slow[v]))
            << c.name << " node " << v;

    const CheckResult got = check_reaches(ts, q, false);
    const reference::RefTransitionSystem ref(p, nullptr, at0);
    const CheckResult want = reference::ref_check_reaches(ref, q, false);
    EXPECT_EQ(got.ok, c.exit_always) << c.name;
    EXPECT_EQ(got.ok, want.ok) << c.name;
    EXPECT_EQ(got.reason, want.reason) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cycles, CyclicSccTest,
    ::testing::Values(CycleCase{"self_loop_feasible", false, false},
                      CycleCase{"self_loop_infeasible", false, true},
                      CycleCase{"two_node_feasible", true, false},
                      CycleCase{"two_node_infeasible", true, true}),
    [](const ::testing::TestParamInfo<CycleCase>& info) {
        return std::string(info.param.name);
    });

}  // namespace
}  // namespace dcft
