// Self-stabilizing leader election on a rooted tree — the corrector
// hierarchy: an aggregation corrector feeding a broadcast corrector.
#include "apps/leader_election.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

#include "recovery.hpp"
#include "verify/component_checker.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"

namespace dcft {
namespace {

using apps::LeaderElectionSystem;
using apps::make_leader_election;

// A 4-node tree: 0 is the root, children 1 and 2; 3 under 1.
const std::vector<int> kTree{0, 0, 0, 1};

TEST(LeaderElectionTest, TrueLeaderIsMaxId) {
    auto sys = make_leader_election(kTree, {2, 0, 3, 1});
    EXPECT_EQ(sys.true_leader, 3);
    auto identity = make_leader_election(kTree);
    EXPECT_EQ(identity.true_leader, 3);
}

TEST(LeaderElectionTest, LegitimateStateIsTerminalAndCorrect) {
    auto sys = make_leader_election(kTree, {2, 0, 3, 1});
    const StateIndex s = sys.legitimate_state();
    EXPECT_TRUE(sys.legitimate.eval(*sys.space, s));
    EXPECT_TRUE(sys.program.is_terminal(s));
    // agg of node 1 covers subtree {1,3}: max(0,1) = 1.
    EXPECT_EQ(sys.space->get(s, sys.agg[1]), 1);
    // agg of the root covers everything.
    EXPECT_EQ(sys.space->get(s, sys.agg[0]), 3);
}

TEST(LeaderElectionTest, ConvergesFromAnyState) {
    auto sys = make_leader_election(kTree, {2, 0, 3, 1});
    EXPECT_TRUE(
        converges(sys.program, nullptr, Predicate::top(), sys.legitimate)
            .ok);
}

TEST(LeaderElectionTest, NonmaskingTolerantToStateCorruption) {
    auto sys = make_leader_election(kTree);
    const ToleranceReport r = check_nonmasking(
        sys.program, sys.corrupt_any, sys.spec, sys.legitimate);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST(LeaderElectionTest, AggregationCorrectorUnderliesBroadcast) {
    // The hierarchy: 'aggregation-correct corrects itself' from anywhere,
    // and given aggregation, 'leader-agreed' is corrected too.
    auto sys = make_leader_election(kTree, {2, 0, 3, 1});
    const CorrectorClaim agg_claim{sys.aggregation_correct,
                                   sys.aggregation_correct,
                                   Predicate::top()};
    EXPECT_TRUE(check_corrector(sys.program, agg_claim).ok);
    const CorrectorClaim ldr_claim{sys.legitimate, sys.legitimate,
                                   sys.aggregation_correct};
    EXPECT_TRUE(check_corrector(sys.program, ldr_claim).ok);
}

TEST(LeaderElectionTest, ChainTopology) {
    auto sys = make_leader_election({0, 0, 1}, {1, 2, 0});
    EXPECT_EQ(sys.true_leader, 2);
    EXPECT_TRUE(
        converges(sys.program, nullptr, Predicate::top(), sys.legitimate)
            .ok);
}

TEST(LeaderElectionTest, RecoveryGrowsWithTreeSize) {
    // From random corruption of every agg.i and ldr.i on heap-shaped trees,
    // the mean recovery time grows with the number of nodes.
    double previous = 0;
    for (int n : {3, 6, 9}) {
        std::vector<int> parent(static_cast<std::size_t>(n), 0);
        for (int i = 1; i < n; ++i)
            parent[static_cast<std::size_t>(i)] = (i - 1) / 2;
        auto sys = make_leader_election(parent);
        std::vector<VarId> vars = sys.agg;
        vars.insert(vars.end(), sys.ldr.begin(), sys.ldr.end());
        const double mean =
            mean_recovery_steps(sys.program, sys.legitimate, vars, 100, 43);
        EXPECT_GT(mean, previous) << "n=" << n;
        previous = mean;
    }
}

TEST(LeaderElectionTest, BadTreeRejected) {
    EXPECT_THROW(make_leader_election({0, 2, 1}), ContractError);
    EXPECT_THROW(make_leader_election({1, 0}), ContractError);
}

}  // namespace
}  // namespace dcft
