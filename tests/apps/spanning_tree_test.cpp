// Self-stabilizing BFS tree maintenance — a corrector hierarchy instance
// from the paper's application list (Sections 1, 7).
#include "apps/spanning_tree.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

#include "recovery.hpp"
#include "verify/component_checker.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"

namespace dcft {
namespace {

using apps::cycle_graph;
using apps::make_spanning_tree;
using apps::path_graph;
using apps::star_graph;

TEST(SpanningTreeTest, GraphConstructors) {
    const auto path = path_graph(4);
    EXPECT_EQ(path[0].size(), 1u);
    EXPECT_EQ(path[1].size(), 2u);
    const auto cycle = cycle_graph(4);
    EXPECT_EQ(cycle[0].size(), 2u);
    const auto star = star_graph(5);
    EXPECT_EQ(star[0].size(), 4u);
    EXPECT_EQ(star[3].size(), 1u);
}

TEST(SpanningTreeTest, LegitimateStateHasTrueDistances) {
    auto sys = make_spanning_tree(path_graph(4));
    EXPECT_EQ(sys.true_distances, (std::vector<Value>{0, 1, 2, 3}));
    EXPECT_TRUE(sys.legitimate.eval(*sys.space, sys.legitimate_state()));
    EXPECT_TRUE(sys.program.is_terminal(sys.legitimate_state()));
}

TEST(SpanningTreeTest, ConvergesFromAnyStateOnPaths) {
    auto sys = make_spanning_tree(path_graph(4));
    EXPECT_TRUE(
        converges(sys.program, nullptr, Predicate::top(), sys.legitimate)
            .ok);
}

TEST(SpanningTreeTest, ConvergesOnCyclesAndStars) {
    for (auto graph : {cycle_graph(4), star_graph(5), path_graph(5),
                       cycle_graph(5), star_graph(6)}) {
        auto sys = make_spanning_tree(graph);
        EXPECT_TRUE(converges(sys.program, nullptr, Predicate::top(),
                              sys.legitimate)
                        .ok);
    }
}

TEST(SpanningTreeTest, NonmaskingTolerantToDistanceCorruption) {
    auto sys = make_spanning_tree(path_graph(4));
    const ToleranceReport r = check_nonmasking(
        sys.program, sys.corrupt_any, sys.spec, sys.legitimate);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST(SpanningTreeTest, ProgramIsACorrectorOfItsLegitimacy) {
    auto sys = make_spanning_tree(path_graph(4));
    const CorrectorClaim claim{sys.legitimate, sys.legitimate,
                               Predicate::top()};
    EXPECT_TRUE(check_corrector(sys.program, claim).ok);
}

TEST(SpanningTreeTest, LocalConsistencyIsTheDetectionPredicate) {
    // The conjunction of the per-node local-consistency predicates is
    // exactly legitimacy — the hierarchical-detector decomposition.
    auto sys = make_spanning_tree(path_graph(4));
    Predicate all_consistent = sys.locally_consistent(0);
    for (int i = 1; i < 4; ++i)
        all_consistent = all_consistent && sys.locally_consistent(i);
    EXPECT_TRUE(equivalent(*sys.space, all_consistent, sys.legitimate));
}

TEST(SpanningTreeTest, NotMaskingUnderCorruption) {
    // Corruption immediately falsifies cl(legitimate) on the fault step.
    auto sys = make_spanning_tree(path_graph(3));
    EXPECT_FALSE(check_masking(sys.program, sys.corrupt_any, sys.spec,
                               sys.legitimate)
                     .ok());
}

TEST(SpanningTreeTest, RecoveryGrowsWithDiameter) {
    // From random distance corruption, a path (diameter n-1) takes longer
    // to recover than a star (diameter 2) on as many nodes.
    for (int n : {9, 15}) {
        auto path = make_spanning_tree(path_graph(n));
        auto star = make_spanning_tree(star_graph(n));
        EXPECT_GT(
            mean_recovery_steps(path.program, path.legitimate, path.dist,
                                50, 23),
            mean_recovery_steps(star.program, star.legitimate, star.dist,
                                50, 23))
            << "n=" << n;
    }
}

TEST(SpanningTreeTest, DisconnectedGraphRejected) {
    apps::Graph g(3);  // no edges at all
    EXPECT_THROW(make_spanning_tree(g), ContractError);
}

}  // namespace
}  // namespace dcft
