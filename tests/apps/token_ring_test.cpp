// Dijkstra's K-state token ring: the paper's PVS case study (Section 7)
// and the canonical corrector (Remark, Section 4.1).
#include "apps/token_ring.hpp"

#include <gtest/gtest.h>

#include "recovery.hpp"
#include "verify/component_checker.hpp"
#include "verify/fairness.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"

namespace dcft {
namespace {

using apps::make_token_ring;
using apps::TokenRingSystem;

TEST(TokenRingTest, LegitimateStatesHaveExactlyOnePrivilege) {
    auto sys = make_token_ring(4, 4);
    EXPECT_TRUE(sys.legitimate.eval(*sys.space, sys.initial_state()));
    // All-equal states: only the bottom process is privileged.
    StateIndex bad = sys.initial_state();
    bad = sys.space->set(bad, sys.x[1], 2);
    bad = sys.space->set(bad, sys.x[3], 1);
    EXPECT_FALSE(sys.legitimate.eval(*sys.space, bad));
}

TEST(TokenRingTest, RefinesMutualExclusionFromLegitimateStates) {
    auto sys = make_token_ring(4, 4);
    EXPECT_TRUE(refines_spec(sys.ring, sys.spec, sys.legitimate).ok);
}

TEST(TokenRingTest, RingIsItsOwnCorrector) {
    // 'S corrects S' in the ring from true — the Arora-Gouda
    // closure-and-convergence shape (Z = X = legitimate).
    auto sys = make_token_ring(4, 4);
    const CorrectorClaim claim{sys.legitimate, sys.legitimate,
                               Predicate::top()};
    EXPECT_TRUE(check_corrector(sys.ring, claim).ok);
}

TEST(TokenRingTest, StabilizesExactlyWhenKAtLeastNMinusOne) {
    // The sharpened Dijkstra bound: for n >= 3 the unidirectional K-state
    // ring stabilizes iff K >= n-1. Below it the checker finds a fair
    // execution that never reaches a legitimate state.
    for (int n = 3; n <= 6; ++n) {
        for (Value k = 2; k <= 7; ++k) {
            auto sys = make_token_ring(n, k);
            EXPECT_EQ(converges(sys.ring, nullptr, Predicate::top(),
                                sys.legitimate)
                          .ok,
                      k >= n - 1)
                << "n=" << n << " K=" << k;
        }
    }
}

TEST(TokenRingTest, StabilizationTimeGrowsSuperlinearly) {
    // From uniformly random states (K = n), the mean steps to a legitimate
    // state grow faster than the ring: 3x the processes, over 3x the time.
    auto small = make_token_ring(5, 5);
    auto large = make_token_ring(15, 15);
    const double small_mean =
        mean_recovery_steps(small.ring, small.legitimate, small.x, 100, 17);
    const double large_mean =
        mean_recovery_steps(large.ring, large.legitimate, large.x, 100, 17);
    EXPECT_GT(large_mean, 3.0 * small_mean);
}

TEST(TokenRingTest, NonmaskingTolerantToCounterCorruption) {
    auto sys = make_token_ring(4, 4);
    const ToleranceReport r = check_nonmasking(
        sys.ring, sys.corrupt_any, sys.spec, sys.legitimate);
    EXPECT_TRUE(r.ok()) << r.reason();
    // The span is the whole space: faults corrupt counters arbitrarily.
    EXPECT_EQ(r.span_size, sys.space->num_states());
}

TEST(TokenRingTest, NotMaskingTolerant) {
    // During stabilization several processes can be privileged at once —
    // the safety of SPEC_token is violated, so tolerance is only
    // nonmasking. (This is the paper's point about nonmasking tolerance.)
    auto sys = make_token_ring(4, 4);
    EXPECT_FALSE(
        check_masking(sys.ring, sys.corrupt_any, sys.spec, sys.legitimate)
            .ok());
    EXPECT_FALSE(
        check_failsafe(sys.ring, sys.corrupt_any, sys.spec, sys.legitimate)
            .ok());
}

TEST(TokenRingTest, TokenCirculatesFairly) {
    auto sys = make_token_ring(4, 4);
    // From legitimate states, each process is privileged again and again:
    // privilege.i ~~> privilege.((i+1) mod n).
    const TransitionSystem ts(sys.ring, nullptr, sys.legitimate);
    for (int i = 0; i < sys.n; ++i) {
        EXPECT_TRUE(check_leads_to(ts, sys.privilege(i),
                                   sys.privilege((i + 1) % sys.n), false)
                        .ok)
            << i;
    }
}

TEST(TokenRingTest, PrivilegePredicatesPartitionLegitimateStates) {
    auto sys = make_token_ring(4, 5);
    for (StateIndex s = 0; s < sys.space->num_states(); ++s) {
        if (!sys.legitimate.eval(*sys.space, s)) continue;
        int count = 0;
        for (int i = 0; i < sys.n; ++i)
            if (sys.privilege(i).eval(*sys.space, s)) ++count;
        EXPECT_EQ(count, 1);
    }
}

TEST(TokenRingTest, TwoProcessRing) {
    auto sys = make_token_ring(2, 3);
    EXPECT_TRUE(
        converges(sys.ring, nullptr, Predicate::top(), sys.legitimate).ok);
}

}  // namespace
}  // namespace dcft
