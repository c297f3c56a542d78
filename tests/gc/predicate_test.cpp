#include "gc/predicate.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "obs/telemetry.hpp"

namespace dcft {
namespace {

std::shared_ptr<const StateSpace> space2x3() {
    return make_space({Variable{"a", 2, {}}, Variable{"b", 3, {}}});
}

TEST(PredicateTest, TopAndBottom) {
    auto sp = space2x3();
    for (StateIndex s = 0; s < sp->num_states(); ++s) {
        EXPECT_TRUE(Predicate::top().eval(*sp, s));
        EXPECT_FALSE(Predicate::bottom().eval(*sp, s));
    }
    EXPECT_EQ(Predicate::top().name(), "true");
    EXPECT_EQ(Predicate::bottom().name(), "false");
}

TEST(PredicateTest, DefaultConstructedIsTop) {
    auto sp = space2x3();
    Predicate p;
    EXPECT_TRUE(p.eval(*sp, 0));
}

TEST(PredicateTest, VarEq) {
    auto sp = space2x3();
    const Predicate p = Predicate::var_eq(*sp, "b", 2);
    for (StateIndex s = 0; s < sp->num_states(); ++s)
        EXPECT_EQ(p.eval(*sp, s), sp->get(s, 1) == 2);
}

TEST(PredicateTest, VarEqOutOfDomainThrows) {
    auto sp = space2x3();
    EXPECT_THROW(Predicate::var_eq(*sp, "b", 3), ContractError);
    EXPECT_THROW(Predicate::var_eq(*sp, "nope", 0), ContractError);
}

TEST(PredicateTest, BooleanAlgebraIsPointwise) {
    auto sp = space2x3();
    const Predicate a = Predicate::var_eq(*sp, "a", 1);
    const Predicate b = Predicate::var_eq(*sp, "b", 0);
    for (StateIndex s = 0; s < sp->num_states(); ++s) {
        const bool av = a.eval(*sp, s), bv = b.eval(*sp, s);
        EXPECT_EQ((a && b).eval(*sp, s), av && bv);
        EXPECT_EQ((a || b).eval(*sp, s), av || bv);
        EXPECT_EQ((!a).eval(*sp, s), !av);
        EXPECT_EQ(implies(a, b).eval(*sp, s), !av || bv);
    }
}

TEST(PredicateTest, DeMorgan) {
    auto sp = space2x3();
    const Predicate a = Predicate::var_eq(*sp, "a", 0);
    const Predicate b = Predicate::var_eq(*sp, "b", 1);
    EXPECT_TRUE(equivalent(*sp, !(a && b), (!a) || (!b)));
    EXPECT_TRUE(equivalent(*sp, !(a || b), (!a) && (!b)));
}

TEST(PredicateTest, ImpliesEverywhere) {
    auto sp = space2x3();
    const Predicate narrow =
        Predicate::var_eq(*sp, "a", 1) && Predicate::var_eq(*sp, "b", 1);
    const Predicate wide = Predicate::var_eq(*sp, "a", 1);
    EXPECT_TRUE(implies_everywhere(*sp, narrow, wide));
    EXPECT_FALSE(implies_everywhere(*sp, wide, narrow));
    EXPECT_TRUE(implies_everywhere(*sp, Predicate::bottom(), narrow));
    EXPECT_TRUE(implies_everywhere(*sp, narrow, Predicate::top()));
}

TEST(PredicateTest, CountSatisfying) {
    auto sp = space2x3();
    EXPECT_EQ(count_satisfying(*sp, Predicate::top()), 6u);
    EXPECT_EQ(count_satisfying(*sp, Predicate::bottom()), 0u);
    EXPECT_EQ(count_satisfying(*sp, Predicate::var_eq(*sp, "a", 0)), 3u);
    EXPECT_EQ(count_satisfying(*sp, Predicate::var_ne(*sp, "b", 1)), 4u);
}

TEST(PredicateTest, NamesComposeReadably) {
    auto sp = space2x3();
    const Predicate a = Predicate::var_eq(*sp, "a", 0);
    EXPECT_EQ(a.name(), "a==0");
    EXPECT_EQ((!a).name(), "!a==0");
    EXPECT_EQ((a && a).name(), "(a==0 && a==0)");
    EXPECT_EQ(a.renamed("fresh").name(), "fresh");
}

TEST(PredicateTest, RenamedPreservesSemantics) {
    auto sp = space2x3();
    const Predicate a = Predicate::var_eq(*sp, "a", 0);
    EXPECT_TRUE(equivalent(*sp, a, a.renamed("other")));
}

TEST(PredicateTest, NullFunctionRejected) {
    EXPECT_THROW(Predicate("bad", nullptr), ContractError);
}

/// An opaque predicate (b == 2) that counts its evaluations.
Predicate counting_pred(std::shared_ptr<std::atomic<std::uint64_t>> calls) {
    return Predicate("counting",
                     [calls](const StateSpace& space, StateIndex s) {
                         calls->fetch_add(1, std::memory_order_relaxed);
                         return space.get(s, space.num_vars() - 1) == 2;
                     });
}

TEST(PredicateMemoTest, EachSpaceIsScannedOnce) {
    obs::set_enabled(true);
    obs::Registry::global().reset();
    auto sp = space2x3();
    const StateIndex n = sp->num_states();
    auto calls = std::make_shared<std::atomic<std::uint64_t>>(0);
    const Predicate p = counting_pred(calls);

    const BitVec first = eval_bits(*sp, p);
    const Predicate copy = p;  // copies share the memo
    const BitVec second = eval_bits(*sp, copy, /*n_threads=*/4);
    EXPECT_EQ(calls->load(), n);
    EXPECT_EQ(first, second);
    for (StateIndex s = 0; s < n; ++s)
        EXPECT_EQ(first.test(s), sp->get(s, 1) == 2);
    EXPECT_EQ(obs::Registry::global()
                  .counter("verify/predicate_eval/memo_hits")
                  .value(),
              1u);
    EXPECT_EQ(obs::Registry::global()
                  .counter("verify/predicate_eval/bulk_scans")
                  .value(),
              1u);
    obs::set_enabled(false);

    // eval itself never consults the memo.
    EXPECT_TRUE(p.eval(*sp, 5));
    EXPECT_EQ(calls->load(), n + 1);

    // A second space of the same shape is a different space: rescanned.
    auto other = space2x3();
    EXPECT_EQ(eval_bits(*other, p), first);
    EXPECT_EQ(calls->load(), 2 * n + 1);

    // A renamed copy carries a fresh implementation: rescanned.
    EXPECT_EQ(eval_bits(*sp, p.renamed("fresh")), first);
    EXPECT_EQ(calls->load(), 3 * n + 1);
}

TEST(PredicateMemoTest, ConcurrentFirstCallsRunOneScan) {
    auto sp = make_space({Variable{"a", 8, {}}, Variable{"b", 8, {}},
                          Variable{"c", 8, {}}, Variable{"d", 8, {}}});
    auto calls = std::make_shared<std::atomic<std::uint64_t>>(0);
    const Predicate p = counting_pred(calls);

    constexpr int kCallers = 8;
    std::vector<BitVec> results(kCallers);
    std::barrier start(kCallers);
    std::vector<std::thread> callers;
    for (int i = 0; i < kCallers; ++i) {
        callers.emplace_back([&, i] {
            start.arrive_and_wait();
            results[i] = eval_bits(*sp, p, /*n_threads=*/2);
        });
    }
    for (auto& t : callers) t.join();
    EXPECT_EQ(calls->load(), sp->num_states());
    for (int i = 0; i < kCallers; ++i) {
        EXPECT_EQ(results[i], results[0]) << "caller " << i;
        EXPECT_EQ(results[i].popcount(), sp->num_states() / 8);
    }
}

}  // namespace
}  // namespace dcft
