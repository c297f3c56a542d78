// Seeded workload inputs. The seed orders the fixed item lists and draws
// the open-loop arrival times; it never changes which catalog keys a
// workload uses, so the committed expected answers cover every seed.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.hpp"
#include "common/rng.hpp"

namespace perfbench {
namespace {

// Nominal seconds per pass: they size the fixed work from --seconds. They
// are constants, not measurements, so a faster program does the same work
// in less time. At the default 30 s they give 9 cold passes and 12
// restart passes of 13 items, so a run lasts about 30 s on the 4-core host
// the benchmark was tuned on (a cold pass took 2.3-4 s there, depending
// on the load of the shared host; a restart pass 2-2.5 s). With P passes
// the median is the middle of the 7th-fastest item's P samples and the
// tail (the 11th largest sample) lies inside token-ring 7's 2P samples.
constexpr double kColdPassS = 3.3;
constexpr double kRestartPassS = 2.5;
// Offered load of daemon-mix, well below the daemon's measured capacity.
constexpr double kDaemonRate = 20.0;  // requests per second

std::size_t passes_for(const Options& o, double pass_s) {
    if (o.tiny) return 1;
    return static_cast<std::size_t>(
        std::max(1.0, std::round(o.seconds / pass_s)));
}

template <typename T>
void shuffle(std::vector<T>& v, dcft::Rng& rng) {
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

// cold-verify / restart-verify. token-ring 7 carries the fault-span BFS
// blow-up (42M corrupt-any fault edges) and appears twice per pass, so its
// samples hold the tail; the mid-size items are the catalog's
// 0.03-0.3 s verdicts; the small ones catch a parallel cost model that
// slows little systems. Two small graded items run the
// `dcft verify --graded` path, so the Monte Carlo layer is measured here
// too, at a small share of the work. An odd item count keeps the median
// inside one item's samples.
std::vector<Item> verify_items(bool tiny) {
    if (tiny)
        return {{"byzantine", 4, false}, {"abp", 2, false},
                {"token-ring", 4, true}};
    return {{"token-ring", 7, false},   {"token-ring", 7, false},
            {"spanning-tree", 6, false}, {"election", 4, false},
            {"termination", 5, false},  {"byzantine", 5, false},
            {"token-ring", 6, false},   {"abp", 2, false},
            {"barrier", 4, false},      {"reset", 4, false},
            {"tmr", 2, false},          {"token-ring", 5, true},
            {"byzantine", 4, true}};
}

// Larger keys whose first (and only) arrivals come mid-run: their graphs
// are not in the daemon's cache, so each of these requests explores while
// the other connections keep being served.
std::vector<Arrival> late_arrivals(const Options& o) {
    if (o.tiny) return {{0.5 * o.seconds, {"token-ring", 5, false}}};
    return {{0.5 * o.seconds, {"spanning-tree", 6, false}}};
}

}  // namespace

std::vector<std::vector<Item>> verify_passes(const Options& o) {
    dcft::Rng rng(o.seed * 0x9E3779B97F4A7C15ULL + 1);
    const double pass_s =
        o.workload == "restart-verify" ? kRestartPassS : kColdPassS;
    std::vector<std::vector<Item>> out;
    for (std::size_t p = 0; p < passes_for(o, pass_s); ++p) {
        auto items = verify_items(o.tiny);
        shuffle(items, rng);
        out.push_back(std::move(items));
    }
    return out;
}

// daemon-mix keys in Zipf rank order: plain and graded requests over
// three small/mid systems. Their graphs plus the late key's are 8
// exploration-cache entries, the cache's default capacity, so after a
// key's first arrival every graph is served from the cache; with a larger
// key set the LRU evicts graphs in the middle of requests and the workload
// would measure re-exploration instead of cached verdict passes. The rank
// order puts the median inside the warm `token-ring 5` requests and the
// tail inside the graded `token-ring 6` ones (about 27 per 400 requests),
// not on the edge between two kinds of request.
std::vector<Item> daemon_pool(const Options& o) {
    if (o.tiny) return {{"token-ring", 4, false}, {"byzantine", 3, true}};
    return {{"reset", 4, false},      {"token-ring", 5, false},
            {"token-ring", 5, true},  {"reset", 4, true},
            {"token-ring", 6, false}, {"token-ring", 6, true}};
}

std::vector<Arrival> daemon_schedule(const Options& o) {
    dcft::Rng rng(o.seed * 0x9E3779B97F4A7C15ULL + 3);
    const std::vector<Item> pool = daemon_pool(o);
    const auto n = static_cast<std::size_t>(
        std::max(1.0, std::round(kDaemonRate * o.seconds)));

    // Zipf(1) shares turned into whole counts by largest remainder, so
    // every seed offers the same multiset of keys.
    double total_w = 0;
    for (std::size_t k = 0; k < pool.size(); ++k) total_w += 1.0 / (k + 1.0);
    std::vector<std::size_t> count(pool.size());
    std::vector<std::pair<double, std::size_t>> rem;
    std::size_t assigned = 0;
    for (std::size_t k = 0; k < pool.size(); ++k) {
        const double share = n * (1.0 / (k + 1.0)) / total_w;
        count[k] = static_cast<std::size_t>(share);
        assigned += count[k];
        rem.emplace_back(share - count[k], k);
    }
    std::stable_sort(rem.begin(), rem.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });
    for (std::size_t i = 0; assigned < n; ++i, ++assigned) ++count[rem[i].second];

    std::vector<Item> keys;
    for (std::size_t k = 0; k < pool.size(); ++k)
        keys.insert(keys.end(), count[k], pool[k]);
    shuffle(keys, rng);

    // Poisson arrivals conditioned on n of them in [0, seconds): sorted
    // uniform times.
    std::vector<double> due(n);
    for (double& d : due) d = rng.uniform01() * o.seconds;
    std::sort(due.begin(), due.end());

    std::vector<Arrival> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back({due[i], keys[i]});
    for (const Arrival& a : late_arrivals(o)) out.push_back(a);
    std::stable_sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
        return a.due_s < b.due_s;
    });
    return out;
}

std::string plan_shape(const Options& o) {
    std::map<std::string, std::size_t> multiset;
    auto tag = [](const Item& it) {
        return it.key() + (it.graded ? " --graded" : "");
    };
    std::ostringstream s;
    if (o.workload == "cold-verify" || o.workload == "restart-verify") {
        const auto passes = verify_passes(o);
        for (const auto& pass : passes)
            for (const Item& it : pass) ++multiset[tag(it)];
        s << "passes=" << passes.size();
    } else {
        const auto sched = daemon_schedule(o);
        for (const Arrival& a : sched) ++multiset[tag(a.item)];
        s << "arrivals=" << sched.size();
    }
    for (const auto& [k, c] : multiset) s << "; " << k << " x" << c;
    return s.str();
}

}  // namespace perfbench
