// Batched query admission for the dcftd daemon: a worker pool executing
// tolerance-verdict queries with concurrent same-key coalescing.
//
// Why this exists: identical queries arriving together (a dashboard
// refreshing, a CI matrix fanning out over the same system) must not run
// the verdict pipeline once per connection. The in-process
// ExplorationCache already dedups the *graphs*; the scheduler dedups the
// whole query: the first arrival of a (system, size) key enqueues a job,
// every concurrent arrival of the same key attaches to that job's shared
// future, and all of them receive the same immutable VerifyResult. The
// second identical query therefore costs one map lookup and a future
// wait, and — proven by tools/service_smoke — N concurrent identical
// queries trigger exactly one exploration per distinct graph key.
//
// Warm instances: loaded systems are cached per (system, size) key for
// the scheduler's lifetime. This is what makes the daemon's process
// actually warm — the ExplorationCache keys graphs by StateSpace
// identity, so re-loading a system on every execution would produce a
// fresh space and re-explore every graph; with the instance cache a
// repeat query re-runs the verdict grid against the *same* space and
// every graph comes from the exploration cache (zero new explorations,
// pinned by tools/service_smoke).
//
// Dispatch: a job is runnable as soon as it is enqueued. set_paused(true)
// holds dispatch entirely (the smoke test uses this to make coalescing
// deterministic).
//
// Stats are exposed twice: always via stats() (the daemon's "stats" op
// must work without telemetry), and as service/scheduler/* counters when
// telemetry is enabled.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/run_report.hpp"

namespace dcft::apps {
struct SystemInstance;
}

namespace dcft::service {

/// Immutable outcome of one verify query, shared by every coalesced
/// caller.
struct VerifyResult {
    std::string system;
    int size = 0;
    bool graded = false;  ///< queries carry masking_distance/monte_carlo
    /// Whether the system loaded and the checks ran ("no" verdicts still
    /// count as ok — per-query verdicts live in `queries`).
    bool ok = false;
    std::string error;  ///< non-empty exactly when !ok
    std::uint64_t space_states = 0;
    std::vector<obs::ReportQuery> queries;
};

class QueryScheduler {
public:
    struct Stats {
        std::uint64_t admitted = 0;   ///< verify() calls
        std::uint64_t executed = 0;   ///< jobs actually run
        std::uint64_t coalesced = 0;  ///< calls served by another's job
    };

    /// Spawns `n_workers` executor threads (0 = min(4, hardware)).
    explicit QueryScheduler(unsigned n_workers = 0);
    /// Drains the queue (pending jobs complete) and joins the workers.
    ~QueryScheduler();

    struct Admission {
        std::shared_ptr<const VerifyResult> result;
        bool coalesced = false;  ///< shared a concurrent caller's execution
    };

    /// Blocks until the verdict grid of (system, size) is available.
    /// Concurrent callers with the same key share one execution. Graded
    /// and plain queries of the same system coalesce separately (the key
    /// includes the graded bit) — a graded result is a strict superset,
    /// but handing it to a plain caller would change that caller's
    /// response schema.
    Admission verify(const std::string& system, int size,
                     bool graded = false);

    Stats stats() const;

    /// Holds (true) / releases (false) job dispatch. While paused,
    /// verify() still admits and coalesces — nothing executes.
    void set_paused(bool paused);

private:
    struct Job {
        std::string key;     ///< coalescing identity (system:size[:graded])
        std::string system;  ///< parsed request fields, carried directly so
        int size = 0;        ///< workers never re-parse the key string
        bool graded = false;
        std::shared_future<std::shared_ptr<const VerifyResult>> future;
        std::promise<std::shared_ptr<const VerifyResult>> promise;
    };

    void worker_loop();
    std::shared_ptr<const VerifyResult> execute(const std::string& system,
                                                int size, bool graded);
    /// The cached instance of (system, size), loaded on first use. Keeps
    /// the StateSpace identity stable across executions so repeat queries
    /// hit the exploration cache instead of re-exploring.
    std::shared_ptr<const apps::SystemInstance> system_for(
        const std::string& system, int size);

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::shared_ptr<Job>> queue_;
    /// Every queued or running job, for same-key attachment. Entries are
    /// erased when their job completes.
    std::map<std::string, std::shared_ptr<Job>> inflight_;
    std::vector<std::thread> workers_;
    /// Warm (system, size) -> instance cache; bounded by the catalog and
    /// the distinct sizes actually queried (instances are small — graphs
    /// live in the ExplorationCache, which has its own budgets).
    mutable std::mutex systems_mutex_;
    std::map<std::string, std::shared_ptr<const apps::SystemInstance>>
        systems_;
    bool stop_ = false;
    bool paused_ = false;
    std::atomic<std::uint64_t> admitted_{0};
    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> coalesced_{0};
};

}  // namespace dcft::service
