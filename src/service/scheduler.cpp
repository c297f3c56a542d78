#include "service/scheduler.hpp"

#include <algorithm>
#include <exception>

#include "apps/catalog.hpp"
#include "obs/telemetry.hpp"
#include "verify/tolerance_checker.hpp"

namespace dcft::service {

QueryScheduler::QueryScheduler(unsigned n_workers) {
    if (n_workers == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        n_workers = std::min(4u, hw == 0 ? 1u : hw);
    }
    workers_.reserve(n_workers);
    for (unsigned i = 0; i < n_workers; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

QueryScheduler::~QueryScheduler() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        paused_ = false;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
}

QueryScheduler::Admission QueryScheduler::verify(const std::string& system,
                                                 int size, bool graded) {
    const std::string key = system + ":" + std::to_string(size) +
                            (graded ? ":graded" : "");
    admitted_.fetch_add(1, std::memory_order_relaxed);
    obs::count("service/scheduler/admitted");

    std::shared_ptr<Job> job;
    bool coalesced = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const auto it = inflight_.find(key); it != inflight_.end()) {
            job = it->second;
            coalesced = true;
        } else {
            job = std::make_shared<Job>();
            job->key = key;
            job->system = system;
            job->size = size;
            job->graded = graded;
            job->future = job->promise.get_future().share();
            inflight_.emplace(key, job);
            queue_.push_back(job);
        }
    }
    if (coalesced) {
        coalesced_.fetch_add(1, std::memory_order_relaxed);
        obs::count("service/scheduler/coalesced");
    } else {
        cv_.notify_one();
    }
    return Admission{job->future.get(), coalesced};
}

void QueryScheduler::worker_loop() {
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] {
                return (stop_ && queue_.empty()) ||
                       (!paused_ && !queue_.empty());
            });
            if (queue_.empty()) return;
            job = queue_.front();
            queue_.pop_front();
        }

        executed_.fetch_add(1, std::memory_order_relaxed);
        obs::count("service/scheduler/executed");
        std::shared_ptr<const VerifyResult> result;
        try {
            result = execute(job->system, job->size, job->graded);
        } catch (const std::exception& error) {
            auto failed = std::make_shared<VerifyResult>();
            failed->error = error.what();
            result = std::move(failed);
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            inflight_.erase(job->key);
        }
        job->promise.set_value(std::move(result));
    }
}

std::shared_ptr<const apps::SystemInstance> QueryScheduler::system_for(
    const std::string& system, int size) {
    const std::string key = system + ":" + std::to_string(size);
    {
        std::lock_guard<std::mutex> lock(systems_mutex_);
        if (const auto it = systems_.find(key); it != systems_.end())
            return it->second;
    }
    // Load outside the lock (reachable-invariant systems explore during
    // load); concurrent first loads of the same key are possible and
    // harmless — the first insert wins and the loser's copy is dropped.
    auto loaded = std::make_shared<const apps::SystemInstance>(
        apps::load_system(system, size));
    std::lock_guard<std::mutex> lock(systems_mutex_);
    return systems_.emplace(key, std::move(loaded)).first->second;
}

std::shared_ptr<const VerifyResult> QueryScheduler::execute(
    const std::string& system, int size, bool graded) {
    auto result = std::make_shared<VerifyResult>();
    result->system = system;
    result->size = size;
    result->graded = graded;
    std::shared_ptr<const apps::SystemInstance> sys;
    try {
        sys = system_for(system, size);
    } catch (const std::exception& error) {
        result->error = error.what();
        return result;
    }
    result->space_states = sys->space->num_states();
    for (const auto& [variant, program] : sys->variants) {
        std::vector<obs::ReportQuery> queries;
        queries.push_back(apps::tolerance_query(
            system, variant, "failsafe",
            check_failsafe(program, *sys->faults, sys->spec,
                           sys->invariant)));
        queries.push_back(apps::tolerance_query(
            system, variant, "nonmasking",
            check_nonmasking(program, *sys->faults, sys->spec,
                             sys->invariant)));
        queries.push_back(apps::tolerance_query(
            system, variant, "masking",
            check_masking(program, *sys->faults, sys->spec,
                          sys->invariant)));
        if (graded) {
            // One game + one estimate per variant; the blocks are shared
            // by the variant's three grade queries (they grade the same
            // program). The p [] F graph is already in the exploration
            // cache from the grid above, so the game adds no exploration.
            const apps::GradedBlocks blocks =
                apps::graded_blocks(*sys, program);
            for (obs::ReportQuery& q : queries) {
                q.masking_distance = blocks.masking_distance;
                q.monte_carlo = blocks.monte_carlo;
            }
        }
        for (obs::ReportQuery& q : queries)
            result->queries.push_back(std::move(q));
    }
    result->ok = true;
    return result;
}

QueryScheduler::Stats QueryScheduler::stats() const {
    Stats s;
    s.admitted = admitted_.load(std::memory_order_relaxed);
    s.executed = executed_.load(std::memory_order_relaxed);
    s.coalesced = coalesced_.load(std::memory_order_relaxed);
    return s;
}

void QueryScheduler::set_paused(bool paused) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = paused;
    }
    cv_.notify_all();
}

}  // namespace dcft::service
