#include "obs/telemetry.hpp"

#include <chrono>

#include "common/env.hpp"
#include "obs/trace.hpp"

namespace dcft::obs {
namespace {

constexpr unsigned kUnresolved = ~0u;

/// Both sink gates in one word, so a disabled span is one relaxed load.
std::atomic<unsigned>& gates() {
    static std::atomic<unsigned> word{kUnresolved};
    return word;
}

void set_sink(unsigned sink, bool on) {
    active_sinks();  // resolve the other gate from the environment first
    if (on)
        gates().fetch_or(sink, std::memory_order_relaxed);
    else
        gates().fetch_and(~sink, std::memory_order_relaxed);
}

}  // namespace

unsigned active_sinks() {
    unsigned g = gates().load(std::memory_order_relaxed);
    if (g == kUnresolved) {
        unsigned from_env = 0;
        if (env_flag_enabled("DCFT_TELEMETRY")) from_env |= kAggregateSink;
        if (env_flag_enabled("DCFT_TRACE")) from_env |= kEventSink;
        // First caller publishes; set_sink() resolves before it writes.
        gates().compare_exchange_strong(g, from_env,
                                        std::memory_order_relaxed);
        g = gates().load(std::memory_order_relaxed);
    }
    return g;
}

void set_enabled(bool on) { set_sink(kAggregateSink, on); }

bool trace_enabled() { return (active_sinks() & kEventSink) != 0; }

void set_trace_enabled(bool on) { set_sink(kEventSink, on); }

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

Registry& Registry::global() {
    static Registry* registry = new Registry();  // never destroyed
    return *registry;
}

Counter& Registry::counter(std::string_view path) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(path);
    if (it == counters_.end()) {
        it = counters_
                 .emplace(std::string(path),
                          std::make_unique<Counter>(trace_name(path)))
                 .first;
    }
    return *it->second;
}

Timer& Registry::timer(std::string_view path) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = timers_.find(path);
    if (it == timers_.end()) {
        it = timers_
                 .emplace(std::string(path),
                          std::make_unique<Timer>(trace_name(path)))
                 .first;
    }
    return *it->second;
}

std::vector<Registry::CounterSample> Registry::counters() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<CounterSample> out;
    out.reserve(counters_.size());
    for (const auto& [path, counter] : counters_)
        out.push_back(CounterSample{path, counter->value()});
    return out;  // std::map iteration order is already sorted by path
}

std::vector<Registry::TimerSample> Registry::timers() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TimerSample> out;
    out.reserve(timers_.size());
    for (const auto& [path, timer] : timers_)
        out.push_back(TimerSample{path, timer->nanos(), timer->calls()});
    return out;
}

void Registry::reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [path, counter] : counters_) counter->set(0);
    for (auto& [path, timer] : timers_) timer->reset();
}

void event(std::string_view path, std::uint64_t arg) {
    const unsigned sinks = active_sinks();
    if (sinks == 0) return;
    Counter& counter = Registry::global().counter(path);
    if ((sinks & kAggregateSink) != 0) counter.add(1);
    if ((sinks & kEventSink) != 0) trace_instant(counter.trace_name(), arg);
}

void Span::open(unsigned sinks, std::string_view path, std::uint64_t arg) {
    timer_ = &Registry::global().timer(path);
    sinks_ = sinks;
    if ((sinks & kEventSink) != 0) trace_begin(timer_->trace_name(), arg);
    if ((sinks & kAggregateSink) != 0) start_ns_ = now_ns();
}

void Span::close() {
    if ((sinks_ & kAggregateSink) != 0) timer_->add(now_ns() - start_ns_);
    if ((sinks_ & kEventSink) != 0) trace_end(timer_->trace_name());
}

}  // namespace dcft::obs
