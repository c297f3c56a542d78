// daemon-mix: an open-loop request stream into a fresh dcftd over its real
// unix socket, plus the in-process replay of the same key sequence that
// the traced run splits by layer.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "apps/catalog.hpp"
#include "bench.hpp"
#include "obs/json.hpp"
#include "verify/exploration_cache.hpp"

extern char** environ;

namespace perfbench {

using namespace dcft;

namespace {

int connect_unix(const std::string& path) {
    sockaddr_un addr{};
    if (path.size() >= sizeof addr.sun_path) return -1;
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/// One persistent client connection: newline-delimited JSON both ways.
class Conn {
public:
    explicit Conn(const std::string& path) : fd_(connect_unix(path)) {
        if (fd_ < 0) throw std::runtime_error("cannot connect to " + path);
    }
    ~Conn() { ::close(fd_); }
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    /// Sends one request line and returns the response line ("" when the
    /// daemon closed the connection).
    std::string request(const std::string& line) {
        const std::string msg = line + "\n";
        for (std::size_t off = 0; off < msg.size();) {
            const ssize_t n = ::send(fd_, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
            if (n <= 0) return "";
            off += static_cast<std::size_t>(n);
        }
        for (;;) {
            if (const auto nl = buf_.find('\n'); nl != std::string::npos) {
                std::string out = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return out;
            }
            char chunk[65536];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n <= 0) return "";
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

private:
    int fd_;
    std::string buf_;
};

/// A dcftd child process on `socket`; stopped (and waited for) by stop()
/// or the destructor.
class Daemon {
public:
    Daemon(const Options& o, std::string socket) : socket_(std::move(socket)) {
        ::unlink(socket_.c_str());
        const std::string log = o.run_dir + "/dcftd.log";
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND, 0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        std::vector<std::string> args = {o.dcftd, "--socket", socket_};
        std::vector<char*> argv;
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        const int rc = posix_spawn(&pid_, o.dcftd.c_str(), &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) {
            pid_ = -1;
            throw std::runtime_error("cannot start " + o.dcftd);
        }
        // Ready once the socket accepts a connection.
        for (int i = 0; i < 10000; ++i) {
            if (const int fd = connect_unix(socket_); fd >= 0) {
                ::close(fd);
                return;
            }
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("dcftd exited during start-up");
            }
            ::usleep(2000);
        }
        stop();
        throw std::runtime_error("dcftd did not open " + socket_);
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    int pid() const { return pid_; }

    void stop() {
        if (pid_ <= 0) return;
        try {
            Conn(socket_).request(R"({"op":"shutdown"})");
        } catch (const std::exception&) {
        }
        int status = 0;
        for (int i = 0; i < 2000; ++i) {
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            ::usleep(5000);
        }
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
    }

private:
    std::string socket_;
    pid_t pid_ = -1;
};

std::string request_line(const Item& it, std::uint64_t id) {
    obs::JsonWriter w;
    w.begin_object();
    w.kv("op", "verify").kv("system", it.system).kv("size", it.size);
    w.kv("graded", it.graded).kv("id", std::to_string(id));
    w.end_object();
    std::string line = w.str();
    line.erase(std::remove(line.begin(), line.end(), '\n'), line.end());
    return line;
}

/// Sends every pool key once, spread over the connections, so their
/// graphs and warm instances are in the daemon before measuring starts.
void warm_up(std::vector<std::unique_ptr<Conn>>& conns,
             const std::vector<Item>& pool) {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns.size(); ++c)
        threads.emplace_back([&, c] {
            for (std::size_t k = c; k < pool.size(); k += conns.size())
                conns[c]->request(request_line(pool[k], 0));
        });
    for (std::thread& t : threads) t.join();
}

struct Sent {
    std::uint64_t due_ns = 0;
    std::uint64_t send_ns = 0;
    std::uint64_t recv_ns = 0;
    std::string response;
};

/// The open loop: requests fall due on the schedule; a free connection
/// takes the next due request, so a request due while every connection is
/// busy waits in the generator and that wait counts toward its latency.
std::vector<Sent> open_loop(std::vector<std::unique_ptr<Conn>>& conns,
                            const std::vector<Arrival>& schedule,
                            std::uint64_t& start_ns) {
    std::vector<Sent> sent(schedule.size());
    start_ns = now_ns() + 20'000'000;
    for (std::size_t i = 0; i < schedule.size(); ++i)
        sent[i].due_ns = start_ns + static_cast<std::uint64_t>(schedule[i].due_s * 1e9);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (auto& conn : conns)
        threads.emplace_back([&, c = conn.get()] {
            for (std::size_t i; (i = next.fetch_add(1)) < schedule.size();) {
                const std::uint64_t due = sent[i].due_ns;
                if (const std::uint64_t now = now_ns(); now < due)
                    std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
                sent[i].send_ns = now_ns();
                sent[i].response = c->request(request_line(schedule[i].item, i));
                sent[i].recv_ns = now_ns();
            }
        });
    for (std::thread& t : threads) t.join();
    return sent;
}

void write_stats(obs::JsonWriter& w, const char* name, const obs::JsonValue* s) {
    w.key(name).begin_object();
    auto field = [&](const char* k) {
        const obs::JsonValue* v = s ? s->find(k) : nullptr;
        if (v == nullptr || !v->is_number()) w.key(k).null();
        else if (std::string(k) == "count")
            w.kv(k, static_cast<std::uint64_t>(v->as_number()));
        else w.kv(k, v->as_number());
    };
    for (const char* k : {"count", "mean", "p50", "p90", "p99"}) field(k);
    w.end_object();
}

/// Turns one verify response into answer objects; false when the daemon
/// refused or failed the request.
bool response_answers(std::uint64_t op, const Item& it, const std::string& line,
                      std::vector<std::string>& answers, std::string& error) {
    const auto doc = obs::parse_json(line, &error);
    if (!doc) return false;
    const obs::JsonValue* ok = doc->find("ok", obs::JsonValue::Kind::Bool);
    const obs::JsonValue* queries = doc->find("queries", obs::JsonValue::Kind::Array);
    if (ok == nullptr || !ok->as_bool() || queries == nullptr) {
        const obs::JsonValue* e = doc->find("error", obs::JsonValue::Kind::String);
        error = e ? e->as_string() : "malformed response";
        return false;
    }
    std::map<std::string, std::vector<bool>> grid;
    std::map<std::string, const obs::JsonValue*> graded;
    for (const obs::JsonValue& q : queries->as_array()) {
        const obs::JsonValue* variant = q.find("variant", obs::JsonValue::Kind::String);
        const obs::JsonValue* grade = q.find("grade", obs::JsonValue::Kind::String);
        const obs::JsonValue* qok = q.find("ok", obs::JsonValue::Kind::Bool);
        if (!variant || !grade || !qok) {
            error = "query without variant/grade/ok";
            return false;
        }
        auto& row = grid[variant->as_string()];
        row.resize(3);
        const std::string& g = grade->as_string();
        row[g == "failsafe" ? 0 : g == "nonmasking" ? 1 : 2] = qok->as_bool();
        if (it.graded && g == "failsafe") graded[variant->as_string()] = &q;
    }
    answers.push_back(grid_answer(op, it.key(), grid));
    for (const auto& [variant, q] : graded) {
        const obs::JsonValue* md = q->find("masking_distance", obs::JsonValue::Kind::Object);
        const obs::JsonValue* mc = q->find("monte_carlo", obs::JsonValue::Kind::Object);
        if (!md || !mc) {
            error = "graded query without masking_distance/monte_carlo";
            return false;
        }
        obs::JsonWriter w;
        w.begin_object();
        w.kv("op", op).kv("kind", "distance").kv("key", it.key()).kv("variant", variant);
        const obs::JsonValue* d = md->find("distance");
        w.key("distance");
        if (d == nullptr || !d->is_number()) w.value("inf");
        else w.value(static_cast<std::uint64_t>(d->as_number()));
        w.end_object();
        answers.push_back(w.str());

        obs::JsonWriter m;
        m.begin_object();
        m.kv("op", op).kv("kind", "mc").kv("set", "standard").kv("key", it.key());
        m.kv("variant", variant);
        const obs::JsonValue* runs = mc->find("runs", obs::JsonValue::Kind::Number);
        const obs::JsonValue* vr = mc->find("violated_runs", obs::JsonValue::Kind::Number);
        const obs::JsonValue* rate = mc->find("violation_rate", obs::JsonValue::Kind::Number);
        m.kv("runs", static_cast<std::uint64_t>(runs ? runs->as_number() : -1));
        m.kv("violated_runs", static_cast<std::uint64_t>(vr ? vr->as_number() : -1));
        m.kv("violation_rate", rate ? rate->as_number() : -1.0);
        write_stats(m, "time_to_violation", mc->find("time_to_violation"));
        write_stats(m, "time_to_recovery", mc->find("time_to_recovery"));
        write_stats(m, "faults_absorbed", mc->find("faults_absorbed"));
        m.end_object();
        answers.push_back(m.str());
    }
    return true;
}

std::map<std::string, double> scheduler_stats(Conn& conn) {
    const auto doc = obs::parse_json(conn.request(R"({"op":"stats"})"));
    const obs::JsonValue* s = doc ? doc->find("scheduler") : nullptr;
    std::map<std::string, double> out;
    for (const char* k : {"admitted", "executed", "coalesced"}) {
        const obs::JsonValue* v = s ? s->find(k, obs::JsonValue::Kind::Number) : nullptr;
        out[k] = v ? v->as_number() : 0.0;
    }
    return out;
}

std::vector<std::unique_ptr<Conn>> connect_all(const std::string& socket) {
    std::vector<std::unique_ptr<Conn>> conns;
    for (unsigned c = 0; c < kDaemonConnections; ++c)
        conns.push_back(std::make_unique<Conn>(socket));
    return conns;
}

/// Simulated steps of the catalog-standard estimate of every variant of
/// each graded pool key (the daemon does not report them).
std::map<std::string, double> graded_steps(const std::vector<Item>& pool) {
    std::map<std::string, double> out;
    for (const Item& it : pool) {
        if (!it.graded || out.count(it.key())) continue;
        const apps::SystemInstance sys = apps::load_system(it.system, it.size);
        double steps = 0;
        for (const auto& [variant, program] : sys.variants) {
            const ToleranceEstimate est = estimate_tolerance(
                program, *sys.faults, sys.spec, sys.invariant, sys.initial, {});
            for (double v : est.batch.steps.samples()) steps += v;
        }
        out[it.key()] = steps;
    }
    return out;
}

/// The same key sequence answered in-process by the layer functions the
/// daemon's scheduler calls, with warm instances kept per key.
double replay(const std::vector<Item>& pool, const std::vector<Arrival>& schedule,
              Tracer& t, Result& r) {
    using Instances = std::map<std::string, std::unique_ptr<apps::SystemInstance>>;
    Instances instances;
    ExplorationCache::global().clear();
    auto instance = [&](const Item& it) -> const apps::SystemInstance& {
        auto& slot = instances[it.key()];
        if (!slot) {
            const Tracer::Span span(&t, "apps.load");
            slot = std::make_unique<apps::SystemInstance>(
                apps::load_system(it.system, it.size));
        }
        return *slot;
    };
    const bool tracing = t.enabled();
    t.set_enabled(false);
    std::uint64_t mc_ns = 0;
    std::vector<std::string> warm_answers;
    for (const Item& it : pool) {
        const apps::SystemInstance& sys = instance(it);
        verdict_grid(sys, &t);
        if (it.graded) graded_answers(sys, it.key(), 0, &t, warm_answers, mc_ns);
    }
    t.set_enabled(tracing);

    const std::uint64_t t0 = now_ns();
    for (const Arrival& a : schedule) {
        const std::uint64_t op = r.attempted++;
        try {
            t.begin_item(a.item.key());
            const apps::SystemInstance& sys = instance(a.item);
            r.answers.push_back(grid_answer(op, a.item.key(), verdict_grid(sys, &t)));
            if (a.item.graded)
                graded_answers(sys, a.item.key(), op, &t, r.answers, mc_ns);
        } catch (const std::exception& e) {
            ++r.failed;
            r.errors.push_back(a.item.key() + ": " + e.what());
        }
    }
    return (now_ns() - t0) / 1e9;
}

}  // namespace

Result run_daemon_mix(const Options& o) {
    Result r;
    const std::vector<Item> pool = daemon_pool(o);
    const std::vector<Arrival> schedule = daemon_schedule(o);
    const std::string socket = o.run_dir + "/dcftd.sock";
    const std::map<std::string, double> steps_of = graded_steps(pool);

    // Set-up: start the daemon, connect, warm every pool key. Repeated so
    // setup_s is a median; the last daemon serves the measured run.
    std::unique_ptr<Daemon> daemon;
    std::vector<std::unique_ptr<Conn>> conns;
    for (int i = 0; i < (o.trace ? 1 : 3); ++i) {
        conns.clear();
        daemon.reset();
        const std::uint64_t t0 = now_ns();
        daemon = std::make_unique<Daemon>(o, socket);
        conns = connect_all(socket);
        warm_up(conns, pool);
        r.setup_s.push_back((now_ns() - t0) / 1e9);
    }
    r.notes["daemon_rss_after_setup_mb"] = peak_rss_mb(daemon->pid());

    const std::map<std::string, double> stats0 = scheduler_stats(*conns.front());
    std::uint64_t start_ns = 0;
    const std::vector<Sent> sent = open_loop(conns, schedule, start_ns);
    std::uint64_t last_ns = start_ns;
    for (std::size_t i = 0; i < sent.size(); ++i) {
        const Sent& s = sent[i];
        const Item& it = schedule[i].item;
        ++r.attempted;
        std::string error;
        if (s.response.empty() ||
            !response_answers(i, it, s.response, r.answers, error)) {
            ++r.failed;
            r.errors.push_back(it.key() + ": " +
                               (s.response.empty() ? "connection closed" : error));
            continue;
        }
        ++r.completed;
        last_ns = std::max(last_ns, s.recv_ns);
        const double rtt_ms = (s.recv_ns - s.send_ns) / 1e6;
        r.item_ms.push_back(rtt_ms);
        r.latency_ms.push_back((s.recv_ns - s.due_ns) / 1e6);
        r.gen_wait_ms.push_back((s.send_ns - s.due_ns) / 1e6);
        if (it.graded) {
            r.mc_steps += steps_of.at(it.key());
            r.mc_seconds += rtt_ms / 1e3;
        }
    }
    r.wall_s = (last_ns - start_ns) / 1e9;
    double late = 0;
    for (double w : r.gen_wait_ms) late = std::max(late, w);
    r.notes["generator_late_ms_max"] = late;

    // Scheduler counts of the measured requests, from the daemon's own
    // stats op.
    const std::map<std::string, double> stats1 = scheduler_stats(*conns.front());
    const double admitted = stats1.at("admitted") - stats0.at("admitted");
    const double executed = stats1.at("executed") - stats0.at("executed");
    const double coalesced = stats1.at("coalesced") - stats0.at("coalesced");
    r.notes["scheduler_admitted"] = admitted;
    r.notes["scheduler_executed"] = executed;
    r.notes["scheduler_coalesced"] = coalesced;
    r.peak_rss_mb = peak_rss_mb(daemon->pid());
    conns.clear();
    daemon->stop();

    if (o.trace) {
        r.layers = traced_run(
            [&](Tracer& t) { return replay(pool, schedule, t, r); }, true,
            o.run_dir + "/spans.json");
        r.layers["service.rtt_ms_p50"] = median(r.item_ms);
        r.layers["service.gen_wait_ms_p50"] = median(r.gen_wait_ms);
        r.layers["service.coalesced_ratio"] = admitted > 0 ? coalesced / admitted : 0;
        r.layers["service.executed"] = executed;
    }
    return r;
}

}  // namespace perfbench
