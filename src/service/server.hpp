// dcftd server core: a unix-domain socket accepting newline-delimited
// JSON queries (service/protocol.hpp) and answering them through the
// coalescing QueryScheduler (service/scheduler.hpp).
//
// Threading: one accept thread, one thread per live connection (a
// finished connection's thread is joined at the next accept, so a
// long-lived daemon does not keep one dead thread's stack per connection
// it ever served), and the scheduler's worker pool. Connection threads
// block in QueryScheduler::verify for verify ops — which is exactly where
// concurrent same-key queries coalesce. A "shutdown" op (or shutdown()
// from any thread, e.g. a signal watcher) requests stop; wait() — the
// owner's blocking call — then closes the listener and every live
// connection, joins all threads, and removes the socket file. The server
// never exits on malformed input: bad lines get an error response and the
// connection stays open.
//
// The server is embeddable: tools/dcftd.cpp wraps it as the daemon, and
// tools/service_smoke.cpp runs it in-process against real sockets to pin
// the coalescing and shutdown behavior in CI.
#pragma once

#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/scheduler.hpp"

namespace dcft::service {

struct ServerOptions {
    std::string socket_path;
    unsigned workers = 0;  ///< scheduler pool size (0 = default)
};

class Server {
public:
    explicit Server(ServerOptions options);
    /// shutdown() + wait() if still running.
    ~Server();

    /// Binds and listens on the socket path (replacing a stale socket
    /// file) and starts accepting. Returns false with *error on failure.
    bool start(std::string* error);

    /// Blocks until shutdown is requested, then tears everything down:
    /// stops accepting, closes live connections, joins threads, unlinks
    /// the socket file.
    void wait();

    /// Requests stop. Idempotent; safe from any thread, including
    /// connection threads (the teardown happens in wait()).
    void shutdown();

    QueryScheduler& scheduler() { return *scheduler_; }
    const std::string& socket_path() const { return options_.socket_path; }

private:
    using Connection = std::list<std::thread>::iterator;

    void accept_loop();
    /// Serves `fd` until EOF, then queues `self` for accept_loop to join.
    void handle_connection(int fd, Connection self);
    /// Answers one request line on `fd`; false when the peer is gone.
    bool dispatch(int fd, const std::string& line);

    ServerOptions options_;
    std::unique_ptr<QueryScheduler> scheduler_;
    int listen_fd_ = -1;
    std::thread accept_thread_;
    std::mutex mutex_;
    std::condition_variable stop_cv_;
    bool stop_requested_ = false;
    bool started_ = false;
    bool finished_ = false;
    std::list<std::thread> connections_;  ///< Live or not yet joined.
    std::vector<Connection> exited_;      ///< Returned, awaiting join.
    std::set<int> client_fds_;
};

}  // namespace dcft::service
