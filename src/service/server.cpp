#include "service/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "apps/catalog.hpp"
#include "obs/run_report.hpp"
#include "service/protocol.hpp"

namespace dcft::service {
namespace {

/// Longest request line a connection buffers; past it the client gets
/// one protocol-error line and is disconnected.
constexpr std::size_t kMaxLineBytes = 64 * 1024;

/// Writes the whole buffer, riding out partial writes and EINTR.
/// MSG_NOSIGNAL turns a dead peer into an error instead of SIGPIPE.
bool send_all(int fd, const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                                 MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
    scheduler_ = std::make_unique<QueryScheduler>(options_.workers);
}

Server::~Server() {
    shutdown();
    wait();
}

bool Server::start(std::string* error) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.empty() ||
        options_.socket_path.size() >= sizeof(addr.sun_path)) {
        if (error != nullptr)
            *error = "socket path empty or too long: '" +
                     options_.socket_path + "'";
        return false;
    }
    std::memcpy(addr.sun_path, options_.socket_path.c_str(),
                options_.socket_path.size() + 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
        if (error != nullptr)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    // A previous daemon instance may have left its socket file behind
    // (crash, SIGKILL); bind would fail on it. Probe-connect to tell a
    // stale file from a live daemon: connection refused / no listener
    // means the file is dead and safe to unlink; a successful connect
    // means another daemon is serving this path, and we must refuse
    // instead of silently stealing it from under its clients.
    if (::access(options_.socket_path.c_str(), F_OK) == 0) {
        const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (probe < 0) {
            if (error != nullptr)
                *error = std::string("socket: ") + std::strerror(errno);
            ::close(listen_fd_);
            listen_fd_ = -1;
            return false;
        }
        const bool alive =
            ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) == 0;
        ::close(probe);
        if (alive) {
            if (error != nullptr)
                *error = "a daemon is already serving '" +
                         options_.socket_path +
                         "'; shut it down first or use another socket path";
            ::close(listen_fd_);
            listen_fd_ = -1;
            return false;
        }
        ::unlink(options_.socket_path.c_str());
    }
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
        if (error != nullptr)
            *error = "bind/listen on '" + options_.socket_path +
                     "': " + std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    started_ = true;
    accept_thread_ = std::thread([this] { accept_loop(); });
    return true;
}

void Server::accept_loop() {
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return;  // listener shut down by wait() — we are done
        }
        std::list<std::thread> done;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (const Connection c : exited_)
                done.splice(done.end(), connections_, c);
            exited_.clear();
            if (stop_requested_) {
                ::close(fd);  // drain until the listener is actually closed
            } else {
                client_fds_.insert(fd);
                // The thread queues its own iterator on exit, which it can
                // only do after this lock (and the assignment) is released.
                const Connection c = connections_.emplace(connections_.end());
                *c = std::thread([this, fd, c] { handle_connection(fd, c); });
            }
        }
        for (std::thread& t : done) t.join();
    }
}

void Server::handle_connection(int fd, Connection self) {
    std::string buffer;
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;  // EOF or connection shut down
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t nl = buffer.find('\n', start);
             nl != std::string::npos; nl = buffer.find('\n', start)) {
            const std::string line = buffer.substr(start, nl - start);
            start = nl + 1;
            if (line.empty()) continue;
            if (!dispatch(fd, line)) {
                start = buffer.size();
                break;
            }
        }
        buffer.erase(0, start);
        if (buffer.size() > kMaxLineBytes) {
            send_all(fd, error_response(Request{},
                                        "request line exceeds 64 KiB"));
            break;
        }
    }
    ::close(fd);
    std::lock_guard<std::mutex> lock(mutex_);
    client_fds_.erase(fd);
    exited_.push_back(self);
}

bool Server::dispatch(int fd, const std::string& line) {
    std::string parse_error;
    const auto request = parse_request(line, &parse_error);
    if (!request.has_value())
        return send_all(fd, error_response(Request{}, parse_error));

    if (request->op == "ping") {
        obs::JsonWriter w;
        begin_response(w, *request, /*ok=*/true);
        w.end_object();
        return send_all(fd, finish_response_line(w));
    }
    if (request->op == "list") {
        obs::JsonWriter w;
        begin_response(w, *request, /*ok=*/true);
        w.key("systems");
        w.begin_array();
        for (const std::string& name : apps::catalog_names()) {
            const apps::SystemInstance sys = apps::load_system(name, 0);
            w.begin_object();
            w.kv("name", name);
            w.kv("states",
                 static_cast<std::uint64_t>(sys.space->num_states()));
            w.key("variants");
            w.begin_array();
            for (const auto& [variant, program] : sys.variants)
                w.value(variant);
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        return send_all(fd, finish_response_line(w));
    }
    if (request->op == "verify") {
        const QueryScheduler::Admission admission = scheduler_->verify(
            request->system, request->size, request->graded);
        const VerifyResult& result = *admission.result;
        if (!result.ok)
            return send_all(fd, error_response(*request, result.error));
        obs::JsonWriter w;
        begin_response(w, *request, /*ok=*/true);
        w.kv("system", result.system);
        w.kv("size", result.size);
        w.kv("graded", result.graded);
        w.kv("space_states", result.space_states);
        w.kv("coalesced", admission.coalesced);
        w.key("queries");
        w.begin_array();
        for (const obs::ReportQuery& q : result.queries)
            obs::write_query(w, q);
        w.end_array();
        w.end_object();
        return send_all(fd, finish_response_line(w));
    }
    if (request->op == "stats") {
        const QueryScheduler::Stats stats = scheduler_->stats();
        obs::JsonWriter w;
        begin_response(w, *request, /*ok=*/true);
        w.key("scheduler");
        w.begin_object();
        w.kv("admitted", stats.admitted);
        w.kv("executed", stats.executed);
        w.kv("coalesced", stats.coalesced);
        w.end_object();
        obs::write_telemetry(w);
        w.end_object();
        return send_all(fd, finish_response_line(w));
    }
    // "shutdown": put the acknowledgement on the wire *before* requesting
    // stop — the teardown in wait() shuts client sockets down, and the
    // client must still receive its response.
    obs::JsonWriter w;
    begin_response(w, *request, /*ok=*/true);
    w.end_object();
    const bool sent = send_all(fd, finish_response_line(w));
    shutdown();
    return sent;
}

void Server::shutdown() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stop_requested_) return;
        stop_requested_ = true;
    }
    stop_cv_.notify_all();
}

void Server::wait() {
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stop_cv_.wait(lock, [this] { return stop_requested_; });
        if (finished_) return;
        finished_ = true;
    }
    if (!started_) return;
    // Shutting the listener down pops accept_loop out of accept(); only
    // after the accept thread has joined is the descriptor closed, so the
    // thread never reads a reset listen_fd_ or a reused descriptor number.
    // Shutting the client sockets pops connection threads out of recv().
    ::shutdown(listen_fd_, SHUT_RDWR);
    accept_thread_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const int fd : client_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread& t : connections_) t.join();
    ::unlink(options_.socket_path.c_str());
}

}  // namespace dcft::service
