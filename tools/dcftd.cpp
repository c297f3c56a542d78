// dcftd — long-running verification daemon over a unix socket.
//
//   dcftd [--socket PATH] [--workers N] [--telemetry]
//
// Listens on PATH (default: $DCFT_SOCKET, else /tmp/dcftd.sock) for
// newline-delimited JSON queries (see src/service/protocol.hpp) and
// answers them out of one warm process: the exploration cache, the batch
// kernels' compiled programs, and — when DCFT_GRAPH_STORE is set — the
// persistent mmap graph store all stay hot across queries, so a repeat
// verify costs a scheduler lookup instead of a full exploration.
// Concurrent identical queries are coalesced into one execution
// (src/service/scheduler.hpp).
//
// Query it with `dcft client <op> ...`, or any tool that can speak
// line-JSON over a unix socket (socat, nc -U). Stop it with SIGINT /
// SIGTERM or a {"op":"shutdown"} request; either way the daemon finishes
// in-flight queries, closes connections, and removes the socket file.
//
// --telemetry turns the obs counters on at startup (equivalent to
// DCFT_TELEMETRY=1), so "stats" responses carry live counters — including
// verify/explorations and verify/graph_store/*, the numbers the service
// smoke asserts coalescing with.
#include <atomic>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "common/env.hpp"
#include "obs/telemetry.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

int main(int argc, char** argv) {
    dcft::service::ServerOptions options;
    options.socket_path = dcft::service::default_socket_path();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket" && i + 1 < argc) {
            options.socket_path = argv[++i];
        } else if (arg == "--workers" && i + 1 < argc) {
            const auto n = dcft::parse_positive_u64(argv[++i]);
            if (!n.has_value() || *n > UINT_MAX) {
                std::fprintf(stderr, "dcftd: error: --workers must be a "
                                     "positive integer\n");
                return 2;
            }
            options.workers = static_cast<unsigned>(*n);
        } else if (arg == "--telemetry") {
            dcft::obs::set_enabled(true);
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: dcftd [--socket PATH] [--workers N] [--telemetry]\n"
                "\n"
                "Verification daemon: answers newline-delimited JSON\n"
                "queries (ping/list/verify/stats/shutdown) on a unix\n"
                "socket from one warm process. Defaults: socket\n"
                "$DCFT_SOCKET or /tmp/dcftd.sock. See `dcft client`.\n");
            return 0;
        } else {
            std::fprintf(stderr, "dcftd: unknown argument '%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    // Signals are handled on a dedicated thread via sigwait — no
    // async-signal-safety worries — so SIGINT/SIGTERM run the same
    // orderly teardown as a {"op":"shutdown"} request.
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGINT);
    sigaddset(&signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);

    dcft::service::Server server(options);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "dcftd: %s\n", error.c_str());
        return 1;
    }
    std::fprintf(stderr, "dcftd: listening on %s\n",
                 server.socket_path().c_str());

    std::atomic<bool> exiting{false};
    std::thread signal_thread([&signals, &server, &exiting] {
        int sig = 0;
        sigwait(&signals, &sig);
        if (!exiting.load())
            std::fprintf(stderr, "dcftd: caught %s, shutting down\n",
                         strsignal(sig));
        server.shutdown();
    });

    server.wait();
    // Unblock the signal thread if shutdown came over the wire instead.
    exiting.store(true);
    pthread_kill(signal_thread.native_handle(), SIGTERM);
    signal_thread.join();
    std::fprintf(stderr, "dcftd: stopped\n");
    return 0;
}
