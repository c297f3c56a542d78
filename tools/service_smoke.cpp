// service_smoke — end-to-end exercise of the dcftd service stack
// (ctest). Runs the Server in-process against real unix sockets and
// pins, deterministically:
//
//  * Coalescing: with the scheduler paused, N identical verify queries
//    arrive on N connections; on release exactly ONE executes and the
//    other N-1 attach to it (scheduler stats + per-response "coalesced"
//    flags), and — by telemetry — the batch costs exactly one set of
//    explorations per distinct graph key.
//  * Repeat vs distinct: a later identical query re-executes the verdict
//    grid but triggers ZERO new explorations (exploration cache); a
//    distinct query does explore.
//  * Protocol: ping/list/stats answer ok with well-formed envelopes;
//    malformed input gets an error response without dropping the
//    connection's server, and so does a line past the 64 KiB cap; an
//    undersized system gets the catalog's input error as its text.
//  * Sockets: a stale socket file left by a crashed daemon does not
//    block startup (probe-connect finds it dead, unlinks, binds); a
//    second daemon on a LIVE socket refuses to start and leaves the
//    original serving.
//  * Graded verify: {"op":"verify",...,"graded":true} flags the
//    response and attaches masking_distance + monte_carlo blocks to
//    every query.
//  * Thread reaping: 200 sequential connections leave VmSize within
//    256 MiB of where it started — finished connection threads are
//    joined while the server runs, not kept until shutdown.
//  * Clean shutdown: the shutdown op is acknowledged, wait() returns,
//    every thread joins (the process exits), and the socket file is gone.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

using dcft::obs::JsonValue;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
    std::printf("%s: %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++g_failures;
}

std::uint64_t explorations() {
    return dcft::obs::Registry::global()
        .counter("verify/explorations")
        .value();
}

/// Sends `line`, requiring a parsable response; returns the document.
JsonValue ask(const std::string& socket_path, const std::string& line) {
    std::string error;
    const auto response =
        dcft::service::roundtrip(socket_path, line, &error);
    if (!response.has_value()) {
        check(false, "roundtrip '" + line + "': " + error);
        return JsonValue::make_null();
    }
    const auto doc = dcft::obs::parse_json(*response, &error);
    if (!doc.has_value()) {
        check(false, "response not valid JSON: " + error);
        return JsonValue::make_null();
    }
    return *doc;
}

/// VmSize (mapped address space) of this process in KiB; 0 if unknown.
std::uint64_t vm_size_kib() {
    std::ifstream status("/proc/self/status");
    std::string key;
    std::uint64_t kib = 0;
    while (status >> key) {
        if (key == "VmSize:") {
            status >> kib;
            return kib;
        }
        status.ignore(4096, '\n');
    }
    return 0;
}

bool response_ok(const JsonValue& doc) {
    const auto* ok = doc.find("ok", JsonValue::Kind::Bool);
    return ok != nullptr && ok->as_bool();
}

}  // namespace

int main() {
    dcft::obs::set_enabled(true);
    // The zero-new-explorations assertions must measure the exploration
    // cache, not its entry cap: one verify grid produces more distinct
    // graph keys than the default cap of 8, and without a persistent
    // store an evicted key re-explores. Pin a roomy cap and make sure an
    // ambient DCFT_GRAPH_STORE can't mask an eviction either.
    ::setenv("DCFT_EXPLORE_CACHE_CAP", "64", 1);
    ::unsetenv("DCFT_GRAPH_STORE");
    const std::string socket_path =
        "/tmp/dcft-service-smoke-" + std::to_string(::getpid()) + ".sock";
    const std::string verify_a =
        R"({"op":"verify","system":"token-ring","size":5})";
    const std::string verify_b =
        R"({"op":"verify","system":"token-ring","size":4})";

    // -- Phase 0: a stale socket file must not block startup --------------
    // Simulate a crashed daemon: bind a unix socket at the path and close
    // it without unlinking. Nothing listens, but the file exists — the
    // server's probe-connect must find it dead, unlink it, and bind.
    {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        check(fd >= 0, "stale-socket fixture created");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      socket_path.c_str());
        check(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) == 0,
              "stale-socket fixture bound");
        ::close(fd);
        check(::access(socket_path.c_str(), F_OK) == 0,
              "stale socket file left behind");
    }

    dcft::service::Server server({socket_path, /*workers=*/2});
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "FAIL: start over stale socket: %s\n",
                     error.c_str());
        return 1;
    }
    check(true, "server started over the stale socket file");

    // -- Phase 0b: a live socket refuses a second daemon ------------------
    {
        dcft::service::Server duplicate({socket_path, /*workers=*/1});
        std::string dup_error;
        check(!duplicate.start(&dup_error),
              "second daemon on a live socket refuses to start");
        check(dup_error.find("already serving") != std::string::npos,
              "refusal names the live daemon (got '" + dup_error + "')");
    }
    check(response_ok(ask(socket_path, R"({"op":"ping","id":"probe"})")),
          "original daemon still answers after the duplicate probe");

    // -- Phase A: concurrent identical queries coalesce ------------------
    server.scheduler().set_paused(true);
    constexpr int kClients = 6;
    std::vector<JsonValue> responses(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&, i] {
            responses[static_cast<std::size_t>(i)] =
                ask(socket_path, verify_a);
        });
    // All six must be admitted (and five coalesced) before dispatch.
    for (int spins = 0;
         server.scheduler().stats().admitted < kClients && spins < 4000;
         ++spins)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    check(server.scheduler().stats().admitted == kClients,
          "all " + std::to_string(kClients) + " queries admitted");
    server.scheduler().set_paused(false);
    for (std::thread& t : clients) t.join();

    const auto stats_a = server.scheduler().stats();
    check(stats_a.executed == 1,
          "concurrent identical queries executed once (got " +
              std::to_string(stats_a.executed) + ")");
    check(stats_a.coalesced == kClients - 1,
          std::to_string(kClients - 1) + " queries coalesced (got " +
              std::to_string(stats_a.coalesced) + ")");
    int ok_count = 0, coalesced_count = 0;
    for (const JsonValue& r : responses) {
        if (response_ok(r)) ++ok_count;
        const auto* c = r.find("coalesced", JsonValue::Kind::Bool);
        if (c != nullptr && c->as_bool()) ++coalesced_count;
    }
    check(ok_count == kClients, "every coalesced caller got a verdict");
    check(coalesced_count == kClients - 1,
          "responses flag the coalesced callers");
    const std::uint64_t explored_once = explorations();
    check(explored_once > 0, "the batch explored its graphs");

    // -- Phase B: identical repeat re-executes but never re-explores -----
    const JsonValue repeat = ask(socket_path, verify_a);
    check(response_ok(repeat), "repeat query answered ok");
    check(server.scheduler().stats().executed == 2,
          "repeat query is a fresh execution");
    check(explorations() == explored_once,
          "repeat query cost zero new explorations (one exploration per "
          "distinct key)");

    // -- Phase C: a distinct key does explore ----------------------------
    const JsonValue distinct = ask(socket_path, verify_b);
    check(response_ok(distinct), "distinct query answered ok");
    check(explorations() > explored_once, "distinct query explored");

    // -- Phase D: protocol surface ---------------------------------------
    check(response_ok(ask(socket_path, R"({"op":"ping","id":"t1"})")),
          "ping answers ok");
    const JsonValue listed = ask(socket_path, R"({"op":"list"})");
    check(response_ok(listed) &&
              listed.find("systems", JsonValue::Kind::Array) != nullptr &&
              !listed.find("systems", JsonValue::Kind::Array)
                   ->as_array()
                   .empty(),
          "list returns the catalog");
    const JsonValue stats_doc = ask(socket_path, R"({"op":"stats"})");
    const auto* sched =
        stats_doc.find("scheduler", JsonValue::Kind::Object);
    check(response_ok(stats_doc) && sched != nullptr &&
              sched->find("coalesced", JsonValue::Kind::Number) != nullptr,
          "stats reports scheduler counters");
    const JsonValue bad = ask(socket_path, "this is not json");
    check(!response_ok(bad) &&
              bad.find("error", JsonValue::Kind::String) != nullptr,
          "malformed input gets an error response");
    const JsonValue undersized = ask(
        socket_path, R"({"op":"verify","system":"token-ring","size":1})");
    const auto* size_error =
        undersized.find("error", JsonValue::Kind::String);
    check(!response_ok(undersized) && size_error != nullptr &&
              size_error->as_string() == "token-ring size must be >= 2",
          "an undersized system gets the catalog's input error (got '" +
              (size_error ? size_error->as_string() : std::string()) +
              "')");
    const JsonValue too_long = ask(socket_path, std::string(70000, 'x'));
    const auto* cap_error = too_long.find("error", JsonValue::Kind::String);
    check(cap_error != nullptr &&
              cap_error->as_string().find("exceeds") != std::string::npos,
          "a line past the 64 KiB cap gets a protocol error");
    for (const JsonValue* doc : {&repeat, &listed, &stats_doc}) {
        const auto* schema = doc->find("schema", JsonValue::Kind::String);
        check(schema != nullptr && schema->as_string() == "dcft.report",
              "response carries the dcft.report envelope");
    }

    // -- Phase D2: graded verify through the daemon ----------------------
    const JsonValue graded = ask(
        socket_path,
        R"({"op":"verify","system":"memory","size":3,"graded":true})");
    check(response_ok(graded), "graded verify answered ok");
    const auto* graded_flag = graded.find("graded", JsonValue::Kind::Bool);
    check(graded_flag != nullptr && graded_flag->as_bool(),
          "graded response carries graded=true");
    const auto* graded_queries =
        graded.find("queries", JsonValue::Kind::Array);
    bool blocks_ok =
        graded_queries != nullptr && !graded_queries->as_array().empty();
    if (blocks_ok)
        for (const JsonValue& q : graded_queries->as_array())
            if (q.find("masking_distance", JsonValue::Kind::Object) ==
                    nullptr ||
                q.find("monte_carlo", JsonValue::Kind::Object) == nullptr)
                blocks_ok = false;
    check(blocks_ok,
          "every graded query carries masking_distance and monte_carlo "
          "blocks");
    const JsonValue plain = ask(
        socket_path, R"({"op":"verify","system":"memory","size":3})");
    const auto* plain_queries =
        plain.find("queries", JsonValue::Kind::Array);
    bool plain_clean =
        plain_queries != nullptr && !plain_queries->as_array().empty();
    if (plain_clean)
        for (const JsonValue& q : plain_queries->as_array())
            if (q.find("masking_distance") != nullptr ||
                q.find("monte_carlo") != nullptr)
                plain_clean = false;
    check(plain_clean,
          "plain verify of the same system omits the graded blocks "
          "(coalescing keys keep graded and plain apart)");

    // -- Phase D3: finished connection threads are reaped ----------------
    // One thread serves each connection. Were they joined only at
    // shutdown, every finished one would keep its stack mapped (8 MiB of
    // address space apiece by default): 200 connections, ~1.6 GiB.
    const std::uint64_t vm_before = vm_size_kib();
    int pings_ok = 0;
    for (int i = 0; i < 200; ++i)
        if (response_ok(ask(socket_path, R"({"op":"ping"})"))) ++pings_ok;
    check(pings_ok == 200, "200 sequential connections answered");
    const std::uint64_t vm_after = vm_size_kib();
    const std::uint64_t vm_growth_mib =
        vm_after > vm_before ? (vm_after - vm_before) >> 10 : 0;
    check(vm_before > 0 && vm_growth_mib < 256,
          "200 sequential connections grew VmSize by < 256 MiB (got " +
              std::to_string(vm_growth_mib) + " MiB)");

    // -- Phase E: clean shutdown -----------------------------------------
    check(response_ok(ask(socket_path, R"({"op":"shutdown"})")),
          "shutdown acknowledged");
    server.wait();
    check(::access(socket_path.c_str(), F_OK) != 0,
          "socket file removed on shutdown");

    if (g_failures == 0) {
        std::printf("service_smoke: all checks passed\n");
        return 0;
    }
    std::fprintf(stderr, "service_smoke: %d check(s) failed\n", g_failures);
    return 1;
}
