// perfbench_runner — runs one dcft benchmark workload and writes its raw
// measurements and answers as one JSON document.
//
//   perfbench_runner --workload W --seed N --seconds S --trace 0|1
//                    --run-dir DIR --out FILE [--dcftd PATH] [--tiny]
//   perfbench_runner --workload W --seed N --seconds S --plan
//
// perfbench/run.py builds and drives it; see perfbench/README.md.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "common/parallel.hpp"

using namespace perfbench;

namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') out += '\\';
        if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", ch);
            out += buf;
            continue;
        }
        out += ch;
    }
    return out + "\"";
}

std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string array(const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + num(v[i]);
    return out + "]";
}

std::string object(const std::map<std::string, double>& m) {
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : m) {
        out += (first ? "" : ",") + quote(k) + ":" + num(v);
        first = false;
    }
    return out + "}";
}

std::string to_json(const Options& o, const Result& r) {
    std::ostringstream s;
    s << "{\"workload\":" << quote(o.workload) << ",\"seed\":" << o.seed
      << ",\"trace\":" << (o.trace ? "true" : "false")
      << ",\"build_type\":" << quote(PERFBENCH_BUILD_TYPE)
      << ",\"optimized\":" << (kOptimized ? "true" : "false")
      << ",\"verifier_threads\":" << dcft::default_verifier_threads()
      << ",\"mc_threads\":" << dcft::ToleranceEstimateOptions{}.threads
      << ",\"daemon_connections\":" << kDaemonConnections
      << ",\"setup_s\":" << array(r.setup_s) << ",\"wall_s\":" << num(r.wall_s)
      << ",\"item_ms\":" << array(r.item_ms)
      << ",\"latency_ms\":" << array(r.latency_ms)
      << ",\"gen_wait_ms\":" << array(r.gen_wait_ms)
      << ",\"completed\":" << r.completed << ",\"mc_steps\":" << num(r.mc_steps)
      << ",\"mc_seconds\":" << num(r.mc_seconds)
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"peak_rss_mb\":" << num(r.peak_rss_mb)
      << ",\"layers\":" << object(r.layers) << ",\"notes\":" << object(r.notes)
      << ",\"errors\":[";
    for (std::size_t i = 0; i < r.errors.size(); ++i)
        s << (i ? "," : "") << quote(r.errors[i]);
    s << "],\"answers\":[";
    for (std::size_t i = 0; i < r.answers.size(); ++i)
        s << (i ? "," : "") << r.answers[i];
    s << "]}\n";
    return s.str();
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload W --seed N --seconds S "
                 "--trace 0|1 --run-dir DIR --out FILE [--dcftd PATH] "
                 "[--tiny] [--plan]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    std::string out_path;
    bool plan = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : std::string();
        };
        try {
            if (a == "--seed") o.seed = std::stoull(next());
            else if (a == "--seconds") o.seconds = std::stod(next());
        } catch (const std::exception&) {
            return usage();
        }
        if (a == "--seed" || a == "--seconds") continue;
        if (a == "--workload") o.workload = next();
        else if (a == "--trace") o.trace = next() == "1";
        else if (a == "--run-dir") o.run_dir = next();
        else if (a == "--out") out_path = next();
        else if (a == "--dcftd") o.dcftd = next();
        else if (a == "--tiny") o.tiny = true;
        else if (a == "--plan") plan = true;
        else return usage();
    }
    if (o.workload != "cold-verify" && o.workload != "restart-verify" &&
        o.workload != "daemon-mix") {
        std::fprintf(stderr, "perfbench_runner: unknown workload '%s'\n",
                     o.workload.c_str());
        return usage();
    }
    if (plan) {
        std::printf("%s\n", plan_shape(o).c_str());
        return 0;
    }
    if (o.run_dir.empty() || out_path.empty() || o.seconds <= 0) return usage();
    std::filesystem::create_directories(o.run_dir);

    Result r;
    try {
        if (o.workload == "cold-verify") r = run_cold_verify(o, false);
        else if (o.workload == "restart-verify") r = run_cold_verify(o, true);
        else r = run_daemon_mix(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
        return 1;
    }
    std::ofstream out(out_path);
    out << to_json(o, r);
    return out ? 0 : 1;
}
