#!/usr/bin/env python3
"""End-to-end benchmark of dcft.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Builds the library, dcftd and the workload runner from source into
.bench_build/perfbench, runs one workload in its own process, checks every
answer against perfbench/expected/, and prints each metric by name with its
unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = ROOT / ".bench_build" / "runs"
TRACES_DIR = ROOT / ".bench_build" / "traces"
EXPECTED_DIR = BENCH_DIR / "expected"

WORKLOADS = ("cold-verify", "daemon-mix", "restart-verify")

# Knobs that switch off a tier of the library; a number taken with one of
# them set from outside is not a number of the shipped program.
ABLATION_KNOBS = ("DCFT_NO_COMPILE", "DCFT_NO_BATCH", "DCFT_NO_EXPLORE_CACHE",
                  "DCFT_SPILL", "DCFT_PARALLEL_WORK_MIN")

RUNNER_TIMEOUT_S = 170


class Refused(Exception):
    """The run cannot produce a trustworthy result; nothing is reported."""


def bench_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---- configuration record and guard ---------------------------------------

def host_block():
    mem_kb = 0
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
    except OSError:
        pass
    return {"cores": os.cpu_count(), "ram_mb": mem_kb // 1024,
            "kernel": platform.release(), "machine": platform.machine()}


def guard_environment():
    outside = {k: v for k, v in os.environ.items() if k.startswith("DCFT_")}
    set_knobs = [k for k in ABLATION_KNOBS if k in outside]
    if set_knobs:
        raise Refused("ablation knob(s) set from outside the benchmark: "
                      + ", ".join(set_knobs))
    # Every other DCFT_* variable is dropped: the benchmark decides what the
    # program sees (restart-verify sets DCFT_GRAPH_STORE itself).
    env = {k: v for k, v in os.environ.items() if not k.startswith("DCFT_")}
    return outside, env


# ---- build ----------------------------------------------------------------

def build():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                tail = log.read_text().splitlines()[-20:]
                raise Refused("build failed (%s):\n%s" % (" ".join(cmd), "\n".join(tail)))
    return BUILD_DIR / "perfbench_runner", BUILD_DIR / "dcftd"


# ---- running one workload -------------------------------------------------

def run_runner(runner, dcftd, env, workload, seed, seconds, trace, tiny=False):
    run_dir = RUNS_DIR / ("%s-%d-%d" % (workload, seed, os.getpid()))
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    out = run_dir / "result.json"
    cmd = [str(runner), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
           "--run-dir", os.path.relpath(run_dir, ROOT), "--out", str(out),
           "--dcftd", str(dcftd)]
    if tiny:
        cmd.append("--tiny")
    # Own process group, so a runner that overruns is stopped together with
    # the dcftd it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=RUNNER_TIMEOUT_S)
        if proc.returncode != 0 or not out.exists():
            raise Refused("runner failed (exit %d): %s"
                          % (proc.returncode, stderr.strip()[-2000:]))
        with open(out) as f:
            raw = json.load(f)
        spans = run_dir / "spans.json"
        if spans.exists():
            TRACES_DIR.mkdir(parents=True, exist_ok=True)
            shutil.copy(spans, TRACES_DIR / ("%s-seed%d.spans.json" % (workload, seed)))
        return raw
    except subprocess.TimeoutExpired:
        raise Refused("runner exceeded %d s" % RUNNER_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)


# ---- answers ----------------------------------------------------------------

def load_expected():
    exp = {}
    for name in ("verdicts", "masking_distance", "monte_carlo"):
        with open(EXPECTED_DIR / (name + ".json")) as f:
            exp[name] = json.load(f)
    return exp


def answer_ok(a, exp):
    key = a["key"]
    if a["kind"] == "grid":
        return exp["verdicts"].get(key) == a["variants"]
    if a["kind"] == "distance":
        return exp["masking_distance"].get(key, {}).get(a["variant"], "missing") == a["distance"]
    if a["kind"] == "mc":
        want = exp["monte_carlo"].get(a["set"], {}).get(key + "/" + a["variant"])
        if want is None:
            return False
        got = {k: v for k, v in a.items() if k not in ("op", "kind", "set", "key", "variant")}
        return all(k in want and want[k] == v for k, v in got.items())
    return False


def wrong_ops(answers, exp):
    """Operations with at least one answer that differs from the expected file."""
    return {a["op"] for a in answers if not answer_ok(a, exp)}


# ---- metrics --------------------------------------------------------------

def tail(samples):
    """Highest order statistic with at least ten samples beyond it."""
    s = sorted(samples)
    if not s:
        return 0.0, 0.0
    i = max(0, len(s) - 11)
    return s[i], 100.0 * (i + 1) / len(s)


def end_to_end(raw):
    item, lat = raw["item_ms"], raw["latency_ms"]
    wall = raw["wall_s"]
    return {
        "setup_s": statistics.median(raw["setup_s"]) if raw["setup_s"] else 0.0,
        "wall_s": wall,
        "grid_ms_p50": statistics.median(item) if item else 0.0,
        "grid_ms_tail": tail(item)[0],
        "latency_ms_p50": statistics.median(lat) if lat else 0.0,
        "latency_ms_tail": tail(lat)[0],
        "completed_qps": raw["completed"] / wall if wall > 0 else 0.0,
        "mc_steps_per_s": raw["mc_steps"] / raw["mc_seconds"] if raw["mc_seconds"] > 0 else 0.0,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def evaluate(raw, exp, trace, spec):
    wrong = wrong_ops(raw["answers"], exp)
    attempted = raw["attempted"]
    failed = raw["failed"] + len(wrong)
    if trace:
        values = raw["layers"]
        wanted = spec["per_layer"]
    else:
        values = end_to_end(raw)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            raise Refused("metric %s missing or not finite" % m["name"])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}, wrong


def print_report(raw, result, wrong, config):
    print("config: " + json.dumps(config, sort_keys=True))
    for err in raw["errors"][:10]:
        print("error: " + err)
    if wrong:
        print("wrong answers in %d operation(s): %s" % (len(wrong), sorted(wrong)[:20]))
    error_ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print("error_ratio = %.6g (%d failed or wrong / %d attempted)"
          % (error_ratio, result["failed"], result["attempted"]))
    for name, m in result["metrics"].items():
        line = "%s = %r %s" % (name, m["value"], m["unit"])
        if name.endswith("_tail"):
            samples = raw["item_ms"] if name.startswith("grid") else raw["latency_ms"]
            _, pct = tail(samples)
            line += "  (p%.1f of %d samples, 10 beyond it)" % (pct, len(samples))
        print(line)
    for name, v in sorted(raw["notes"].items()):
        print("note: %s = %r" % (name, v))


def run_once(args):
    spec = bench_spec()
    outside, env = guard_environment()
    runner, dcftd = build()
    raw = run_runner(runner, dcftd, env, args.workload, args.seed, args.seconds, args.trace)
    if not raw["optimized"]:
        raise Refused("the library was built without optimisation (%s)" % raw["build_type"])
    config = {
        "host": host_block(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "build_type": raw["build_type"], "verifier_threads": raw["verifier_threads"],
        "mc_threads": raw["mc_threads"], "daemon_workers": "dcftd default",
        "daemon_connections": raw["daemon_connections"],
        "dcft_env_outside": outside,
        "dcft_env_in_effect": ({"DCFT_GRAPH_STORE": "<run dir>/store"}
                               if args.workload == "restart-verify" else {}),
    }
    result, wrong = evaluate(raw, load_expected(), args.trace, spec)
    print_report(raw, result, wrong, config)
    print(json.dumps(result))


# ---- self-check -------------------------------------------------------------

def self_check():
    spec = bench_spec()
    _, env = guard_environment()
    runner, dcftd = build()
    exp = load_expected()
    problems = []

    for w in WORKLOADS:
        for trace in (False, True):
            raw = run_runner(runner, dcftd, env, w, 1, 1, trace, tiny=True)
            try:
                result, wrong = evaluate(raw, exp, trace, spec)
            except Refused as e:
                problems.append("%s trace=%d: %s" % (w, trace, e))
                continue
            if not result["correct"]:
                problems.append("%s trace=%d: %d failed/wrong of %d (%s)" % (
                    w, trace, result["failed"], result["attempted"],
                    raw["errors"][:3] or sorted(wrong)[:5]))
            print("self-check: %s trace=%d: %d metrics finite, %d/%d correct"
                  % (w, trace, len(result["metrics"]),
                     result["attempted"] - result["failed"], result["attempted"]))
            if w == "cold-verify" and not trace:
                # A deliberately corrupted expected entry must be counted.
                bad = json.loads(json.dumps(exp))
                grid = next(a for a in raw["answers"] if a["kind"] == "grid")
                row = bad["verdicts"][grid["key"]]
                variant = sorted(row)[0]
                row[variant] = [not b for b in row[variant]]
                corrupted, _ = evaluate(raw, bad, False, spec)
                if corrupted["failed"] == 0:
                    problems.append("corrupted expected entry not counted")
                else:
                    print("self-check: corrupted entry for %s/%s counted as %d failure(s)"
                          % (grid["key"], variant, corrupted["failed"]))

    for w in WORKLOADS:
        shapes = []
        for seed in (1, 2):
            proc = subprocess.run([str(runner), "--workload", w, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--plan"],
                                  capture_output=True, text=True, env=env)
            shapes.append(proc.stdout.strip())
        if proc.returncode != 0 or shapes[0] != shapes[1] or not shapes[0]:
            problems.append("%s: seeds 1 and 2 give different shapes" % w)
        else:
            print("self-check: %s shape (seeds 1, 2): %s" % (w, shapes[0]))

    for p in problems:
        print("self-check FAILED: " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            ap.error("--workload is required")
        if args.seconds is None:
            args.seconds = bench_spec()["run_seconds"]
        if args.seconds <= 0:
            ap.error("--seconds must be positive")
        run_once(args)
        return 0
    except Refused as e:
        print("perfbench: refused: %s" % e, file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError) as e:
        print("perfbench: error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
