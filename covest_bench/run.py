#!/usr/bin/env python3
"""covest_bench: build the benchmark from source and run it.

Run from the repository root:

  python3 covest_bench/run.py --workload corpus_batch --seed 1 --seconds 10 --trace 0
  python3 covest_bench/run.py --workload all --seed 1 --seconds 10 --trace 1
  python3 covest_bench/run.py --smoke

The first call configures and builds covest_bench/ (a CMake package that
compiles the covest library from ../src) into .bench_build/covest_bench;
later calls only rebuild what changed. Each run prints an `env` line
(nproc, load average at start, build type, commit, source digest), the
benchmark's `run` line (seed, input hash, sample count) and metrics table
per process, the host's steal time over each workload, and last one JSON
object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the load runs
in five fresh processes of a fifth of --seconds each, one set-up and one
timed run apiece, and each metric is the median over them (ok_share comes
from the summed request counts). A fresh process lands its threads and
memory anew, so a run is not hostage to one unlucky placement on a shared
host. --trace 1 reports the per-layer metrics plus the attribution table,
from one process. `--workload all` runs the three workloads in turn and
ends with one combined object whose metric
names carry the workload as a prefix. --smoke is the benchmark's own
test: every workload tiny, traced and untraced, checking that every
named metric is present with its unit and that a corrupted reply is
caught. It exits 0 when all checks pass.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "covest_bench")
WORKLOADS = ("corpus_batch", "ring_suite", "serve_mixed")
PARTS = 5  # Processes per untraced run.
RUN_BUDGET_S = 165  # Every process of one call, after the build.
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("covest sources not found at %s; the benchmark builds them" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "covest_bench", "covest_bench_gen"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], done.returncode))


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    """HEAD of the repository the benchmark sits in, if it is one."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "none"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts
    without git history."""
    paths = [os.path.join(ROOT, "CMakeLists.txt"),
             os.path.join(ROOT, "examples", "covest_gen.cpp")]
    for base in (os.path.join(ROOT, "src"), HERE):
        for d, _, files in os.walk(base):
            paths += [os.path.join(d, f) for f in files]
    h = hashlib.sha256()
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment(loadavg):
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in loadavg],
        "build_type": build_type(),
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def steal_s():
    """CPU seconds the hypervisor has withheld from this machine so far
    (the `steal` column of /proc/stat), or 0 where it is not reported."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0


def run_bench(workload, seed, seconds, trace, deadline, extra=()):
    """Runs the benchmark program once, to end by `deadline` (a
    time.monotonic() reading); returns (stdout lines, parsed result)."""
    cmd = [os.path.join(BUILD, "covest_bench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--gen", os.path.join(BUILD, "covest_bench_gen"),
           "--work", os.path.join(ROOT, ".bench_build", "work")] + list(extra)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("%s: %s" % (workload, e), 1)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail("%s: benchmark program exited %d" % (workload, done.returncode), 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s: last line is not JSON: %r" % (workload, lines[-1]), 1)
    return lines[:-1], result


def measure(workload, seed, seconds, trace, deadline, extra=(), parts=PARTS):
    """One workload's result. Traced: one process. Untraced: `parts`
    processes of seconds/parts each; every metric is the median over
    them, ok_share comes from the summed counts."""
    if trace:
        return run_bench(workload, seed, seconds, trace, deadline, extra)
    lines, results = [], []
    for _ in range(parts):
        out, result = run_bench(workload, seed, seconds / parts, 0, deadline,
                                extra)
        lines += out
        results.append(result)
    first = results[0].get("metrics", {})
    values = {}
    for name in first:
        try:
            values[name] = [float(r["metrics"][name]["value"]) for r in results]
        except (KeyError, TypeError, ValueError):
            fail("%s: processes disagree on metric %s" % (workload, name), 1)
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    metrics = {name: {"value": statistics.median(v),
                      "unit": first[name].get("unit")}
               for name, v in values.items()}
    if "ok_share" in metrics:
        metrics["ok_share"]["value"] = 1.0 - failed / max(attempted, 1)
    lines.append(json.dumps({"parts": values}))
    return lines, {"correct": all(r.get("correct") is True for r in results),
                   "attempted": attempted, "failed": failed,
                   "metrics": metrics}


def check_metrics(spec, result, trace):
    """Problems with `result` against BENCHMARK.json's metric list."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted %r" % result.get("attempted"))
    if spec is None:
        return problems
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("missing metric %s" % m["name"])
        elif got.get("unit") != m["unit"]:
            problems.append("%s unit %r, want %r" % (m["name"], got.get("unit"),
                                                     m["unit"]))
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append("%s value %r" % (m["name"], got.get("value")))
    return problems


def smoke(spec):
    """The benchmark's own test. Returns the process exit code."""
    if spec is None:
        fail("BENCHMARK.json not found at %s" % ROOT)
    failures = []
    for workload in WORKLOADS:
        def check(trace, extra):
            # Untraced: two one-second processes, the median path cheaply.
            return measure(workload, 7, 2.0 if trace == 0 else 1.0, trace,
                           time.monotonic() + RUN_BUDGET_S, extra, parts=2)[1]

        for trace in (0, 1):
            result = check(trace, ["--smoke"])
            problems = check_metrics(spec, result, trace)
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append("clean run not correct: %s" % {
                    k: result.get(k) for k in ("correct", "attempted", "failed")})
            failures += ["%s trace=%d: %s" % (workload, trace, p)
                         for p in problems]
        bad = check(0, ["--smoke", "--corrupt"])
        if bad.get("correct") is not False or bad.get("failed", 0) < 1 or \
                bad["metrics"]["ok_share"]["value"] >= 1.0:
            failures.append("%s: corrupted reply not caught: %s" % (
                workload, {k: bad.get(k) for k in ("correct", "failed")}))
        print("smoke: %s %s" % (workload, "FAIL" if failures else "ok"))
    for f in failures:
        print("smoke failure: " + f)
    print("smoke: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's self-test and exit")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    loadavg = os.getloadavg()
    spec = load_spec()
    build()
    env = environment(loadavg)
    print(json.dumps({"env": env}))
    if env["build_type"] != "Release":
        fail("build type %r is not Release; refusing to measure" %
             env["build_type"])
    if args.smoke:
        sys.exit(smoke(spec))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    result = None
    for workload in workloads:
        start, stolen = time.monotonic(), steal_s()
        lines, result = measure(workload, args.seed, args.seconds, args.trace,
                                start + RUN_BUDGET_S)
        problems = check_metrics(spec, result, args.trace)
        if problems:
            fail("%s: %s" % (workload, "; ".join(problems)), 1)
        for line in lines:
            print(line)
        # Host steal slows the wall-clock figures of every workload, and
        # corpus_batch's most; it is recorded to read a run by, not used.
        print(json.dumps({"steal_cpus": round(
            (steal_s() - stolen) / (time.monotonic() - start), 3)}))
        combined["correct"] = combined["correct"] and result["correct"] is True
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = m
        if len(workloads) > 1:
            print(json.dumps(result))
    print(json.dumps(combined if len(workloads) > 1 else result))


if __name__ == "__main__":
    main()
