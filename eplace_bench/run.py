#!/usr/bin/env python3
"""Builds the placer benchmark from this checkout and runs one workload.

    python3 eplace_bench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run it from the root of the repository. The first call configures and builds
a Release build of the placer libraries and the eplace_bench binary in
.bench_build/ (about a minute on 4 cores); later calls only let the build
check that nothing changed. The binary writes its inputs under .bench_work/
and its result files under bench_results/.

The binary prints one "workload metric value unit" line per metric and, as
the last line, one JSON object {"correct", "attempted", "failed", "metrics"}.
This script checks that object against BENCHMARK.json (every end-to-end
metric with --trace 0, every per-layer metric with --trace 1, each with its
unit) and forwards the output. It exits non-zero without printing a result
when the checkout holds no placer sources, the build fails, the binary fails
or times out, or the metrics do not match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "eplace_bench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures on first use, then builds the benchmark target."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no placer sources next to eplace_bench/ (src/CMakeLists.txt)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append([
            "cmake", "-S", ROOT, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
            "-DCMAKE_PROJECT_INCLUDE=" +
            os.path.join(ROOT, "eplace_bench", "eplace_bench.cmake")
        ])
    steps.append([
        "cmake", "--build", BUILD, "--target", "eplace_bench", "-j",
        str(os.cpu_count() or 1)
    ])
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "bench_build.log"), "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail("build failed; see .bench_build/bench_build.log")


def check_result(line, specs):
    """Returns an error message, or None when `line` is a valid result."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last output line is not JSON"
    if not isinstance(res, dict) or set(res) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    metrics = res["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    if set(metrics) != set(want):
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(metrics)), sorted(set(metrics) - set(want)))
    for name, m in metrics.items():
        value = m.get("value")
        if m.get("unit") != want[name]:
            return "%s has unit %r, BENCHMARK.json says %r" % (
                name, m.get("unit"), want[name])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "%s is not a finite number" % name
    return None


def run_one(workload, args, bench):
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    cmd = [
        BINARY, "--workload", workload, "--seed", str(args.seed), "--seconds",
        str(args.seconds), "--trace", str(args.trace)
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("%s printed nothing (exit %d)" % (workload, proc.returncode))
    err = check_result(lines[-1], specs)
    if err:
        fail("%s: %s" % (workload, err))
    print("\n".join(lines), flush=True)
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("no BENCHMARK.json at the repository root")
    with open(bench_path) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail("unknown workload %r; choose from %s or all" % (args.workload,
                                                              names))
    if args.seed < 1:
        fail("--seed must be >= 1")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    build()
    rc = 0
    for w in workloads:
        rc = run_one(w, args, bench) or rc
    sys.exit(rc)


if __name__ == "__main__":
    main()
