#!/usr/bin/env python3
"""Build and run the FxHENN end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload mnist-b1 --seed 1 --seconds 20 --trace 0

The script builds perfbench/ (which compiles src/ from source) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs the
fxbench binary, checks its result against BENCHMARK.json and prints
the host identity line and then the result as the last line of
standard output:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json; with --trace 1 they are the per_layer metrics
(perfbench/README.md says which workload supplies which metric). Spans
of a traced run are written under $CARGO_TARGET_DIR/perfbench-traces/.

Exit status is 0 when a result was printed, non-zero (with no result)
when the build, the run or the result check failed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure and build incrementally. @return the binary path."""
    build_dir = os.path.join(target_dir(), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") and not os.path.exists(
                os.path.join(build_dir, "CMakeCache.txt")):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(os.cpu_count() or 1)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "fxbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def check_result(result, trace):
    """Match the binary's metrics to BENCHMARK.json; @return the error or None."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys {sorted(result)}"
    if result["attempted"] < 1:
        return "no operation attempted"
    metrics = result["metrics"]
    declared = declared_metrics(trace)
    names = {m["name"] for m in declared}
    extra = sorted(set(metrics) - names)
    if extra:
        return f"metrics not declared in BENCHMARK.json: {extra}"
    ordered = {}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            return f"metric {m['name']} missing"
        if got["unit"] != m["unit"]:
            return f"{m['name']}: unit {got['unit']}, declared {m['unit']}"
        ordered[m["name"]] = got
    result["metrics"] = ordered
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(target_dir(), "perfbench-traces")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    if run.returncode != 0:
        log(f"fxbench exited with {run.returncode}")
        return run.returncode
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("fxbench printed no result line")
        return 1
    error = check_result(result, bool(args.trace))
    if error:
        log(error)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
