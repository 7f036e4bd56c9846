#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

The first run configures a Release build of perfbench/ (which compiles the
GoCast library from src/) into .bench_build/; later runs rebuild
incrementally. The workload itself runs in a fresh single-threaded process.
Its last stdout line is relayed as this script's last line, after checking
it against the metrics BENCHMARK.json declares for the mode (end-to-end with
--trace 0, per-layer with --trace 1). With --trace 1 the sampled spans are
written to .bench_build/spans-<workload>-<seed>.jsonl.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("steady", "stream", "recovery")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def cached_build_type():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8") as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configures (once) and builds the perfbench target; output to stderr."""
    if cached_build_type() != "Release":
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not os.path.exists(
                os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return False
    # Same refusal as tools/bench.sh: only Release binaries are measured.
    if cached_build_type() != "Release":
        log(f"refusing a non-Release build ({cached_build_type()})")
        return False
    return True


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(result, trace):
    """Checks the result line against BENCHMARK.json.

    The metrics must be exactly the set declared for the mode, with the
    declared units. Returns the result in declared order, or None when the
    line is malformed.
    """
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log("result line has the wrong keys")
        return None
    declared = declared_metrics(trace)
    metrics = result["metrics"]
    unknown = sorted(name for name, m in metrics.items()
                     if declared.get(name) != m.get("unit"))
    missing = sorted(set(declared) - set(metrics))
    if unknown or missing:
        log(f"metrics differ from BENCHMARK.json: unknown or wrong unit "
            f"{unknown}, missing {missing}")
        return None
    if result["attempted"] < 1:
        log("nothing attempted")
        return None
    result["metrics"] = {name: metrics[name] for name in declared}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD_DIR, f"spans-{args.workload}-{args.seed}.jsonl")]
    env = dict(os.environ, GOCAST_THREADS="1")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"perfbench exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line is not JSON")
        return 1
    result = check_result(result, args.trace)
    if result is None:
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
