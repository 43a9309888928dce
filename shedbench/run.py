#!/usr/bin/env python3
"""Builds the shedbench binary from source and runs one measurement.

Usage, from the repository root:

    python3 shedbench/run.py --workload batch_shed --seed 1 --seconds 30 \
        --trace 0

The build goes to .bench_build/shedbench (CMake, Release). The binary's
human-readable table goes to stderr; the last line of stdout is the JSON
result {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
spans of the traced run are written to .bench_build/traces/. The script
exits non-zero, printing no result, when the build or the run fails or the
result does not list exactly the metrics BENCHMARK.json declares.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "shedbench")
BINARY = os.path.join(BUILD_DIR, "shedbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"shedbench/run.py: {message}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"build step {step[:2]} failed: {error}")
            return False
        if done.returncode != 0:
            log(f"build step {step[:2]} exited with {done.returncode}")
            return False
    return os.path.exists(BINARY)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in group}


def valid_result(line, trace):
    try:
        result = json.loads(line)
        expected = declared_metrics(trace)
    except (ValueError, OSError, KeyError) as error:
        log(f"unreadable result or BENCHMARK.json: {error}")
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"result keys {sorted(result)}")
        return False
    got = {name: entry.get("unit") for name, entry in result["metrics"].items()}
    if got != expected:
        units = [n for n in got if n in expected and got[n] != expected[n]]
        log(f"metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(got))}, "
            f"extra {sorted(set(got) - set(expected))}, units {units}")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"shedbench exited with {done.returncode}")
        return 1
    if not valid_result(lines[-1], args.trace):
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
