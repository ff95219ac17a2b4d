#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds pimlib and the perfbench executable from source with the repository's
own CMake rules into .bench_build/, runs it, and prints its
output. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1
(per-layer metrics a workload does not exercise read 0). Build logs go
to standard error. Exits non-zero when the build fails, when the
executable finds a result that differs from its host reference, or when
its metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("run from the repository root: %s not found" % needed)
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    expected = expected_metrics(args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail("perfbench exited %d without a result" % done.returncode)
    for line in lines[:-1]:
        print(line)

    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(expected))
    if unknown:
        fail("metrics not in BENCHMARK.json: " + ", ".join(unknown))
    for name, m in metrics.items():
        if m["unit"] != expected[name]:
            fail("%s has unit %s, BENCHMARK.json says %s"
                 % (name, m["unit"], expected[name]))
    missing = sorted(set(expected) - set(metrics))
    if missing and not args.trace:
        fail("end-to-end metrics missing: " + ", ".join(missing))
    for name in missing:
        metrics[name] = {"value": 0, "unit": expected[name]}
    result["metrics"] = {name: metrics[name] for name in expected}
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
