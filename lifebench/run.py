#!/usr/bin/env python3
"""Builds and runs the BornSQL lifecycle benchmark.

Run from the root of a checkout:

    python3 lifebench/run.py --workload lifecycle --seed 1 --seconds 30 --trace 0

The first run configures and builds lifebench/ (against src/) into
.bench_build/; later runs rebuild incrementally. The last line of standard
output is the result object {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the Chrome trace_event JSON of the run is written to
.bench_build/trace-<workload>-<seed>.json. --record FILE appends the run's
provenance and result to FILE as one JSON line, the input of compare.py.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def describe():
    """Workloads and metrics as BENCHMARK.json states them."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return "(BENCHMARK.json not found: workloads are lifecycle, " \
               "serve_predict)"
    lines = ["workloads:"]
    lines += ["  %-14s %s" % (w["name"], w["why"]) for w in spec["workloads"]]
    lines.append("end-to-end metrics (--trace 0):")
    lines += ["  %-26s %-6s %s is better" % (m["name"], m["unit"], m["better"])
              for m in spec["end_to_end"]]
    lines.append("per-layer metrics (--trace 1):")
    lines += ["  %-34s %s" % (m["name"], m["unit"]) for m in spec["per_layer"]]
    return "\n".join(lines)


def parse_args():
    parser = argparse.ArgumentParser(
        description="BornSQL lifecycle benchmark.", epilog=describe(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["lifecycle", "serve_predict"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--record", metavar="FILE",
                        help="append provenance and result to FILE (JSONL)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def fail(message):
    print("lifebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no BornSQL sources at %s/src; run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "lifebench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    args = parse_args()
    build()
    cmd = [os.path.join(BUILD, "lifebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    if args.record:
        meta = next(json.loads(l)["meta"] for l in lines
                    if l.startswith('{"meta"'))
        with open(args.record, "a") as f:
            f.write(json.dumps({"meta": meta, "result": result}) + "\n")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
