#!/usr/bin/env python3
"""Builds and runs the LogLens end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload d1-batch --seed 1 --seconds 40 --trace 0

Configures and builds perfbench/ (the LogLens libraries from src/ plus the
loglens_e2e program, Release) under $CARGO_TARGET_DIR or .bench_build, then
runs one workload. The program's human-readable report goes to stdout; its
last line is the JSON result. Build output goes to stderr. The exit status
is the program's (0 when every output check passed); a failed build exits 3
without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("d1-batch", "d4-batch", "d1-live")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds loglens_e2e; returns its path or None."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    rc = subprocess.call(
        ["cmake", "--build", build_dir, "--target", "loglens_e2e", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        return None
    return os.path.join(build_dir, "loglens_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        print("perfbench: loglens_e2e printed no result (exit %d)"
              % proc.returncode, file=sys.stderr)
        return proc.returncode or 5
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
