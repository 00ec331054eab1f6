#!/usr/bin/env python3
"""Builds and runs the ITDOS end-to-end benchmark.

    python3 perfbench/run.py --workload small_serial --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into the build
directory named by $CARGO_TARGET_DIR, or .bench_build when unset; later
runs only rebuild what changed. Build output goes to stderr, so the last
line of stdout is always the benchmark's JSON result. Exits non-zero when
the build fails, the benchmark fails, or its result is malformed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("small_serial", "large_serial", "batched_open", "primary_crash")


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "itdos_perfbench")


def check_result(line):
    """Raises ValueError unless `line` is a well-formed result object."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys: %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a whole number >= 0")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            raise ValueError("malformed metric %s" % name)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as exc:
        print("perfbench: build failed: %s" % exc, file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        print("perfbench: benchmark exited with %d" % proc.returncode, file=sys.stderr)
        return proc.returncode
    try:
        result = check_result(lines[-1])
    except ValueError as exc:
        print("perfbench: bad result line: %s" % exc, file=sys.stderr)
        return 3
    return 0 if result["correct"] else 4


if __name__ == "__main__":
    sys.exit(main())
