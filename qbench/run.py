#!/usr/bin/env python3
"""Builds the qimap benchmark driver from source and runs one workload.

    python3 qbench/run.py --workload exchange --seed 1 --seconds 20 --trace 0

Run from the repository root. The driver is built with CMake into
$CARGO_TARGET_DIR (default .bench_build) from qbench/CMakeLists.txt, which
compiles the qimap libraries under src/. Build output goes to stderr; the
driver's result JSON is the last line of stdout. With --trace 1 the
traced pass's bench-side spans are written as Chrome trace JSON to
<build dir>/trace-<workload>-<seed>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures and builds qimap_bench; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "qimap_bench",
         "-j", jobs],
    ]
    for step in steps:
        # Build chatter must not reach stdout: its last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            return None
    return os.path.join(build_dir, "qimap_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        print("qbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected.txt")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
