#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 qbench/selftest.py

Run from the repository root; builds into $CARGO_TARGET_DIR (default
.bench_build). Checks, per workload:
  * the same seed gives identical input and output digests, and another
    seed gives different inputs;
  * every reported metric name matches [A-Za-z0-9_.-]+ and the reported
    sets are exactly BENCHMARK.json's end-to-end and per-layer lists;
  * the traced run's Chrome trace file passes the repo's
    `telemetry_check --trace`, and its spans cover >= 95% of op time;
and, for the comparison in compare.py, that a synthetic 2x-slower copy of
real results is flagged as a regression while the results themselves are
not. Exits 1 on the first failure.
"""
import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def fail(why):
    print("FAIL: " + why)
    sys.exit(1)


def bench(binary, workload, seed, trace, trace_out=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.01", "--trace", str(trace),
           "--expected", os.path.join(HERE, "expected.txt")]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        fail("%s exited %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[-2])["qbench_meta"]
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        fail("%s seed %d: failures %s" % (workload, seed, meta["failures"]))
    return proc.stdout, meta, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    for name in e2e + layer:
        if not NAME.match(name):
            fail("metric name %r" % name)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = run.build(build_dir)
    if binary is None or subprocess.run(
            ["cmake", "--build", build_dir, "--target", "telemetry_check"],
            stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build")
    telemetry_check = os.path.join(build_dir, "telemetry_check")

    outputs = []
    for workload in [w["name"] for w in spec["workloads"]]:
        out1, meta1, result = bench(binary, workload, 3, 0)
        _, meta2, _ = bench(binary, workload, 3, 0)
        _, meta3, _ = bench(binary, workload, 4, 0)
        for key in ("input_digest", "output_digest"):
            if meta1[key] != meta2[key]:
                fail("%s: %s differs between runs of one seed" %
                     (workload, key))
        if meta1["input_digest"] == meta3["input_digest"]:
            fail("%s: seeds 3 and 4 give the same inputs" % workload)
        if sorted(result["metrics"]) != sorted(e2e):
            fail("%s: end-to-end metrics %s" % (workload,
                                                sorted(result["metrics"])))
        outputs.append(out1)

        with tempfile.TemporaryDirectory(dir=build_dir) as tmp:
            trace_file = os.path.join(tmp, "trace.json")
            _, _, traced = bench(binary, workload, 3, 1, trace_file)
            if sorted(traced["metrics"]) != sorted(layer):
                fail("%s: per-layer metrics %s" %
                     (workload, sorted(traced["metrics"])))
            for name in traced["metrics"]:
                if not NAME.match(name):
                    fail("reported metric name %r" % name)
            coverage = traced["metrics"]["obs.span_coverage"]["value"]
            if coverage < 0.95:
                fail("%s: span coverage %.3f < 0.95" % (workload, coverage))
            if subprocess.run([telemetry_check, "--trace",
                               trace_file]).returncode:
                fail("%s: telemetry_check rejected the trace" % workload)
        print("ok: %s" % workload)

    # The comparison must flag a doctored 2x slowdown and pass the same
    # results unchanged.
    with tempfile.TemporaryDirectory(dir=build_dir) as tmp:
        base, slow = [], []
        for i, out in enumerate(outputs):
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            metrics["ops_per_s"]["value"] /= 2
            for name in ("op_p50_s", "setup_s"):
                metrics[name]["value"] *= 2
            for kind, text in (("base", out),
                               ("slow", "\n".join(lines[:-1] +
                                                  [json.dumps(result)]))):
                path = os.path.join(tmp, "%s%d.out" % (kind, i))
                with open(path, "w") as f:
                    f.write(text + "\n")
                (base if kind == "base" else slow).append(path)
        compare = [sys.executable, os.path.join(HERE, "compare.py"),
                   "--base"] + base
        if subprocess.run(compare + ["--new"] + base,
                          stdout=subprocess.DEVNULL).returncode != 0:
            fail("compare.py flags identical results")
        if subprocess.run(compare + ["--new"] + slow,
                          stdout=subprocess.DEVNULL).returncode == 0:
            fail("compare.py misses a 2x slowdown")
    print("ok: compare flags a 2x slowdown")
    print("all selftests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
