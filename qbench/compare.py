#!/usr/bin/env python3
"""Compares benchmark runs of a base commit and a changed commit.

    python3 qbench/compare.py --base base/*.out --new new/*.out

Each file holds the stdout of one `qbench/run.py ... --trace 0` run. Runs
are grouped by workload (read from the driver's `qbench_meta` line). For
every workload and every end-to-end metric in BENCHMARK.json, the change's
median is compared with the base's: a change that is worse by more than
the metric's `bound` (a share of the base median) is a regression. Where
the base's own spread (quartile distance over median) exceeds the bound,
the metric is reported as unresolved rather than unchanged. Exits 1 on
any regression or on any run that reports `correct: false`.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(paths):
    """Returns {workload: [metrics dict]} and a list of incorrect runs."""
    runs, bad = {}, []
    for path in paths:
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        meta = next(json.loads(l)["qbench_meta"] for l in lines
                    if l.startswith('{"qbench_meta"'))
        result = json.loads(lines[-1])
        if not result["correct"]:
            bad.append(path)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(meta["workload"], []).append(metrics)
    return runs, bad


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def compare(base, new, spec):
    """Yields (workload, metric, base_median, new_median, worse_by, verdict)."""
    for workload in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            b = [r[name] for r in base[workload] if name in r]
            n = [r[name] for r in new[workload] if name in r]
            if not b or not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            if m["better"] == "lower":
                worse_by = (nm - bm) / bm if bm else 0.0
                all_better = max(n) < min(b)
            else:
                worse_by = (bm - nm) / bm if bm else 0.0
                all_better = min(n) > max(b)
            if worse_by > bound:
                verdict = "REGRESSION"
            elif spread(b) > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            yield workload, name, bm, nm, worse_by, verdict


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    base, bad_base = load_runs(args.base)
    new, bad_new = load_runs(args.new)
    failed = bool(bad_new)
    for path in bad_base + bad_new:
        print("incorrect run: %s" % path)
    print("%-10s %-12s %14s %14s %9s  %s" %
          ("workload", "metric", "base median", "new median", "worse by",
           "verdict"))
    for workload, name, bm, nm, worse_by, verdict in compare(base, new, spec):
        print("%-10s %-12s %14.6g %14.6g %8.1f%%  %s" %
              (workload, name, bm, nm, 100 * worse_by, verdict))
        failed |= verdict == "REGRESSION"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
