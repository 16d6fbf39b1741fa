#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py [--runs 10] [WORKLOAD ...]

Runs perfbench/run.py once per seed (1..runs) on each workload (default:
every workload in BENCHMARK.json) and prints, per metric, the median,
the quartiles and the interquartile range as a share of the median,
next to the metric's bound.  Exits non-zero if a run fails or a spread
exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for w in names:
        values = {}
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                print("%s seed %d: exit %d\n%s" % (w, seed, r.returncode,
                                                   r.stderr[-2000:]))
                return 1
            res = json.loads(lines[-1])
            ok &= res["correct"] and res["failed"] == 0
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print("%s (%d runs)" % (w, args.runs))
        print("  %-30s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "iqr/med", "bound"))
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[k]
            flag = ""
            if spread > bound:
                flag, ok = " OVER", False
            elif spread > bound / 3:
                flag = " (>1/3 bound)"
            print("  %-30s %12.6g %12.6g %12.6g %8.4f %6s%s" %
                  (k, med, q1, q3, spread, bound, flag))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
