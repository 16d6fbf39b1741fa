#!/usr/bin/env python3
"""Self-test of the benchmark (run from the repository root).

    python3 perfbench/selftest.py

Builds perfbench, then:
  1. runs every workload of BENCHMARK.json at `test` size, untraced and
     traced, and checks that each run passes its output checks and
     reports exactly the declared metrics with the declared units;
  2. runs each batch workload against an oracle table with one value
     changed, and checks that the run fails.
"""
import json
import os
import subprocess
import sys

import run

ROOT = run.ROOT


def invoke(workload, trace, expect):
    cmd = [run.BINARY, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "test",
           "--expect", expect]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = r.stdout.strip().splitlines()
    return r.returncode, json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    run.build()
    errors = []

    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            rc, res = invoke(w, trace, run.EXPECT)
            tag = "%s trace=%d" % (w, trace)
            if rc != 0 or res is None:
                errors.append("%s: exit %d" % (tag, rc))
                continue
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                errors.append("%s: checks failed: %s" % (tag, res))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != declared[trace]:
                errors.append("%s: metrics differ from BENCHMARK.json: %s"
                              % (tag, sorted(set(got.items()) ^
                                             set(declared[trace].items()))))
            print("ok   " + tag)

    # One wrong oracle value per batch workload must fail the run.
    wrong = {"spec-passive": ("ostencil", 4),   # cycles
             "spec-icount": ("olbm", 2),        # thread_instrs
             "ml-mdiv": ("alexnet", 5)}         # unique_sectors_sum
    with open(run.EXPECT) as f:
        table = f.read().splitlines()
    for w, (member, col) in wrong.items():
        rows = []
        for line in table:
            f = line.split()
            if f and f[0] == member and f[1] == "test":
                f[col] = str(int(f[col]) + 1)
                line = " ".join(f)
            rows.append(line)
        path = os.path.join(run.BUILD, "expected-wrong-%s.tsv" % w)
        with open(path, "w") as out:
            out.write("\n".join(rows) + "\n")
        rc, res = invoke(w, 0, path)
        if rc == 0 or res is None or res["correct"] or res["failed"] < 1:
            errors.append("%s: a wrong oracle value did not fail the run"
                          % w)
        else:
            print("ok   %s fails on a wrong oracle value" % w)

    for e in errors:
        print("FAIL " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
