#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench from source into
.bench_build/perfbench (incrementally after the first time), then runs
it with the recorded oracle table.  Build output goes to stderr, so the
last line on stdout is the benchmark's JSON result.  Extra arguments
(e.g. --size test) are passed through to the binary.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
EXPECT = os.path.join(HERE, "expected.tsv")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the benchmark; exit on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: program sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def run(args):
    """Run the built binary; @return its exit code."""
    workload = "unknown"
    trace = "0"
    for flag, value in zip(args, args[1:]):
        if flag == "--workload":
            workload = value
        elif flag == "--trace":
            trace = value
    out = os.path.join(BUILD, "result-%s-trace%s.json" % (workload, trace))
    cmd = [BINARY] + args + ["--expect", EXPECT, "--out", out]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


def main():
    build()
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
