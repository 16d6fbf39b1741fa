#!/usr/bin/env bash
# Guard the simulator's scheduler hot path against perf regressions:
# run the micro_core engine comparison and diff its per-(engine,
# kernel) warp-MIPS throughput against the committed baseline in
# bench/baselines/BENCH_micro_core.baseline.json.  Fails when any row
# shared with the baseline regresses by more than 25% — wide enough to
# absorb loaded-CI noise (micro_core already takes the min over
# repetitions), tight enough to catch an accidental O(n) insertion in
# the warp-scheduler loop (the PC-sampling work's documented budget is
# one relaxed load when disabled).
#
# The guard is two-sided: a row more than 25% FASTER than the baseline
# also fails.  An unexpected speedup usually means the engine stopped
# doing work it should do (a skipped charge, a dropped differential
# check) or the baseline is stale; either way a human should look and,
# if the speedup is real, refresh the baseline deliberately.
#
# Absolute MIPS only mean something on the machine that recorded them,
# so the row diff applies only when the fresh run's host fingerprint
# (nproc, CPU model, build type) equals the baseline's; otherwise it is
# reported as skipped.  A within-run ratio gate applies on every host:
# serial_traced must beat serial_predecode on the throughput kernel by
# at least 3x (trace_speedup, the trace engine's acceptance ratio).
#
# The multi-tenant driver-service path is gated the same way:
# BENCH_mt_driver's aggregate launches/sec is diffed against
# bench/baselines/BENCH_mt_driver.baseline.json.  Its bounds are wider
# (0.40x / 2.50x) because the metric is wall-clock over four host
# threads on a shared CI box, not a min-over-repetitions count — the
# guard is there to catch an accidental global-lock serialisation of
# the stream service (an order-of-magnitude collapse), not 20% jitter.
#
# The live telemetry plane (docs/observability.md "Live telemetry")
# is gated on *absolute* bounds, not a baseline diff: every run of
# BENCH_fig_telemetry_overhead must report passivity (exact counters
# bit-identical with the full plane on vs everything off) and <= 5%
# exporter wall-clock overhead on the mt_driver load.  Flow-tracing
# overhead is reported but not gated — it is proportional to the
# event rate the user asked to record.  The binary asserts the same
# bounds in its exit status; the guard re-checks the artifact so a
# stale or hand-edited JSON cannot sneak past.
#
# The correctness-observability checks (docs/observability.md,
# "Correctness checking") are gated on absolute bounds the same way:
# every BENCH_fig_sancheck_overhead run must report a zero simulated-
# cycle delta (the checks are passive), zero violations on the clean
# workloads (no false positives), and a bounded mean wall-clock
# slowdown with all four checks on.
#
# The SimPoint targeted-sampling pipeline (docs/simpoint.md) is gated
# on *absolute* methodology bounds rather than a ratio diff: every
# workload row in BENCH_fig_simpoint.json must report >= 3x
# simulated-work reduction and <= 5% extrapolation error on each
# validated metric (the fig_simpoint binary asserts the same bounds in
# its exit status; the guard re-checks the artifact so a stale or
# hand-edited JSON cannot sneak past).  The committed baseline is kept
# for drift comparison of the clustering itself: a changed k or chosen
# count for the same workload means the deterministic pipeline changed
# behaviour and a human should confirm it was intentional.
#
# Usage: scripts/bench_guard.sh [--update]
#   --update   refresh the committed baselines from fresh runs instead
#              of diffing (use on a quiet machine, then commit).
set -euo pipefail

cd "$(dirname "$0")/.."

baseline=bench/baselines/BENCH_micro_core.baseline.json
fresh=BENCH_micro_core.json
threshold=0.75 # fresh/baseline warp-MIPS ratio below this fails
upper=1.25     # ...and above this fails too (unexpected improvement)
min_trace_speedup=3.0 # within-run ratio, gated on every host

mt_baseline=bench/baselines/BENCH_mt_driver.baseline.json
mt_fresh=BENCH_mt_driver.json
mt_threshold=0.40 # launches/sec ratio bounds (wall-clock, noisier)
mt_upper=2.50

sp_baseline=bench/baselines/BENCH_fig_simpoint.baseline.json
sp_fresh=BENCH_fig_simpoint.json
sp_min_reduction=3.0 # absolute methodology bounds (ISSUE acceptance)
sp_max_error=5.0

tel_fresh=BENCH_fig_telemetry_overhead.json
tel_max_overhead=5.0 # absolute bounds; passivity must also hold

san_fresh=BENCH_fig_sancheck_overhead.json
san_max_overhead=3.5 # mean all-checks-on wall-clock ratio budget

if [[ ! -x build/bench/micro_core ]]; then
    echo "bench_guard: build/bench/micro_core missing (build first)" >&2
    exit 1
fi
if [[ ! -x build/bench/mt_driver ]]; then
    echo "bench_guard: build/bench/mt_driver missing (build first)" >&2
    exit 1
fi
if [[ ! -x build/bench/fig_simpoint ]]; then
    echo "bench_guard: build/bench/fig_simpoint missing (build first)" >&2
    exit 1
fi
if [[ ! -x build/bench/fig_telemetry_overhead ]]; then
    echo "bench_guard: build/bench/fig_telemetry_overhead missing" \
         "(build first)" >&2
    exit 1
fi
if [[ ! -x build/bench/fig_sancheck_overhead ]]; then
    echo "bench_guard: build/bench/fig_sancheck_overhead missing" \
         "(build first)" >&2
    exit 1
fi

echo "==> bench_guard: running micro_core engine comparison"
./build/bench/micro_core --benchmark_filter=BM_CacheModel \
    --benchmark_min_time=0.01 >/dev/null

echo "==> bench_guard: running mt_driver load generator"
./build/bench/mt_driver >/dev/null

echo "==> bench_guard: running fig_simpoint sampling validation"
./build/bench/fig_simpoint >/dev/null

echo "==> bench_guard: running fig_telemetry_overhead"
./build/bench/fig_telemetry_overhead >/dev/null

echo "==> bench_guard: running fig_sancheck_overhead"
./build/bench/fig_sancheck_overhead --smoke >/dev/null

if [[ "${1:-}" == "--update" ]]; then
    mkdir -p "$(dirname "$baseline")"
    cp "$fresh" "$baseline"
    cp "$mt_fresh" "$mt_baseline"
    cp "$sp_fresh" "$sp_baseline"
    echo "bench_guard: baselines updated from $fresh, $mt_fresh" \
         "and $sp_fresh"
    exit 0
fi

if [[ ! -s "$baseline" ]]; then
    echo "bench_guard: no baseline at $baseline (run --update)" >&2
    exit 1
fi
if [[ ! -s "$mt_baseline" ]]; then
    echo "bench_guard: no baseline at $mt_baseline (run --update)" >&2
    exit 1
fi
if [[ ! -s "$sp_baseline" ]]; then
    echo "bench_guard: no baseline at $sp_baseline (run --update)" >&2
    exit 1
fi

python3 - "$baseline" "$fresh" "$threshold" "$upper" \
    "$min_trace_speedup" <<'EOF'
import json
import sys

baseline_path, fresh_path = sys.argv[1], sys.argv[2]
threshold, upper = float(sys.argv[3]), float(sys.argv[4])
min_trace_speedup = float(sys.argv[5])
with open(baseline_path) as f:
    base = json.load(f)
with open(fresh_path) as f:
    fresh = json.load(f)

# Host-independent: a ratio of two rows of the same run.
speedup = fresh["trace_speedup"]
print(f"  trace_speedup {speedup:6.2f}x (min {min_trace_speedup}x) "
      f"{'OK' if speedup >= min_trace_speedup else 'REGRESSION'}")
if speedup < min_trace_speedup:
    print(f"bench_guard: the trace engine is less than "
          f"{min_trace_speedup}x faster than serial_predecode on the "
          f"throughput kernel", file=sys.stderr)
    sys.exit(1)

if base.get("host") != fresh.get("host"):
    print(f"  host {fresh.get('host')} differs from the baseline's "
          f"{base.get('host')}: absolute MIPS diff skipped")
    print("bench_guard: hot path within budget (ratio gate only)")
    sys.exit(0)

def rows(doc):
    return {(r["engine"], r["kernel"]): r for r in doc["engine_comparison"]}

base_rows, fresh_rows = rows(base), rows(fresh)
failed = False
for key in sorted(base_rows.keys() & fresh_rows.keys()):
    b = base_rows[key]["warp_mips"]
    f = fresh_rows[key]["warp_mips"]
    ratio = f / b if b else 1.0
    if ratio < threshold:
        status = "REGRESSION"
    elif ratio > upper:
        status = "UNEXPECTED IMPROVEMENT"
    else:
        status = "OK"
    print(f"  {key[1]:<12} {key[0]:<26} {b:8.2f} -> {f:8.2f} MIPS "
          f"({ratio:5.2f}x) {status}")
    if status != "OK":
        failed = True
if failed:
    print(f"bench_guard: hot-path throughput moved more than "
          f"{(1 - threshold) * 100:.0f}% from {baseline_path}; if the "
          f"change is intentional, rerun with --update and commit the "
          f"new baseline", file=sys.stderr)
    sys.exit(1)
print("bench_guard: hot path within budget")
EOF

python3 - "$mt_baseline" "$mt_fresh" "$mt_threshold" "$mt_upper" <<'EOF'
import json
import sys

baseline_path, fresh_path = sys.argv[1], sys.argv[2]
threshold, upper = float(sys.argv[3]), float(sys.argv[4])
with open(baseline_path) as f:
    base = json.load(f)
with open(fresh_path) as f:
    fresh = json.load(f)

b = base["launches_per_sec"]
f = fresh["launches_per_sec"]
ratio = f / b if b else 1.0
if ratio < threshold:
    status = "REGRESSION"
elif ratio > upper:
    status = "UNEXPECTED IMPROVEMENT"
else:
    status = "OK"
print(f"  mt_driver aggregate {b:10.0f} -> {f:10.0f} launches/sec "
      f"(p50 {fresh['p50_us']:.0f} us, p99 {fresh['p99_us']:.0f} us) "
      f"({ratio:5.2f}x) {status}")
if status != "OK":
    print(f"bench_guard: multi-tenant launch throughput moved outside "
          f"[{threshold}x, {upper}x] of {baseline_path}; if the change "
          f"is intentional, rerun with --update and commit the new "
          f"baseline", file=sys.stderr)
    sys.exit(1)
print("bench_guard: multi-tenant driver service within budget")
EOF

python3 - "$sp_baseline" "$sp_fresh" "$sp_min_reduction" \
    "$sp_max_error" <<'EOF'
import json
import sys

baseline_path, fresh_path = sys.argv[1], sys.argv[2]
min_reduction, max_error = float(sys.argv[3]), float(sys.argv[4])
with open(baseline_path) as f:
    base = json.load(f)
with open(fresh_path) as f:
    fresh = json.load(f)

# Absolute methodology bounds on the fresh run, per workload.
failed = False
for r in fresh["workloads"]:
    errs = [r["err_ipc"], r["err_l1"], r["err_l2"], r["err_occ"]]
    ok = r["reduction"] >= min_reduction and max(errs) <= max_error
    print(f"  {r['workload']:<12} {r['reduction']:7.2f}x reduction, "
          f"max err {max(errs):6.3f}% "
          f"{'OK' if ok else 'OUT OF BOUNDS'}")
    failed |= not ok
if failed:
    print(f"bench_guard: sampled replay fell below {min_reduction}x "
          f"work reduction or above {max_error}% extrapolation error "
          f"on some workload — the targeted-sampling methodology "
          f"contract (docs/simpoint.md) is broken", file=sys.stderr)
    sys.exit(1)

# Clustering drift vs the committed baseline: the pipeline is
# deterministic, so a changed k / chosen count for the same workload
# means its behaviour changed and needs a deliberate --update.
base_rows = {r["workload"]: r for r in base["workloads"]}
for r in fresh["workloads"]:
    b = base_rows.get(r["workload"])
    if b and (b["k"] != r["k"] or b["chosen"] != r["chosen"]):
        print(f"bench_guard: clustering drift on {r['workload']} "
              f"(k {b['k']} -> {r['k']}, chosen {b['chosen']} -> "
              f"{r['chosen']}); if intentional, rerun with --update "
              f"and commit the new baseline", file=sys.stderr)
        sys.exit(1)
print("bench_guard: targeted sampling within methodology bounds")
EOF

python3 - "$tel_fresh" "$tel_max_overhead" <<'EOF'
import json
import sys

fresh_path, max_overhead = sys.argv[1], float(sys.argv[2])
with open(fresh_path) as f:
    fresh = json.load(f)

# Absolute bounds on the fresh run (no baseline: the contract is not
# "as fast as last time" but "passive and under budget", always).
overhead = fresh["exporter_overhead_pct"]
full = fresh["full_overhead_pct"]
passive = fresh["passivity_ok"]
print(f"  telemetry exporter: {overhead:+6.2f}% overhead "
      f"(budget {max_overhead:.0f}%; full plane {full:+.2f}%, "
      f"reported), {'passive' if passive else 'NOT PASSIVE'}")
if not passive:
    print("bench_guard: telemetry-on run changed an exact counter — "
          "the passivity contract (docs/observability.md) is broken",
          file=sys.stderr)
    sys.exit(1)
if overhead > max_overhead:
    print(f"bench_guard: telemetry exporter overhead {overhead:.2f}% "
          f"exceeds the {max_overhead}% budget on the mt_driver load",
          file=sys.stderr)
    sys.exit(1)
print("bench_guard: telemetry exporter passive and within budget")
EOF

python3 - "$san_fresh" "$san_max_overhead" <<'EOF'
import json
import sys

fresh_path, max_overhead = sys.argv[1], float(sys.argv[2])
with open(fresh_path) as f:
    fresh = json.load(f)

# Absolute bounds (no baseline): the sanitizer contract is "passive,
# no false positives, bounded slowdown", not "as fast as last time".
delta = fresh["cycles_delta_sum"]
fps = fresh["false_positives"]
mean = fresh["mean_all_overhead"]
print(f"  sancheck: {mean:.3f}x mean all-checks-on overhead "
      f"(budget {max_overhead}x), cycles_delta {delta}, "
      f"false positives {fps}")
if delta != 0:
    print("bench_guard: sanitizer checks changed simulated cycles — "
          "the passivity contract (docs/observability.md) is broken",
          file=sys.stderr)
    sys.exit(1)
if fps != 0:
    print("bench_guard: sanitizer checks fired on clean workloads — "
          "false positives are an acceptance failure", file=sys.stderr)
    sys.exit(1)
if mean > max_overhead:
    print(f"bench_guard: mean all-checks-on overhead {mean:.3f}x "
          f"exceeds the {max_overhead}x budget", file=sys.stderr)
    sys.exit(1)
print("bench_guard: sanitizer checks passive, clean and within budget")
EOF
