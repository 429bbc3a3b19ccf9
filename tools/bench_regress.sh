#!/usr/bin/env bash
# Continuous-benchmark pipeline (DESIGN.md §9).
#
# Run mode (default):
#   tools/bench_regress.sh [--out=PATH] [--quick]
#
#   Runs the five micro-benchmarks (micro_ese, micro_solver, micro_rtree with
#   --benchmark_repetitions, micro_parallel best-of, micro_churn) with their
#   fixed builtin seeds and merges the tracked p50s plus run metadata (git
#   SHA, build type, thread count) into one JSON report (default:
#   BENCH_5.json in the repo root). The google-benchmark medians are the
#   tracked p50s; micro_parallel contributes its per-path per-thread-count
#   best-of seconds; micro_churn contributes its churn-window solve/apply
#   p50 latencies (epoch-snapshot readers under writer churn).
#
# Compare mode:
#   tools/bench_regress.sh --compare OLD.json NEW.json
#
#   Prints a per-key table and exits non-zero when any tracked p50 regressed
#   by more than the threshold (default 20%, override IQ_BENCH_THRESHOLD as
#   a fraction, e.g. 0.20), or when NEW is missing a key OLD tracks (a
#   silently vanished benchmark must not read as a pass).
#
# Environment:
#   BUILD_DIR              build tree with the bench binaries (default: build)
#   IQ_BENCH_MIN_TIME      google-benchmark --benchmark_min_time (default 0.05)
#   IQ_BENCH_REPETITIONS   repetitions for the medians (default 3)
#   IQ_BENCH_THRESHOLD     compare-mode regression threshold (default 0.20)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
MIN_TIME="${IQ_BENCH_MIN_TIME:-0.05}"
REPS="${IQ_BENCH_REPETITIONS:-3}"
THRESHOLD="${IQ_BENCH_THRESHOLD:-0.20}"
OUT="BENCH_5.json"
PAR_ARGS=(--n=2000 --m=400 --reps=2)
CHURN_ARGS=(--n=1000 --m=300 --readers=4 --applies=100 --reads=100)

if [[ "${1:-}" == "--compare" ]]; then
  [[ $# -eq 3 ]] || { echo "usage: $0 --compare OLD.json NEW.json" >&2; exit 2; }
  exec python3 - "$2" "$3" "$THRESHOLD" <<'PYEOF'
import json, sys

old_path, new_path, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3])
old = json.load(open(old_path))
new = json.load(open(new_path))
old_tracked = old.get("tracked", {})
new_tracked = new.get("tracked", {})

# Legacy reports (schema v1) stored hardware_concurrency as the global
# run.num_threads, which says nothing about how any individual benchmark
# ran. Drop it before looking at the run block: since schema v2 each
# tracked entry carries its own num_threads, and that is the value that
# must match for a p50 comparison to mean anything.
for run in (old.get("run") or {}, new.get("run") or {}):
    run.pop("num_threads", None)

regressed, missing = [], []
print(f"comparing {old_path} ({old.get('run', {}).get('git_sha', '?')}) -> "
      f"{new_path} ({new.get('run', {}).get('git_sha', '?')}), "
      f"threshold +{threshold:.0%}")
for key in sorted(old_tracked):
    ov = old_tracked[key]["p50"]
    nv = new_tracked.get(key, {}).get("p50")
    if nv is None:
        print(f"  MISSING   {key}")
        missing.append(key)
        continue
    if ov <= 0:
        continue
    ratio = nv / ov
    verdict = "REGRESSED" if ratio > 1 + threshold else "ok"
    unit = old_tracked[key].get("unit", "")
    ot = old_tracked[key].get("num_threads")
    nt = new_tracked[key].get("num_threads")
    note = ""
    if ot is not None and nt is not None and ot != nt:
        # Different thread counts: the ratio is apples-to-oranges, so say so
        # loudly rather than fail or silently pass.
        note = f" [num_threads {ot} -> {nt}: not comparable]"
    print(f"  {verdict:9s} {key}  {ov:.4g} -> {nv:.4g} {unit} "
          f"({ratio - 1:+.1%}){note}")
    if verdict == "REGRESSED":
        regressed.append(key)
for key in sorted(set(new_tracked) - set(old_tracked)):
    print(f"  NEW       {key}")

if regressed or missing:
    print(f"FAIL: {len(regressed)} regressed, {len(missing)} missing")
    sys.exit(1)
print(f"PASS: {len(old_tracked)} tracked p50s within +{threshold:.0%}")
PYEOF
fi

for arg in "$@"; do
  case "$arg" in
    --out=*) OUT="${arg#--out=}" ;;
    --quick)
      MIN_TIME=0.01
      PAR_ARGS=(--n=800 --m=200 --reps=1)
      CHURN_ARGS=(--n=400 --m=120 --readers=2 --applies=30 --reads=30)
      ;;
    *) echo "unknown flag: $arg (known: --out= --quick --compare)" >&2; exit 2 ;;
  esac
done

for bin in micro_ese micro_solver micro_rtree micro_parallel micro_churn; do
  [[ -x "$BUILD_DIR/bench/$bin" ]] || {
    echo "missing $BUILD_DIR/bench/$bin -- build first (cmake --build $BUILD_DIR)" >&2
    exit 2
  }
done

IQ_GIT_SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export IQ_GIT_SHA
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

for bin in micro_ese micro_solver micro_rtree; do
  echo "== $bin (repetitions=$REPS, min_time=$MIN_TIME) =="
  "$BUILD_DIR/bench/$bin" \
    --benchmark_repetitions="$REPS" \
    --benchmark_report_aggregates_only=true \
    --benchmark_min_time="$MIN_TIME" \
    --json="$TMP/$bin.json"
done
echo "== micro_parallel (${PAR_ARGS[*]}) =="
"$BUILD_DIR/bench/micro_parallel" "${PAR_ARGS[@]}" --json="$TMP/micro_parallel.json"
echo "== micro_churn (${CHURN_ARGS[*]}) =="
"$BUILD_DIR/bench/micro_churn" "${CHURN_ARGS[@]}" --json="$TMP/micro_churn.json"

python3 - "$TMP" "$OUT" <<'PYEOF'
import json, os, sys

# Schema v2: every tracked entry records the thread count that benchmark
# actually ran with (google-benchmark's per-benchmark "threads" field, or
# the micro_parallel cell's thread count). The run block keeps the
# machine's core count under the honest name "host_cpus" — the old global
# "num_threads" conflated the two and compare mode now ignores it.
tmp, out = sys.argv[1], sys.argv[2]
merged = {"schema": "iq-bench-regress-v2", "run": None, "tracked": {}}

for name in ("micro_ese", "micro_solver", "micro_rtree"):
    report = json.load(open(os.path.join(tmp, name + ".json")))
    ctx = report.get("context", {})
    if merged["run"] is None:
        merged["run"] = {
            "git_sha": ctx.get("git_sha", "unknown"),
            "build_type": ctx.get("build_type", "unknown"),
            "host_cpus": int(ctx.get("num_threads") or 0),
        }
    for bench in report.get("benchmarks", []):
        if bench.get("aggregate_name") != "median":
            continue
        base = bench.get("run_name") or bench["name"].rsplit("_median", 1)[0]
        merged["tracked"][f"{name}/{base}"] = {
            "p50": bench["real_time"],
            "unit": bench.get("time_unit", "ns"),
            "num_threads": int(bench.get("threads") or 1),
        }

par = json.load(open(os.path.join(tmp, "micro_parallel.json")))
for path in par.get("paths", []):
    for cell in path.get("cells", []):
        key = f"micro_parallel/{path['path']}/threads={cell['threads']}"
        merged["tracked"][key] = {
            "p50": cell["seconds"],
            "unit": "s",
            # 0 is the serial fallback: no pool, one thread of execution.
            "num_threads": max(1, int(cell["threads"])),
        }

churn = json.load(open(os.path.join(tmp, "micro_churn.json")))
for w in churn.get("windows", []):
    if w.get("window") != "churn":
        continue  # reader_only is the lock-free gate, not a latency track
    readers = int(churn.get("readers") or 1)
    for field in ("solve_p50_nanos", "apply_p50_nanos"):
        merged["tracked"][f"micro_churn/{field}"] = {
            "p50": w[field],
            "unit": "ns",
            # The writer publishes from the driver thread while `readers`
            # reader threads solve: that concurrency level is what the
            # latency is measured under.
            "num_threads": readers + 1,
        }

with open(out, "w") as f:
    json.dump(merged, f, indent=1, sort_keys=True)
    f.write("\n")
print(f"{out}: {len(merged['tracked'])} tracked p50s "
      f"@ {merged['run']['git_sha']}")
PYEOF
