#!/usr/bin/env bash
# Entry point of the end-to-end benchmark (BENCHMARK.json "command"):
#
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds iq_e2e and iq_e2e_trace from source under .bench_build/e2e at the
# repository root (the first run in a checkout compiles; later runs only
# check), then runs one workload in one process: iq_e2e for --trace 0,
# iq_e2e_trace for --trace 1. The binary's last stdout line is the result
# object; its full report (with provenance) lands in .bench_build/reports/
# and a traced run's Chrome trace in .bench_build/traces/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"

usage() {
  echo "usage: $0 --workload NAME --seed N --seconds S [--trace 0|1]" >&2
  exit 2
}

workload="" seed="" seconds="" trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --*=*) flag="${1%%=*}" value="${1#*=}"; shift ;;
    --*) [ $# -ge 2 ] || usage; flag="$1" value="$2"; shift 2 ;;
    *) usage ;;
  esac
  case "$flag" in
    --workload) workload="$value" ;;
    --seed) seed="$value" ;;
    --seconds) seconds="$value" ;;
    --trace) trace="$value" ;;
    *) usage ;;
  esac
done
[ -n "$workload" ] && [ -n "$seed" ] && [ -n "$seconds" ] || usage
case "$trace" in 0) binary=iq_e2e ;; 1) binary=iq_e2e_trace ;; *) usage ;; esac

# The benchmark measures the library in this checkout; without its sources
# there is nothing to build or run.
if [ ! -f "$root/src/CMakeLists.txt" ]; then
  echo "run.sh: no library sources at $root/src" >&2
  exit 1
fi

out="$root/.bench_build"
build="$out/e2e"
mkdir -p "$out/reports" "$out/traces"
jobs="$(nproc 2>/dev/null || echo 2)"
[ "$jobs" -le 4 ] || jobs=4
if ! {
  if [ ! -f "$build/CMakeCache.txt" ]; then
    generator=()
    if command -v ninja >/dev/null; then generator=(-G Ninja); fi
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release "${generator[@]}"
  fi
  cmake --build "$build" --target iq_e2e iq_e2e_trace -j "$jobs"
} >"$out/build.log" 2>&1; then
  cat "$out/build.log" >&2
  echo "run.sh: build failed" >&2
  exit 1
fi

extra=()
if [ "$trace" = 1 ]; then
  extra=(--trace-out="$out/traces/$workload-$seed.json")
fi
export IQ_GIT_SHA="${IQ_GIT_SHA:-$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)}"
exec "$build/$binary" --workload="$workload" --seed="$seed" \
  --seconds="$seconds" --json="$out/reports/$workload-$seed-trace$trace.json" \
  "${extra[@]}"
