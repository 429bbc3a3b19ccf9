#!/usr/bin/env bash
# Sanity-checks a metrics snapshot JSON (as written by
# `micro_ese --metrics-json=...` or the figure runners' --json= report):
# the paper-critical counters must exist and be non-zero, otherwise the
# instrumentation has silently rotted.
#
#   tools/check_metrics.sh [--pool|--scan|--exporter|--profile|--epoch] path/to/metrics.json
#
# --pool additionally requires the parallel-execution counters
# (iq.pool.tasks etc.) to have moved — pass it for snapshots produced by a
# pooled run (micro_parallel --json=...); serial runs legitimately leave
# them at zero.
#
# --scan checks a snapshot from a run of the ESE scan path alone
# (micro_ese --benchmark_filter='BM_EseScan|BM_MinCostIq'): the scan must
# have credited reuse (iq.ese.queries_reused > 0) with no wedge evaluation
# to account for it, so a reach bound that silently falls back to full
# scans fails (DESIGN.md §2, §7).
#
# --exporter validates a scraped /metrics payload (Prometheus text
# exposition, as written by --scrape-metrics= or `curl /metrics`) instead of
# a JSON snapshot: the required counters must be present and non-zero under
# their Prometheus names, every sample line must be preceded by # HELP and
# # TYPE lines, and histograms must expose _bucket/_sum/_count series.
#
# --profile validates an iq_trace --json= machine report over profile
# windows (DESIGN.md §11): at least one analyzed window, every
# serial_fraction in [0, 1], no dropped records (a truncated profile must
# not pass), and a non-empty profile_verdict sentence.
#
# --epoch validates the epoch-snapshot gauges/counters (DESIGN.md §12) on a
# scraped /metrics payload from a run that published at least one update
# (micro_churn --scrape-metrics=...): iq_index_epoch must be past the build
# epoch, retirement must have run (iq_index_epochs_retired > 0), COW must
# have cloned cells (iq_index_cow_cells_cloned > 0), and the number of live
# epochs must be a small positive count, not a leak.
#
# --trace validates an iq_trace --json= machine report over a scraped
# /tracez payload (DESIGN.md §11) from a run with a forced-low slow-trace
# threshold: the payload's tail-capture config and counter blocks must
# have been present, at least one trace must have been retained, every
# retained trace must carry spans, each trace must carry every span its
# summary declared (a truncated dump fails), and no span may have tid 0.
# An optional second argument names a /metrics scrape to cross-check the
# iq_trace_* mirror counters against the report.
#
#   tools/check_metrics.sh --trace trace-report.json [metrics_scrape.txt]
set -u

check_pool=0
check_scan=0
check_exporter=0
check_profile=0
check_epoch=0
check_trace=0
if [ "${1:-}" = "--pool" ]; then
  check_pool=1
  shift
elif [ "${1:-}" = "--scan" ]; then
  check_scan=1
  shift
elif [ "${1:-}" = "--exporter" ]; then
  check_exporter=1
  shift
elif [ "${1:-}" = "--profile" ]; then
  check_profile=1
  shift
elif [ "${1:-}" = "--epoch" ]; then
  check_epoch=1
  shift
elif [ "${1:-}" = "--trace" ]; then
  check_trace=1
  shift
fi
want_args=1
if [ "$check_trace" -eq 1 ] && [ $# -eq 2 ]; then
  want_args=2
fi
if [ $# -ne "$want_args" ] || [ ! -f "$1" ]; then
  echo "usage: $0 [--pool|--scan|--exporter|--profile|--epoch] metrics.json" >&2
  echo "       $0 --trace trace-report.json [metrics_scrape.txt]" >&2
  exit 2
fi
json="$1"
failures=0

if [ "$check_trace" -eq 1 ]; then
  # iq_trace machine report over a /tracez payload.
  if ! grep -q '"iq_trace":' "$json"; then
    echo "check_metrics: $json is not an iq_trace --json= report" >&2
    echo "check_metrics: FAILED (1 problem(s))" >&2
    exit 1
  fi
  if ! grep -qE '"config": \{"slow_trace_nanos": -?[0-9]+' "$json"; then
    echo "check_metrics: tail-capture config block missing — the input" \
         "was not a /tracez payload" >&2
    failures=$((failures + 1))
  fi
  for c in dropped slow_retained discarded; do
    if ! grep -qE "\"counters\": \{.*\"$c\": [0-9]+" "$json"; then
      echo "check_metrics: counter \"$c\" missing from the tracez payload" >&2
      failures=$((failures + 1))
    fi
  done
  num_traces="$(grep -oE '"num_traces": [0-9]+' "$json" \
                | grep -oE '[0-9]+$' || true)"
  num_traces="${num_traces:-0}"
  num_spans="$(grep -oE '"num_spans": [0-9]+' "$json" | grep -oE '[0-9]+$' \
               | awk '{s += $1} END {print s + 0}')"
  if [ "$num_traces" -eq 0 ]; then
    echo "check_metrics: no retained traces — tail capture never fired" \
         "(is slow_trace_nanos low enough?)" >&2
    failures=$((failures + 1))
  else
    echo "check_metrics: $num_traces retained trace(s), $num_spans span(s)"
  fi
  if [ "$num_traces" -gt 0 ] && [ "$num_spans" -eq 0 ]; then
    echo "check_metrics: retained traces carry no spans — ring capture" \
         "is not wired to retention" >&2
    failures=$((failures + 1))
  fi
  # Each trace must carry every span its summary declared.
  truncated="$(grep '"trace_analysis":' "$json" | awk '
    { n = ""; d = "" }
    match($0, /"num_spans": [0-9]+/) { n = substr($0, RSTART + 13, RLENGTH - 13) }
    match($0, /"declared_spans": [0-9]+/) { d = substr($0, RSTART + 18, RLENGTH - 18) }
    n != d { bad++ }
    END { print bad + 0 }')"
  if [ "$truncated" -gt 0 ]; then
    echo "check_metrics: $truncated trace(s) carry a span count other than" \
         "their summary declares — the dump is truncated" >&2
    failures=$((failures + 1))
  fi
  # Every span must name its thread; tid 0 means stamping is broken.
  unstamped="$(grep -oE '"unstamped_spans": [0-9]+' "$json" \
               | grep -oE '[0-9]+$' | awk '{s += $1} END {print s + 0}')"
  if [ "$unstamped" -gt 0 ]; then
    echo "check_metrics: $unstamped span(s) with tid 0 — thread stamping" \
         "broken" >&2
    failures=$((failures + 1))
  fi
  retained_tz="$(grep -oE '"slow_retained": [0-9]+' "$json" \
                 | grep -oE '[0-9]+$' | head -n1 || true)"
  if [ $# -eq 2 ] && [ -f "$2" ]; then
    # Cross-check the metric mirrors in the Prometheus scrape.
    scrape="$2"
    for name in iq_trace_dropped iq_trace_slow_retained iq_trace_discarded; do
      if ! grep -qE "^${name} [0-9]+$" "$scrape"; then
        echo "check_metrics: $name missing from $scrape" >&2
        failures=$((failures + 1))
      fi
    done
    retained_prom="$(grep -E '^iq_trace_slow_retained [0-9]+$' "$scrape" \
                     | grep -oE '[0-9]+$' || true)"
    if [ -n "$retained_prom" ] && [ -n "$retained_tz" ] && \
       [ "$retained_prom" -lt "$retained_tz" ]; then
      echo "check_metrics: iq_trace_slow_retained ($retained_prom) <" \
           "report slow_retained ($retained_tz) — mirror out of sync" >&2
      failures=$((failures + 1))
    else
      echo "check_metrics: iq_trace_slow_retained = ${retained_prom:-?}"
    fi
  fi
  if [ "$failures" -gt 0 ]; then
    echo "check_metrics: FAILED ($failures problem(s))" >&2
    exit 1
  fi
  echo "check_metrics: OK (trace report)"
  exit 0
fi

if [ "$check_profile" -eq 1 ]; then
  # iq_trace machine report over profile windows, not a metrics snapshot.
  num_profiles="$(grep -oE '"num_profiles": [0-9]+' "$json" \
                  | grep -oE '[0-9]+$' || true)"
  if [ -z "$num_profiles" ] || [ "$num_profiles" -eq 0 ]; then
    echo "check_metrics: no profiles in $json" >&2
    failures=$((failures + 1))
  else
    echo "check_metrics: $num_profiles profile(s)"
  fi
  analyses="$(grep -c '"profile_analysis":' "$json" || true)"
  if [ -z "$num_profiles" ] || [ "$analyses" -ne "$num_profiles" ]; then
    echo "check_metrics: profile_analysis count ($analyses) !=" \
         "num_profiles ($num_profiles)" >&2
    failures=$((failures + 1))
  fi
  windows="$(grep -c '"window_nanos":' "$json" || true)"
  if [ "$windows" -eq 0 ]; then
    echo "check_metrics: no window_nanos fields — reports are empty" >&2
    failures=$((failures + 1))
  fi
  # Every serial fraction must be a sane ratio in [0, 1].
  bad_fraction=0
  for f in $(grep -oE '"serial_fraction": [0-9.eE+-]+' "$json" \
             | sed 's/.*: //'); do
    ok="$(awk -v x="$f" 'BEGIN { print (x >= 0 && x <= 1) ? 1 : 0 }')"
    if [ "$ok" -ne 1 ]; then
      echo "check_metrics: serial_fraction $f outside [0, 1]" >&2
      bad_fraction=1
    fi
  done
  failures=$((failures + bad_fraction))
  # A truncated window (ring overwrites) undercounts: it must not pass as
  # a complete profile.
  dropped="$(grep -oE '"dropped_records": [0-9]+' "$json" \
             | grep -oE '[0-9]+$' | awk '{s += $1} END {print s + 0}')"
  if [ "$dropped" -gt 0 ]; then
    echo "check_metrics: $dropped records dropped — the profile is" \
         "truncated" >&2
    failures=$((failures + 1))
  fi
  verdict="$(grep -oE '"profile_verdict": "[^"]+"' "$json" || true)"
  if [ -z "$verdict" ]; then
    echo "check_metrics: profile_verdict missing — iq_trace must name the" \
         "serialization point" >&2
    failures=$((failures + 1))
  else
    echo "check_metrics: $verdict"
  fi
  if [ "$failures" -gt 0 ]; then
    echo "check_metrics: FAILED ($failures problem(s))" >&2
    exit 1
  fi
  echo "check_metrics: OK (profile report)"
  exit 0
fi

if [ "$check_epoch" -eq 1 ]; then
  # Scraped Prometheus payload from an epoch-publishing run.
  prom_value() {
    grep -E "^$1 -?[0-9]+$" "$json" | grep -oE '\-?[0-9]+$' || true
  }

  epoch="$(prom_value iq_index_epoch)"
  if [ -z "$epoch" ]; then
    echo "check_metrics: iq_index_epoch missing from $json" >&2
    failures=$((failures + 1))
  elif [ "$epoch" -le 1 ]; then
    echo "check_metrics: iq_index_epoch = $epoch — no update ever" \
         "published (expected > 1 after churn)" >&2
    failures=$((failures + 1))
  else
    echo "check_metrics: iq_index_epoch = $epoch"
  fi

  retired="$(prom_value iq_index_epochs_retired)"
  if [ -z "$retired" ] || [ "$retired" -eq 0 ]; then
    echo "check_metrics: iq_index_epochs_retired missing or zero —" \
         "superseded epochs are not being retired" >&2
    failures=$((failures + 1))
  else
    echo "check_metrics: iq_index_epochs_retired = $retired"
  fi

  cloned="$(prom_value iq_index_cow_cells_cloned)"
  if [ -z "$cloned" ] || [ "$cloned" -eq 0 ]; then
    echo "check_metrics: iq_index_cow_cells_cloned missing or zero —" \
         "COW deltas are not cloning touched cells" >&2
    failures=$((failures + 1))
  else
    echo "check_metrics: iq_index_cow_cells_cloned = $cloned"
  fi

  live="$(prom_value iq_index_epochs_live)"
  if [ -z "$live" ]; then
    echo "check_metrics: iq_index_epochs_live missing from $json" >&2
    failures=$((failures + 1))
  elif [ "$live" -lt 1 ] || [ "$live" -gt 8 ]; then
    # The scraping process holds one engine (1 live epoch) plus at most a
    # few transiently pinned readers; dozens live = retirement leak.
    echo "check_metrics: iq_index_epochs_live = $live outside [1, 8] —" \
         "epoch retirement is leaking (or the engine died)" >&2
    failures=$((failures + 1))
  else
    echo "check_metrics: iq_index_epochs_live = $live"
  fi

  if [ "$failures" -gt 0 ]; then
    echo "check_metrics: FAILED ($failures problem(s))" >&2
    exit 1
  fi
  echo "check_metrics: OK (epoch gauges)"
  exit 0
fi

if [ "$check_exporter" -eq 1 ]; then
  # Prometheus text-exposition payload, not a JSON snapshot.
  required_prom='
iq_ese_queries_reranked
iq_index_full_reranks
'
  for name in $required_prom; do
    value="$(grep -E "^${name} [0-9]+$" "$json" | grep -oE '[0-9]+$' || true)"
    if [ -z "$value" ]; then
      echo "check_metrics: $name missing from scraped payload $json" >&2
      failures=$((failures + 1))
    elif [ "$value" -eq 0 ]; then
      echo "check_metrics: $name is zero — instrumentation not firing" >&2
      failures=$((failures + 1))
    else
      echo "check_metrics: $name = $value"
    fi
  done
  # Exposition-format sanity: every metric family needs # HELP and # TYPE.
  help_count="$(grep -c '^# HELP ' "$json")"
  type_count="$(grep -c '^# TYPE ' "$json")"
  if [ "$help_count" -eq 0 ] || [ "$help_count" -ne "$type_count" ]; then
    echo "check_metrics: HELP/TYPE mismatch ($help_count HELP," \
         "$type_count TYPE)" >&2
    failures=$((failures + 1))
  else
    echo "check_metrics: $type_count metric families with HELP+TYPE"
  fi
  # Every histogram family must expose cumulative buckets ending in +Inf
  # plus its _sum and _count series.
  for hist in $(grep -E '^# TYPE [a-zA-Z0-9_:]+ histogram$' "$json" \
                | awk '{print $3}'); do
    for want in "^${hist}_bucket{le=\"+Inf\"} " "^${hist}_sum " "^${hist}_count "; do
      if ! grep -qF -- "$(printf '%s' "$want" | sed 's/^\^//')" "$json"; then
        echo "check_metrics: histogram $hist missing series ${want}" >&2
        failures=$((failures + 1))
      fi
    done
  done
  if [ "$failures" -gt 0 ]; then
    echo "check_metrics: FAILED ($failures problem(s))" >&2
    exit 1
  fi
  echo "check_metrics: OK (exporter payload)"
  exit 0
fi

# Counters that any ESE-evaluating run must advance.
required_counters='
iq.ese.queries_reranked
iq.rtree.nodes_expanded
iq.index.full_reranks
'
if [ "$check_pool" -eq 1 ]; then
  # Pooled runs (micro_parallel) drive the scan-path evaluators and the
  # index build but not the geometric wedge retrieval, so the R-tree
  # counter is dropped in favor of the parallel-layer set.
  required_counters='
iq.ese.queries_reranked
iq.index.full_reranks
iq.pool.tasks
iq.index.parallel_rank_batches
iq.engine.batch_items
'
fi
if [ "$check_scan" -eq 1 ]; then
  # The scan path alone: no wedge search runs, so the R-tree counter stays
  # at zero, and the reuse must come from the reach bound.
  required_counters='
iq.ese.queries_reranked
iq.ese.queries_reused
iq.ese.scan_evaluations
'
  wedge="$(grep -oE '"iq.ese.wedge_evaluations": [0-9]+' "$json" \
           | grep -oE '[0-9]+$' || true)"
  if [ -n "$wedge" ] && [ "$wedge" -gt 0 ]; then
    echo "check_metrics: --scan snapshot ran $wedge wedge evaluations;" \
         "its reuse would not be the scan's" >&2
    failures=$((failures + 1))
  fi
fi

for name in $required_counters; do
  # The snapshot emits flat `"name": value` pairs; grep is enough.
  value="$(grep -oE "\"${name}\": [0-9]+" "$json" | grep -oE '[0-9]+$' || true)"
  if [ -z "$value" ]; then
    echo "check_metrics: $name missing from $json" >&2
    failures=$((failures + 1))
  elif [ "$value" -eq 0 ]; then
    echo "check_metrics: $name is zero — instrumentation not firing" >&2
    failures=$((failures + 1))
  else
    echo "check_metrics: $name = $value"
  fi
done

# The wedge path must have recorded reuse whenever it ran at all.
wedge="$(grep -oE '"iq.ese.wedge_evaluations": [0-9]+' "$json" \
         | grep -oE '[0-9]+$' || true)"
if [ -n "$wedge" ] && [ "$wedge" -gt 0 ]; then
  reused="$(grep -oE '"iq.ese.queries_reused": [0-9]+' "$json" \
            | grep -oE '[0-9]+$' || true)"
  if [ -z "$reused" ] || [ "$reused" -eq 0 ]; then
    echo "check_metrics: wedge evaluations ran but iq.ese.queries_reused" \
         "is zero — ESE reuse accounting broken" >&2
    failures=$((failures + 1))
  else
    echo "check_metrics: iq.ese.queries_reused = $reused"
  fi
fi

if [ "$failures" -gt 0 ]; then
  echo "check_metrics: FAILED ($failures problem(s))" >&2
  exit 1
fi
echo "check_metrics: OK"
