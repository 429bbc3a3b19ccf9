#ifndef IQ_OBS_TRACE_ANALYSIS_H_
#define IQ_OBS_TRACE_ANALYSIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

// Span-dump ingestion + analysis (DESIGN.md §11) — the tools/iq_trace core,
// testable in-process. One line scanner reads both dump kinds the obs/trace.h
// collector writes, and each gets its report:
//
//  * retained traces (/tracez, micro_parallel --scrape-tracez=, an
//    engine's dump-on-error file) answer *where did this slow or failed
//    call spend its wall-clock?* For each trace it
//    reconstructs the span tree, walks the critical path (at every span,
//    descend into the child whose interval ends last), attributes self
//    time along it, and rolls up per-name self time across the trace;
//  * profile windows (/profilez, micro_parallel --profile=) answer *where
//    does the wall-clock go when threads are added?* From the ParallelFor
//    chunk spans and mutex hold spans of each window it computes per-site
//    chunk imbalance (max / median chunk duration), the serial fraction
//    (1 - union of chunk spans / window) with its Amdahl projections,
//    per-thread busy/idle, lock wait by site, and a tiered verdict.

namespace iq {

/// One span parsed back from a /tracez dump. Mirrors TraceEvent with owned
/// strings (the dump outlives no static literals).
struct ParsedSpan {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  std::string name;
  int tid = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  int64_t arg0 = TraceEvent::kNoArg;
  int64_t arg1 = TraceEvent::kNoArg;
  int64_t arg2 = TraceEvent::kNoArg;
};

/// One retained trace parsed back from a /tracez dump.
struct ParsedTrace {
  uint64_t trace_id = 0;
  std::string op;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  bool erred = false;
  int num_threads = 0;
  /// The summary's num_spans; more than spans.size() = a truncated dump.
  size_t declared_spans = 0;
  std::string error;  // status text of an erred trace
  std::vector<ParsedSpan> spans;
};

/// One mutex construction site over a profile window, summed from its hold
/// spans.
struct MutexSiteReport {
  std::string label;  // construction-site label ("IqEngine::mu_")
  std::string rank;   // LockRankName(rank)
  uint64_t acquisitions = 0;
  uint64_t contended = 0;
  uint64_t wait_nanos = 0;
  uint64_t max_wait_nanos = 0;
  uint64_t held_nanos = 0;
};

/// One profile window parsed back from a dump: its "profile_window" line
/// plus the "span" lines that follow it.
struct ParsedProfileWindow {
  std::string label;  // caller-chosen window name ("solve_batch/threads=4")
  bool enabled = true;  // false: placeholder from a process not profiling
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  /// Ring overwrites since the window opened: nonzero means the window is
  /// truncated and its numbers undercount.
  uint64_t dropped_records = 0;
  /// ParallelFor call + chunk spans and mutex hold spans (span id 0).
  std::vector<ParsedSpan> spans;
};

/// A whole dump: a /tracez payload (retention config, loss/retain counters,
/// traces), profile windows, or both.
struct TraceDump {
  bool has_config = false;    // a tracez "config" line was present
  bool has_counters = false;  // a tracez "counters" line was present
  bool tracez() const { return has_config || has_counters; }
  TraceTailConfig config;
  uint64_t dropped = 0;
  uint64_t slow_retained = 0;
  uint64_t discarded = 0;
  std::vector<ParsedTrace> traces;
  std::vector<ParsedProfileWindow> windows;
};

/// Parses a /tracez payload, a /profilez payload, a micro_parallel
/// --profile= dump, a dump-on-error file (obs/trace.h ErrorDumpJson), or
/// any concatenation of them. Tolerant line scanner: a
/// line's first key names its record, unknown lines are skipped, a
/// "trace_summary" or "profile_window" line opens a trace or window, and
/// "span" lines attach to the most recently opened one — no JSON library in
/// the tree.
TraceDump ParseTracezDump(const std::string& text);

/// One hop of a trace's critical path.
struct CriticalPathStep {
  std::string name;
  uint64_t span_id = 0;
  int tid = 0;
  uint64_t dur_ns = 0;
  /// This span's duration minus the chosen child's — wall-clock the path
  /// spent *here* rather than deeper in the tree.
  uint64_t self_ns = 0;
};

/// Per-span-name self time over one whole trace (duration minus the sum of
/// direct children), the "who burned the time" ranking.
struct SelfTimeRollup {
  std::string name;
  uint64_t self_ns = 0;
  uint64_t spans = 0;
};

/// Everything iq_trace reports about one retained trace.
struct TraceAnalysis {
  uint64_t trace_id = 0;
  std::string op;
  uint64_t dur_ns = 0;
  bool erred = false;
  std::string error;
  int num_threads = 0;
  size_t num_spans = 0;
  /// The summary's span count, and the spans carried with tid 0 (thread
  /// stamping broken); check_metrics.sh --trace fails on either mismatch.
  size_t declared_spans = 0;
  size_t unstamped_spans = 0;
  /// Root-to-leaf walk descending into the latest-ending child at each
  /// level. Because child intervals nest inside their parents, the steps'
  /// self times telescope back to the root duration.
  std::vector<CriticalPathStep> critical_path;
  /// Sum of self times along the path, and its share of the root duration.
  /// A healthy causal trace accounts for ~100% of the wall clock; a low
  /// fraction means orphaned spans (ring overwrites ate the parents).
  uint64_t accounted_ns = 0;
  double accounted_fraction = 0.0;
  std::vector<SelfTimeRollup> self_time;  // sorted by self_ns desc
};

/// Reconstructs the span tree and computes the critical path + rollups.
/// Traces without a root span (parent_span_id == 0) yield an analysis with
/// an empty critical_path and accounted_fraction 0.
TraceAnalysis AnalyzeTrace(const ParsedTrace& trace);

/// One sentence naming where the slow solve's wall-clock went — the span
/// name with the largest self time on the critical path — and, for an
/// erred trace, the error that kept it.
std::string TraceVerdict(const TraceAnalysis& analysis);

/// One ParallelFor call site over a profile window, from its chunk spans
/// (the children of kParallelForSpanName call spans).
struct ParallelSiteReport {
  std::string site;    // call-site label ("engine.solve_batch")
  uint64_t calls = 0;  // distinct ParallelFor invocations
  uint64_t chunks = 0;  // chunk spans
  int64_t items = 0;    // total items across chunks
  uint64_t busy_nanos = 0;      // sum of chunk durations
  uint64_t coverage_nanos = 0;  // union of this site's chunks (wall clock)
  uint64_t median_chunk_nanos = 0;
  uint64_t max_chunk_nanos = 0;
  /// max / median chunk duration; 1.0 = perfectly even, large = one
  /// straggler chunk serializes the call's tail.
  double imbalance = 1.0;
  /// Work-stealing telemetry: individual claims folded into the chunks and
  /// how many were beyond the claimant's fair share of the range. Static
  /// sites report claims == chunks, steals == 0.
  uint64_t claims = 0;
  uint64_t steals = 0;
};

/// One recording thread's split of the window: busy = union of the chunk
/// spans it ran, idle = the rest.
struct ThreadBusyReport {
  int tid = 0;
  uint64_t busy_nanos = 0;
  uint64_t idle_nanos = 0;
};

/// Everything the serialization report says about one profile window.
struct ProfileAnalysis {
  std::string label;
  bool enabled = true;
  uint64_t window_nanos = 0;
  uint64_t coverage_nanos = 0;    // union of ALL chunk spans in the window
  double serial_fraction = 1.0;   // 1 - coverage/window
  uint64_t total_wait_nanos = 0;  // mutex wait over all sites
  uint64_t dropped_records = 0;
  std::vector<MutexSiteReport> mutexes;            // by wait desc, from holds
  std::vector<ParallelSiteReport> parallel_sites;  // by busy desc
  std::vector<ThreadBusyReport> threads;           // by tid

  /// Amdahl projection from serial_fraction: 1 / (s + (1-s)/n).
  double ProjectedSpeedup(int n) const;
};

ProfileAnalysis AnalyzeProfileWindow(const ParsedProfileWindow& window);

/// Names the dominant serialization mechanism in one window, tiered: lock
/// contention (wait >= 5% of the window) beats chunk imbalance (>= 2.0 at
/// a site with >= 4 chunks covering >= 20% of the window) beats the serial
/// fraction ceiling (>= 0.25) beats "no dominant serialization".
std::string ProfileVerdict(const ProfileAnalysis& analysis);

/// Human-readable report over a whole dump: for retained traces the
/// retention config, loss counters, and per trace the critical path, the
/// top `top_n` self-time rows and a verdict; for profile windows the serial
/// fraction, Amdahl projections, top `top_n` mutexes and parallel sites,
/// thread busy/idle, and the last window's verdict.
std::string FormatTraceReport(const TraceDump& dump, int top_n);

/// Machine form of the same: {"iq_trace": {"num_traces": N, ...,
/// "num_profiles": M, ...}} with the input's tracez "config" / "counters"
/// lines when it had them, and one "trace_analysis" / "path_step" /
/// "self_time" / "profile_analysis" / "parallel_site" / "mutex_site" /
/// "thread" object per line — consumed by tools/check_metrics.sh
/// --trace/--profile and the trace-smoke CI lane. Every string is escaped.
std::string TraceReportJson(const TraceDump& dump);

}  // namespace iq

#endif  // IQ_OBS_TRACE_ANALYSIS_H_
