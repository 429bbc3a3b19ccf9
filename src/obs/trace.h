#ifndef IQ_OBS_TRACE_H_
#define IQ_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/annotations.h"
#include "util/status.h"
#include "util/trace_context.h"

// Causal, request-scoped tracing with tail-based slow-solve capture, and
// the one span model the scalability profiler reads (DESIGN.md §11). Three
// layers:
//
//  * Scoped spans (PR 2, upgraded): IQ_TRACE_SCOPE("name") records a
//    completed scope into the calling thread's ring buffer. Spans now carry
//    a trace id / span id / parent span id read from the thread's
//    util/trace_context.h slot, which ThreadPool::ParallelFor propagates
//    into every chunk body — so the spans of one solve link into a tree
//    even when they ran on different workers. Each ParallelFor call and
//    each executed chunk is itself a span (ThreadPool::SpanRecorder, which
//    this module installs while tracing is on), so chunks carry their
//    item/claim/steal counts in the same rings.
//
//  * Root spans + tail retention: IQ_TRACE_ROOT_SCOPE(root, "op") opens a
//    *root* span at an engine entry point (every solve and every write). It
//    allocates a fresh trace id, installs the context, and at destruction
//    asks the collector to keep or discard the whole trace: retained iff
//    the call erred or its latency cleared the configured slow-trace
//    threshold — into a bounded last-K store served at /tracez. Discarding
//    is free (the scratch rings are simply left to be overwritten), which
//    is what makes always-on capture affordable in production. A TraceRoot
//    constructed while a trace is already active joins it as a child span
//    instead (per-item roots inside a SolveBatch root), so one batch is one
//    trace.
//
//  * Profile windows: ProfileSession (and /profilez) cuts a time window
//    out of the rings — the ParallelFor call/chunk spans inside it and the
//    mutex hold spans util/prof.h records — as a span dump that
//    obs/trace_analysis.h turns into the serialization report.
//
// Construction of TraceScope / TraceRoot outside this header is banned by
// iq_lint (direct-trace-record): instrumented code must use the macros so
// the compile-time gate (IQ_ENABLE_TRACING) keeps working.
//
// Two gates keep all of this off the hot path:
//  * build time — configure with -DIQ_ENABLE_TRACING=OFF and the macros
//    compile to nothing (the default presets keep it ON);
//  * run time — collection starts only after SetEnabled(true) (the engine
//    flips it when EngineOptions::slow_trace_nanos > 0 or event_dump_path
//    is set); a disabled scope costs a single relaxed atomic load
//    (bench/micro_solver.cc BM_TraceOverheadDisabled gates this).

namespace iq {

class Counter;

/// Monotonic clock for trace timestamps (util/timer.h MonotonicNanos, the
/// clock util/prof.h windows use too).
uint64_t TraceNowNanos();

/// One completed span. `name` must have static storage duration (the macros
/// pass string literals); the collector stores the pointer, not a copy.
/// trace/parent ids are 0 for flat spans recorded outside any root. A mutex
/// hold (util/prof.h) is the one span whose span id is 0 too.
struct TraceEvent {
  /// "unset" sentinel for the fixed arg payload (args are small facts like
  /// a candidate index or an epoch id, rendered only when set).
  static constexpr int64_t kNoArg = INT64_MIN;

  const char* name = nullptr;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  /// Collector-assigned id of the recording thread (stamped by Record).
  int tid = 0;
  int64_t arg0 = kNoArg;
  int64_t arg1 = kNoArg;
  /// Set by ParallelFor chunk spans, as (items, claims, steals), and by
  /// mutex holds, as (rank, acquisition wait or -1, carried held time).
  int64_t arg2 = kNoArg;
};

/// Tail-based retention policy (DESIGN.md §11): a finished root trace is
/// retained iff it erred or ran at least `slow_trace_nanos` (when > 0),
/// into a store of the last `max_retained` such traces.
struct TraceTailConfig {
  int64_t slow_trace_nanos = 0;
  size_t max_retained = 32;
};

/// One retained trace: the root solve's identity plus every span collected
/// from the scratch rings, sorted by start time.
struct RetainedTrace {
  uint64_t trace_id = 0;
  const char* op = nullptr;  // root span name ("IqEngine::SolveBatch")
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  bool erred = false;
  /// Status::ToString() of the failed call; empty unless `erred`.
  std::string error;
  std::vector<TraceEvent> spans;

  /// Distinct recording threads among `spans`.
  int NumThreads() const;
};

class TraceCollector {
 public:
  /// Events kept per thread; older events are overwritten once full.
  static constexpr size_t kRingCapacity = 1 << 13;

  static TraceCollector& Global();

  /// Starts/stops collection, and with it the ThreadPool span recorder
  /// (when tracing is compiled in).
  void SetEnabled(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Allocates a process-unique nonzero span/trace id.
  uint64_t NewId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends a completed span to the calling thread's ring buffer, stamping
  /// the thread's collector tid. Overwrites the oldest span when the ring
  /// is full (mirrored to iq.trace.dropped).
  void Record(TraceEvent e);

  /// All buffered events (every thread) as Chrome trace-event JSON — the
  /// same renderer as TraceJson, over the whole rings (whole-process
  /// captures like examples/trace_demo.cpp).
  std::string ToJson() const;
  /// ToJson() written to `path`.
  Status WriteJson(const std::string& path) const;

  /// Drops all buffered events (buffers stay registered to their threads).
  void Clear();

  /// Buffered events across all threads (ring overwrites included), and how
  /// many were overwritten — exposed so tests can assert ring semantics.
  size_t EventCount() const;
  uint64_t DroppedCount() const;

  /// Every buffered span that ran inside [start_ns, end_ns], sorted by
  /// start time — a profile window's spans, mutex holds included.
  std::vector<TraceEvent> SpansInWindow(uint64_t start_ns,
                                        uint64_t end_ns) const;

  // ---- tail-based capture (root spans; DESIGN.md §11) ----

  /// Installs the retention policy. Takes effect for roots finishing after
  /// the call.
  void ConfigureTailCapture(const TraceTailConfig& config);
  TraceTailConfig tail_config() const;

  /// Called by a finishing TraceRoot that owns its trace: applies the
  /// retention policy and, when the trace is kept, collects its spans from
  /// every thread's ring into the bounded last-K store. A non-empty `error`
  /// (the failed call's status text) marks the trace erred. Not user API —
  /// the root-span macro is the entry point.
  void FinishRoot(const char* op, uint64_t trace_id, uint64_t start_ns,
                  uint64_t dur_ns, std::string error);

  /// The retained slow traces, oldest first.
  std::vector<RetainedTrace> RetainedTraces() const;
  /// Drops all retained traces (counters keep running).
  void ClearRetained();

  /// Roots retained / discarded since process start (also mirrored to the
  /// metrics registry as iq.trace.slow_retained / iq.trace.discarded).
  uint64_t retained_total() const {
    return retained_total_.load(std::memory_order_relaxed);
  }
  uint64_t discarded_total() const {
    return discarded_total_.load(std::memory_order_relaxed);
  }

  /// The /tracez payload: retention config, drop/retain counters, and every
  /// retained trace with its spans. Line-oriented JSON (one "trace_summary"
  /// or "span" object per line) so tools/iq_trace re-ingests it with the
  /// tolerant line scanner in obs/trace_analysis.h.
  std::string TracezJson() const;

  /// Perfetto/Chrome JSON for one retained trace: "X" spans on per-thread
  /// lanes with thread-name metadata, and flow arrows binding cross-thread
  /// child spans to their parents. Empty string when `trace_id` is not in
  /// the store.
  std::string TraceJson(uint64_t trace_id) const;

 private:
  struct ThreadBuffer {
    /// Uncontended in steady state: only the owning thread records, and the
    /// lock is shared with readers only while a flush is running (which
    /// holds the registry lock first — hence the higher rank).
    Mutex mu{LockRank::kTraceBuffer, "TraceBuffer::mu"};
    /// Assigned once at registration, under the collector's mu_; read-only
    /// afterwards.  // iq-lint: allow(unguarded-member)
    int tid = 0;  // iq-lint: allow(unguarded-member)
    std::vector<TraceEvent> ring IQ_GUARDED_BY(mu);
    /// Events recorded since the last Clear(); next % kRingCapacity is the
    /// overwrite cursor, next - ring.size() the number overwritten.
    size_t next IQ_GUARDED_BY(mu) = 0;
  };

  TraceCollector();

  ThreadBuffer* BufferForThisThread();

  /// Copies every buffered span matching `keep(const TraceEvent&)` out of
  /// the rings, sorted by (start_ns, span_id). Defined in trace.cc, the
  /// only place it is instantiated.
  template <typename Keep>
  std::vector<TraceEvent> CollectSpans(Keep keep) const;

  mutable Mutex mu_{LockRank::kTraceRegistry, "TraceCollector::mu_"};
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ IQ_GUARDED_BY(mu_);
  int next_tid_ IQ_GUARDED_BY(mu_) = 1;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};

  // Tail-capture state. Config knobs are relaxed atomics so the per-root
  // discard decision takes no lock.
  std::atomic<int64_t> slow_trace_nanos_{0};
  std::atomic<size_t> max_retained_{32};
  std::atomic<uint64_t> retained_total_{0};
  std::atomic<uint64_t> discarded_total_{0};

  /// Bounded last-K slow-trace store. Rank kTraceStore: only ever taken
  /// with no other trace lock held (FinishRoot collects first, inserts
  /// after releasing the registry/buffer locks).
  mutable Mutex store_mu_{LockRank::kTraceStore, "TraceCollector::store_mu_"};
  std::deque<RetainedTrace> retained_ IQ_GUARDED_BY(store_mu_);

  /// Metric mirrors (iq.trace.*), resolved once in the constructor so
  /// incrementing under the ring locks is a lock-free atomic add.
  Counter* dropped_counter_ = nullptr;        // iq-lint: allow(unguarded-member)
  Counter* slow_retained_counter_ = nullptr;  // iq-lint: allow(unguarded-member)
  Counter* discarded_counter_ = nullptr;      // iq-lint: allow(unguarded-member)
};

/// The one span implementation behind IQ_TRACE_SCOPE, IQ_TRACE_ROOT_SCOPE
/// and ParallelFor's call/chunk spans (not user API — use the macros).
/// Opens a child of the calling thread's current span or, with
/// `new_trace`, the root of a fresh trace (its span id doubles as the trace
/// id), and makes it the thread's current span.
OpenSpan OpenTraceSpan(bool new_trace);

/// Records `span` under `name` with its args, restores its parent as the
/// thread's current span, and returns the span's duration.
uint64_t CloseTraceSpan(OpenSpan span, const char* name, int64_t arg0,
                        int64_t arg1, int64_t arg2 = TraceEvent::kNoArg);

/// RAII body of IQ_TRACE_SCOPE. The enabled check happens at construction;
/// a scope that started while tracing was on is recorded even if tracing is
/// switched off before it closes. While open, the scope is the thread's
/// current span (children recorded inside parent under it).
class TraceScope {
 public:
  explicit TraceScope(const char* name,
                      int64_t arg0 = TraceEvent::kNoArg,
                      int64_t arg1 = TraceEvent::kNoArg) {
    if (!TraceCollector::Global().enabled()) return;
    open_.emplace(Open{OpenTraceSpan(/*new_trace=*/false), name, arg0, arg1});
  }
  ~TraceScope() {
    if (open_) CloseTraceSpan(open_->span, open_->name, open_->arg0,
                              open_->arg1);
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  // Engaged only while tracing: a disabled scope writes one flag, nothing
  // else.
  struct Open {
    OpenSpan span;
    const char* name;
    int64_t arg0;
    int64_t arg1;
  };
  std::optional<Open> open_;
};

/// RAII body of IQ_TRACE_ROOT_SCOPE: the root span of one solve or write.
/// Allocates a fresh trace id and owns the keep/discard decision at
/// destruction — unless a trace is already active on the thread, in which
/// case it joins as a plain child span (per-item roots inside a SolveBatch
/// trace) and the enclosing root decides. The engine calls NoteError() on
/// failed calls so erred traces are always retained, with their status.
class TraceRoot {
 public:
  explicit TraceRoot(const char* op,
                     int64_t arg0 = TraceEvent::kNoArg,
                     int64_t arg1 = TraceEvent::kNoArg) {
    if (!TraceCollector::Global().enabled()) return;
    op_ = op;
    arg0_ = arg0;
    arg1_ = arg1;
    owns_trace_ = !CurrentTraceContext().active();
    span_ = OpenTraceSpan(/*new_trace=*/owns_trace_);
  }
  ~TraceRoot() {
    if (op_ == nullptr) return;
    const uint64_t dur_ns = CloseTraceSpan(span_, op_, arg0_, arg1_);
    if (owns_trace_) {
      TraceCollector::Global().FinishRoot(op_, trace_id(), span_.start_ns,
                                          dur_ns, std::move(error_));
    }
  }

  TraceRoot(const TraceRoot&) = delete;
  TraceRoot& operator=(const TraceRoot&) = delete;

  /// Marks the call as failed with `st`: the trace is retained regardless
  /// of latency and keeps the status text. No-op for disabled and joined
  /// (non-owning) roots — the enclosing call fails too and its root retains
  /// the shared trace.
  void NoteError(const Status& st) {
    if (owns_trace_) error_ = st.ToString();
  }

  /// The id stamped on this call's spans; 0 when tracing is disabled.
  uint64_t trace_id() const { return span_.self.trace_id; }

  /// False when this root joined an enclosing trace instead of starting
  /// its own.
  bool owns_trace() const { return owns_trace_; }

 private:
  const char* op_ = nullptr;
  OpenSpan span_;
  int64_t arg0_ = TraceEvent::kNoArg;
  int64_t arg1_ = TraceEvent::kNoArg;
  bool owns_trace_ = false;
  std::string error_;  // set by NoteError; empty = the call succeeded
};

/// One profile window (DESIGN.md §11). Start() clears the span rings — so
/// every ring overwrite from then on is a lost window span — turns tracing
/// on, which makes ParallelFor chunks spans, and enables mutex hold capture
/// (util/prof.h), which makes every hold a span. Stop(label) restores the
/// previous tracing state and returns the window as span-dump records, one
/// JSON object per line joined by ",\n" for the caller to wrap in an array:
/// a "profile_window" line (label, enabled, start_ns, dur_ns,
/// dropped_records) and a "span" line per span recorded inside the window.
/// Not thread-safe — one session at a time, owned by the bench's main
/// thread; a root trace in flight across Start() loses its earlier spans.
class ProfileSession {
 public:
  void Start();
  std::string Stop(const std::string& label);

 private:
  bool was_tracing_ = false;
  uint64_t start_ns_ = 0;
};

/// The /profilez payload: the live window [prof::EnabledSinceNanos(), now]
/// while mutex hold capture is on, an `"enabled": false` placeholder window
/// otherwise. Chunk spans appear only while tracing is on too.
std::string ProfilezJson();

/// The dump-on-error payload (EngineOptions::event_dump_path): TracezJson(),
/// whose erred traces carry their status text, followed by one
/// "error_dump" window holding every span still in the rings — the run-up
/// to the failure. tools/iq_trace reads it like any other span dump.
std::string ErrorDumpJson();

/// Compiled-out stand-in for TraceRoot: same surface, no code.
struct NoopTraceRoot {
  explicit NoopTraceRoot(const char* /*op*/, int64_t /*arg0*/ = 0,
                         int64_t /*arg1*/ = 0) {}
  void NoteError(const Status& /*st*/) {}
  uint64_t trace_id() const { return 0; }
  bool owns_trace() const { return false; }
};

}  // namespace iq

#if defined(IQ_TRACING_ENABLED)
#define IQ_TRACE_CONCAT2_(a, b) a##b
#define IQ_TRACE_CONCAT_(a, b) IQ_TRACE_CONCAT2_(a, b)
#define IQ_TRACE_SCOPE(name) \
  ::iq::TraceScope IQ_TRACE_CONCAT_(iq_trace_scope_, __LINE__)(name)
/// Span with a small fixed arg payload (candidate index, epoch id, ...).
#define IQ_TRACE_SCOPE_ARG(name, a0) \
  ::iq::TraceScope IQ_TRACE_CONCAT_(iq_trace_scope_, __LINE__)( \
      name, static_cast<int64_t>(a0))
#define IQ_TRACE_SCOPE_ARG2(name, a0, a1)                        \
  ::iq::TraceScope IQ_TRACE_CONCAT_(iq_trace_scope_, __LINE__)(  \
      name, static_cast<int64_t>(a0), static_cast<int64_t>(a1))
/// Root span of one solve; declares `var` so the call site can reach
/// NoteError() / trace_id().
#define IQ_TRACE_ROOT_SCOPE(var, op, ...) \
  ::iq::TraceRoot var(op __VA_OPT__(, ) __VA_ARGS__)
#else
#define IQ_TRACE_SCOPE(name) static_cast<void>(0)
#define IQ_TRACE_SCOPE_ARG(name, a0) static_cast<void>(0)
#define IQ_TRACE_SCOPE_ARG2(name, a0, a1) static_cast<void>(0)
#define IQ_TRACE_ROOT_SCOPE(var, op, ...) ::iq::NoopTraceRoot var(op)
#endif

#endif  // IQ_OBS_TRACE_H_
