#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "util/prof.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace iq {

uint64_t TraceNowNanos() { return MonotonicNanos(); }

namespace {

// ParallelFor's call and chunk spans are ordinary child spans.
OpenSpan OpenPoolSpan() { return OpenTraceSpan(/*new_trace=*/false); }

void ClosePoolSpan(const OpenSpan& span, const char* name, int64_t arg0,
                   int64_t arg1, int64_t arg2) {
  CloseTraceSpan(span, name, arg0, arg1, arg2);
}

[[maybe_unused]] constexpr ThreadPool::SpanRecorder kPoolSpanRecorder{
    &OpenPoolSpan, &ClosePoolSpan};

/// A finished mutex hold (util/prof.h) as a flat span: named by the
/// mutex's label, args (rank, acquisition wait, carried held time), and
/// trace, span and parent ids 0 — never the current span, never part of a
/// retained trace.
void RecordHoldSpan(const prof::Hold& hold) {
  TraceEvent e;
  e.name = hold.label;
  e.start_ns = hold.clock.start_ns;
  e.dur_ns = hold.end_ns - hold.clock.start_ns;
  e.arg0 = static_cast<int64_t>(hold.rank);
  e.arg1 = hold.clock.wait_ns;
  e.arg2 = static_cast<int64_t>(hold.clock.carried_ns);
  TraceCollector::Global().Record(e);
}

/// Installs the hold seam at static initialization, the way obs/metrics.cc
/// installs the pool's task observer: util may not include obs.
[[maybe_unused]] const bool g_hold_recorder_installed = [] {
  prof::SetHoldRecorder(&RecordHoldSpan);
  return true;
}();

}  // namespace

OpenSpan OpenTraceSpan(bool new_trace) {
  OpenSpan span;
  span.parent = CurrentTraceContext();
  const uint64_t id = TraceCollector::Global().NewId();
  span.self = TraceContext{new_trace ? id : span.parent.trace_id, id};
  SetTraceContext(span.self);
  span.start_ns = TraceNowNanos();
  return span;
}

uint64_t CloseTraceSpan(OpenSpan span, const char* name, int64_t arg0,
                        int64_t arg1, int64_t arg2) {
  TraceEvent e;
  e.dur_ns = TraceNowNanos() - span.start_ns;
  SetTraceContext(span.parent);
  e.name = name;
  e.trace_id = span.self.trace_id;
  e.span_id = span.self.span_id;
  // A fresh trace's root has no parent, whatever flat span was open.
  e.parent_span_id = span.self.trace_id == span.parent.trace_id
                         ? span.parent.span_id
                         : 0;
  e.start_ns = span.start_ns;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.arg2 = arg2;
  TraceCollector::Global().Record(e);
  return e.dur_ns;
}

int RetainedTrace::NumThreads() const {
  std::set<int> tids;
  for (const TraceEvent& e : spans) tids.insert(e.tid);
  return static_cast<int>(tids.size());
}

TraceCollector::TraceCollector() {
  // Metric mirrors are resolved here, with no collector lock held:
  // MetricsRegistry::mu_ ranks *below* the trace locks (kMetricsRegistry <
  // kTraceRegistry), so a lazy GetCounter inside Record/FinishRoot would
  // invert the order. Counter::Increment itself is a relaxed atomic add —
  // legal under any lock. The registry's lock is taken unprofiled: its
  // hold span would be recorded into this collector, still under
  // construction.
  const prof::Unprofiled unprofiled;
  MetricsRegistry& metrics = MetricsRegistry::Global();
  dropped_counter_ = metrics.GetCounter("iq.trace.dropped");
  slow_retained_counter_ = metrics.GetCounter("iq.trace.slow_retained");
  discarded_counter_ = metrics.GetCounter("iq.trace.discarded");
}

TraceCollector& TraceCollector::Global() {
  // Leaked on purpose, like the metrics registry: thread_local buffer
  // pointers must never dangle during late static destruction.
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

void TraceCollector::SetEnabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
#if defined(IQ_TRACING_ENABLED)
  ThreadPool::SetSpanRecorder(on ? &kPoolSpanRecorder : nullptr);
#endif
}

TraceCollector::ThreadBuffer* TraceCollector::BufferForThisThread() {
  // One buffer per thread for the process lifetime. The collector is a
  // process singleton, so a per-thread static is the right granularity.
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    buffer = owned.get();
    MutexLock lock(&mu_);
    buffer->tid = next_tid_++;
    buffers_.push_back(std::move(owned));
  }
  return buffer;
}

void TraceCollector::Record(TraceEvent e) {
  const prof::Unprofiled unprofiled;
  ThreadBuffer* buf = BufferForThisThread();
  e.tid = buf->tid;
  MutexLock lock(&buf->mu);
  if (buf->ring.size() < kRingCapacity) {
    buf->ring.push_back(e);
  } else {
    buf->ring[buf->next % kRingCapacity] = e;
    // Ring overwrite: the span falls out of tail capture. Mirrored to the
    // registry so /metrics shows trace loss.
    dropped_counter_->Increment();
  }
  ++buf->next;
}

template <typename Keep>
std::vector<TraceEvent> TraceCollector::CollectSpans(Keep keep) const {
  std::vector<TraceEvent> spans;
  {
    const prof::Unprofiled unprofiled;
    MutexLock lock(&mu_);
    for (const auto& buf : buffers_) {
      MutexLock buf_lock(&buf->mu);
      for (const TraceEvent& e : buf->ring) {
        if (keep(e)) spans.push_back(e);
      }
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.span_id < b.span_id;
            });
  return spans;
}

namespace {

/// `, "argN": v` for each set arg of `e`.
std::string SetArgsJson(const TraceEvent& e) {
  std::string out;
  const int64_t args[] = {e.arg0, e.arg1, e.arg2};
  for (int i = 0; i < 3; ++i) {
    if (args[i] == TraceEvent::kNoArg) continue;
    out += StrFormat(", \"arg%d\": %lld", i, static_cast<long long>(args[i]));
  }
  return out;
}

/// The trailing `"args": {...}` clause of one exported span; empty when the
/// span carries neither causal ids nor an arg payload (flat pre-root spans).
std::string EventArgsJson(const TraceEvent& e) {
  if (e.trace_id == 0 && e.arg0 == TraceEvent::kNoArg) return "";
  return StrFormat(
      ", \"args\": {\"trace_id\": %llu, \"span_id\": %llu, "
      "\"parent_span_id\": %llu%s}",
      static_cast<unsigned long long>(e.trace_id),
      static_cast<unsigned long long>(e.span_id),
      static_cast<unsigned long long>(e.parent_span_id),
      SetArgsJson(e).c_str());
}

/// Chrome trace-event JSON (chrome://tracing, Perfetto) for `spans`: a
/// thread_name metadata event per recording thread so lanes read
/// "iq-thread-N", one complete ("X") event per span (timestamps in µs), and
/// for every cross-thread parent -> child edge a flow arrow from the
/// parent's lane to the child's start — cross-thread parentage is invisible
/// in a per-lane view, while same-thread children just nest visually.
std::string ChromeJson(const std::vector<TraceEvent>& spans) {
  std::map<uint64_t, int> span_tid;
  std::set<int> tids;
  for (const TraceEvent& e : spans) {
    span_tid[e.span_id] = e.tid;
    tids.insert(e.tid);
  }
  std::string out = "{\"traceEvents\": [";
  const char* sep = "\n  ";
  for (int tid : tids) {
    out += StrFormat(
        "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"tid\": %d, \"args\": {\"name\": \"iq-thread-%d\"}}",
        sep, tid, tid);
    sep = ",\n  ";
  }
  for (const TraceEvent& e : spans) {
    const double ts = static_cast<double>(e.start_ns) / 1e3;
    out += StrFormat(
        "%s{\"name\": \"%s\", \"cat\": \"iq\", \"ph\": \"X\", "
        "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d%s}",
        sep, JsonEscape(e.name).c_str(), ts,
        static_cast<double>(e.dur_ns) / 1e3, e.tid, EventArgsJson(e).c_str());
    sep = ",\n  ";
    auto parent = span_tid.find(e.parent_span_id);
    if (e.parent_span_id == 0 || parent == span_tid.end() ||
        parent->second == e.tid) {
      continue;
    }
    out += StrFormat(
        ",\n  {\"name\": \"parent\", \"cat\": \"iq.flow\", \"ph\": \"s\", "
        "\"id\": %llu, \"ts\": %.3f, \"pid\": 1, \"tid\": %d}",
        static_cast<unsigned long long>(e.span_id), ts, parent->second);
    out += StrFormat(
        ",\n  {\"name\": \"parent\", \"cat\": \"iq.flow\", \"ph\": \"f\", "
        "\"bp\": \"e\", \"id\": %llu, \"ts\": %.3f, \"pid\": 1, "
        "\"tid\": %d}",
        static_cast<unsigned long long>(e.span_id), ts, e.tid);
  }
  out += "\n], \"displayTimeUnit\": \"ns\"}\n";
  return out;
}

}  // namespace

std::string TraceCollector::ToJson() const {
  return ChromeJson(CollectSpans([](const TraceEvent&) { return true; }));
}

Status TraceCollector::WriteJson(const std::string& path) const {
  return WriteStringToFile(path, ToJson());
}

void TraceCollector::Clear() {
  const prof::Unprofiled unprofiled;
  MutexLock lock(&mu_);
  for (const auto& buf : buffers_) {
    MutexLock buf_lock(&buf->mu);
    buf->ring.clear();
    buf->next = 0;
  }
}

size_t TraceCollector::EventCount() const {
  const prof::Unprofiled unprofiled;
  MutexLock lock(&mu_);
  size_t n = 0;
  for (const auto& buf : buffers_) {
    MutexLock buf_lock(&buf->mu);
    n += buf->ring.size();
  }
  return n;
}

uint64_t TraceCollector::DroppedCount() const {
  const prof::Unprofiled unprofiled;
  MutexLock lock(&mu_);
  uint64_t dropped = 0;
  for (const auto& buf : buffers_) {
    MutexLock buf_lock(&buf->mu);
    if (buf->next > buf->ring.size()) {
      dropped += buf->next - buf->ring.size();
    }
  }
  return dropped;
}

void TraceCollector::ConfigureTailCapture(const TraceTailConfig& config) {
  slow_trace_nanos_.store(config.slow_trace_nanos, std::memory_order_relaxed);
  max_retained_.store(std::max<size_t>(1, config.max_retained),
                      std::memory_order_relaxed);
}

TraceTailConfig TraceCollector::tail_config() const {
  TraceTailConfig config;
  config.slow_trace_nanos = slow_trace_nanos_.load(std::memory_order_relaxed);
  config.max_retained = max_retained_.load(std::memory_order_relaxed);
  return config;
}

std::vector<TraceEvent> TraceCollector::SpansInWindow(uint64_t start_ns,
                                                     uint64_t end_ns) const {
  return CollectSpans([start_ns, end_ns](const TraceEvent& e) {
    return e.start_ns >= start_ns && e.start_ns + e.dur_ns <= end_ns;
  });
}

void TraceCollector::FinishRoot(const char* op, uint64_t trace_id,
                                uint64_t start_ns, uint64_t dur_ns,
                                std::string error) {
  const bool erred = !error.empty();
  const int64_t slow_ns = slow_trace_nanos_.load(std::memory_order_relaxed);
  const bool slow = slow_ns > 0 && dur_ns >= static_cast<uint64_t>(slow_ns);
  if (!erred && !slow) {
    // The fast path of tail-based capture: discarding costs nothing — the
    // trace's spans stay in the scratch rings until overwritten, and trace
    // ids are process-unique so stale entries can never alias a later solve.
    discarded_total_.fetch_add(1, std::memory_order_relaxed);
    discarded_counter_->Increment();
    return;
  }
  RetainedTrace trace;
  trace.trace_id = trace_id;
  trace.op = op;
  trace.start_ns = start_ns;
  trace.dur_ns = dur_ns;
  trace.erred = erred;
  trace.error = std::move(error);
  // Collect under the registry/buffer locks, insert under the store lock —
  // strictly after releasing the former (kTraceBuffer < kTraceStore).
  trace.spans = CollectSpans(
      [trace_id](const TraceEvent& e) { return e.trace_id == trace_id; });
  retained_total_.fetch_add(1, std::memory_order_relaxed);
  slow_retained_counter_->Increment();
  const size_t max_retained = max_retained_.load(std::memory_order_relaxed);
  MutexLock lock(&store_mu_);
  retained_.push_back(std::move(trace));
  while (retained_.size() > max_retained) retained_.pop_front();
}

std::vector<RetainedTrace> TraceCollector::RetainedTraces() const {
  MutexLock lock(&store_mu_);
  return std::vector<RetainedTrace>(retained_.begin(), retained_.end());
}

void TraceCollector::ClearRetained() {
  MutexLock lock(&store_mu_);
  retained_.clear();
}

namespace {

/// One /tracez or profile-window span line. Line-oriented on purpose:
/// tools/iq_trace re-ingests the payload with a tolerant line scanner
/// instead of a JSON parser.
std::string SpanLine(const TraceEvent& e) {
  return StrFormat(
      "{\"span\": {\"trace_id\": %llu, \"span_id\": %llu, "
      "\"parent_span_id\": %llu, \"name\": \"%s\", \"tid\": %d, "
      "\"start_ns\": %llu, \"dur_ns\": %llu%s}}",
      static_cast<unsigned long long>(e.trace_id),
      static_cast<unsigned long long>(e.span_id),
      static_cast<unsigned long long>(e.parent_span_id),
      JsonEscape(e.name).c_str(), e.tid,
      static_cast<unsigned long long>(e.start_ns),
      static_cast<unsigned long long>(e.dur_ns), SetArgsJson(e).c_str());
}

/// One trace's summary line; an erred trace's status text goes last, so
/// the line scanner finds every other key before any text inside it.
std::string TracezSummaryLine(const RetainedTrace& t) {
  const std::string error =
      t.error.empty()
          ? std::string()
          : StrFormat(", \"error\": \"%s\"", JsonEscape(t.error).c_str());
  return StrFormat(
      "{\"trace_summary\": {\"trace_id\": %llu, \"op\": \"%s\", "
      "\"start_ns\": %llu, \"dur_ns\": %llu, \"erred\": %s, "
      "\"num_spans\": %zu, \"num_threads\": %d%s}}",
      static_cast<unsigned long long>(t.trace_id),
      JsonEscape(t.op != nullptr ? t.op : "?").c_str(),
      static_cast<unsigned long long>(t.start_ns),
      static_cast<unsigned long long>(t.dur_ns), t.erred ? "true" : "false",
      t.spans.size(), t.NumThreads(), error.c_str());
}

}  // namespace

std::string TraceCollector::TracezJson() const {
  const TraceTailConfig config = tail_config();
  const std::vector<RetainedTrace> traces = RetainedTraces();
  std::string out = "{\"tracez\": {\n";
  out += StrFormat(
      "\"config\": {\"slow_trace_nanos\": %lld, \"max_retained\": %zu},\n",
      static_cast<long long>(config.slow_trace_nanos), config.max_retained);
  out += StrFormat(
      "\"counters\": {\"dropped\": %llu, \"slow_retained\": %llu, "
      "\"discarded\": %llu},\n",
      static_cast<unsigned long long>(DroppedCount()),
      static_cast<unsigned long long>(retained_total()),
      static_cast<unsigned long long>(discarded_total()));
  out += "\"traces\": [";
  bool first = true;
  for (const RetainedTrace& t : traces) {
    out += StrFormat("%s\n%s", first ? "" : ",", TracezSummaryLine(t).c_str());
    first = false;
    for (const TraceEvent& e : t.spans) {
      out += StrFormat(",\n%s", SpanLine(e).c_str());
    }
  }
  out += "\n]\n}}\n";
  return out;
}

std::string TraceCollector::TraceJson(uint64_t trace_id) const {
  MutexLock lock(&store_mu_);
  for (const RetainedTrace& t : retained_) {
    if (t.trace_id == trace_id) return ChromeJson(t.spans);
  }
  return "";
}

namespace {

/// The records of one profile window (see ProfileSession::Stop) holding
/// `spans`; only the "profile_window" line when `enabled` is false.
std::string ProfileWindowRecords(const std::string& label, bool enabled,
                                 uint64_t start_ns, uint64_t end_ns,
                                 const std::vector<TraceEvent>& spans) {
  const TraceCollector& tc = TraceCollector::Global();
  std::string out = StrFormat(
      "{\"profile_window\": {\"label\": \"%s\", \"enabled\": %s, "
      "\"start_ns\": %llu, \"dur_ns\": %llu, \"dropped_records\": %llu}}",
      JsonEscape(label).c_str(), enabled ? "true" : "false",
      static_cast<unsigned long long>(start_ns),
      static_cast<unsigned long long>(end_ns > start_ns ? end_ns - start_ns
                                                         : 0),
      static_cast<unsigned long long>(enabled ? tc.DroppedCount() : 0));
  for (const TraceEvent& e : spans) out += ",\n" + SpanLine(e);
  return out;
}

}  // namespace

void ProfileSession::Start() {
  TraceCollector& tc = TraceCollector::Global();
  was_tracing_ = tc.enabled();
  tc.Clear();
  tc.SetEnabled(true);
  prof::SetEnabled(true);
  start_ns_ = prof::EnabledSinceNanos();
}

std::string ProfileSession::Stop(const std::string& label) {
  const uint64_t end_ns = TraceNowNanos();
  prof::SetEnabled(false);
  TraceCollector& tc = TraceCollector::Global();
  tc.SetEnabled(was_tracing_);
  return ProfileWindowRecords(label, /*enabled=*/true, start_ns_, end_ns,
                              tc.SpansInWindow(start_ns_, end_ns));
}

std::string ProfilezJson() {
  const bool on = prof::Enabled();
  const uint64_t start_ns = on ? prof::EnabledSinceNanos() : 0;
  const uint64_t end_ns = on ? TraceNowNanos() : 0;
  return "{\"profilez\": [\n" +
         ProfileWindowRecords(
             "live", on, start_ns, end_ns,
             on ? TraceCollector::Global().SpansInWindow(start_ns, end_ns)
                : std::vector<TraceEvent>()) +
         "\n]}\n";
}

std::string ErrorDumpJson() {
  const TraceCollector& tc = TraceCollector::Global();
  const uint64_t end_ns = TraceNowNanos();
  const std::vector<TraceEvent> spans = tc.SpansInWindow(0, end_ns);
  // The window opens at the oldest span still buffered (spans are sorted by
  // start), so its serial fraction describes the run-up, not the uptime.
  const uint64_t start_ns = spans.empty() ? end_ns : spans.front().start_ns;
  return tc.TracezJson() + "{\"profilez\": [\n" +
         ProfileWindowRecords("error_dump", /*enabled=*/true, start_ns, end_ns,
                              spans) +
         "\n]}\n";
}

}  // namespace iq
