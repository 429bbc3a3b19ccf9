#include "obs/trace_analysis.h"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>
#include <utility>

#include "util/lock_rank.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace iq {
namespace {

/// Extracts the value after `"key":` on `line`; false when absent. Quoted
/// values are unescaped; bare values are trimmed at , } ] or end-of-line.
/// Tolerant by construction — dumps may be hand-edited or truncated.
bool FindRawValue(std::string_view line, const char* key, std::string* out) {
  const std::string needle = StrFormat("\"%s\":", key);
  size_t v = line.find(needle);
  if (v == std::string_view::npos) return false;
  v += needle.size();
  while (v < line.size() && line[v] == ' ') ++v;
  if (v >= line.size()) return false;
  if (line[v] != '"') {
    size_t e = line.find_first_of(",}]", v);
    if (e == std::string_view::npos) e = line.size();
    *out = std::string(StrTrim(line.substr(v, e - v)));
    return !out->empty();
  }
  out->clear();
  for (size_t i = v + 1; i < line.size(); ++i) {
    char c = line[i];
    if (c == '"') return true;
    if (c == '\\' && i + 1 < line.size()) {
      c = line[++i];
      if (c == 'n') c = '\n';
      if (c == 't') c = '\t';
      if (c == 'r') c = '\r';
    }
    *out += c;
  }
  return false;  // unterminated string
}

/// The string value of `key`; empty when absent.
std::string FindString(std::string_view line, const char* key) {
  std::string raw;
  return FindRawValue(line, key, &raw) ? raw : std::string();
}

int64_t FindI64(std::string_view line, const char* key, int64_t dflt) {
  auto v = ParseInt(FindString(line, key));
  return v.ok() ? *v : dflt;
}

/// Non-negative integer value of `key`; 0 when absent or malformed.
uint64_t FindU64(std::string_view line, const char* key) {
  return static_cast<uint64_t>(std::max<int64_t>(0, FindI64(line, key, 0)));
}

bool FindBool(std::string_view line, const char* key) {
  return FindString(line, key) == "true";
}

/// The first key on `line` — the record kind ("span", "trace_summary",
/// "profile_window", "config", ...); empty when there is none.
std::string_view RecordKind(std::string_view line) {
  size_t b = line.find_first_not_of(" \t,{[");
  if (b == std::string_view::npos || line[b] != '"') return {};
  size_t e = line.find('"', b + 1);
  if (e == std::string_view::npos || line.substr(e + 1, 1) != ":") return {};
  return line.substr(b + 1, e - b - 1);
}

std::string FormatNanos(uint64_t ns) {
  if (ns >= 1000000000ULL) {
    return StrFormat("%.2f s", static_cast<double>(ns) / 1e9);
  }
  if (ns >= 1000000ULL) {
    return StrFormat("%.2f ms", static_cast<double>(ns) / 1e6);
  }
  if (ns >= 1000ULL) {
    return StrFormat("%.2f us", static_cast<double>(ns) / 1e3);
  }
  return StrFormat("%llu ns", static_cast<unsigned long long>(ns));
}

/// Total length of the union of half-open intervals (merge-after-sort).
uint64_t UnionLength(std::vector<std::pair<uint64_t, uint64_t>> spans) {
  if (spans.empty()) return 0;
  std::sort(spans.begin(), spans.end());
  uint64_t total = 0;
  uint64_t cur_begin = spans[0].first;
  uint64_t cur_end = spans[0].second;
  for (size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].first > cur_end) {
      total += cur_end - cur_begin;
      cur_begin = spans[i].first;
      cur_end = spans[i].second;
    } else {
      cur_end = std::max(cur_end, spans[i].second);
    }
  }
  return total + (cur_end - cur_begin);
}

ParsedSpan ParseSpanLine(std::string_view line) {
  ParsedSpan s;
  s.trace_id = FindU64(line, "trace_id");
  s.span_id = FindU64(line, "span_id");
  s.parent_span_id = FindU64(line, "parent_span_id");
  s.name = FindString(line, "name");
  s.tid = static_cast<int>(FindU64(line, "tid"));
  s.start_ns = FindU64(line, "start_ns");
  s.dur_ns = FindU64(line, "dur_ns");
  s.arg0 = FindI64(line, "arg0", TraceEvent::kNoArg);
  s.arg1 = FindI64(line, "arg1", TraceEvent::kNoArg);
  s.arg2 = FindI64(line, "arg2", TraceEvent::kNoArg);
  return s;
}

}  // namespace

TraceDump ParseTracezDump(const std::string& text) {
  TraceDump dump;
  // Where "span" lines go: the most recently opened trace or window (null
  // before the first one).
  std::vector<ParsedSpan>* spans = nullptr;
  for (std::string_view line : StrSplit(text, '\n')) {
    const std::string_view kind = RecordKind(line);
    if (kind == "config") {
      dump.has_config = true;
      dump.config.slow_trace_nanos = FindI64(line, "slow_trace_nanos", 0);
      dump.config.max_retained = FindU64(line, "max_retained");
    } else if (kind == "counters") {
      dump.has_counters = true;
      dump.dropped = FindU64(line, "dropped");
      dump.slow_retained = FindU64(line, "slow_retained");
      dump.discarded = FindU64(line, "discarded");
    } else if (kind == "trace_summary") {
      ParsedTrace& t = dump.traces.emplace_back();
      t.trace_id = FindU64(line, "trace_id");
      t.op = FindString(line, "op");
      t.start_ns = FindU64(line, "start_ns");
      t.dur_ns = FindU64(line, "dur_ns");
      t.erred = FindBool(line, "erred");
      t.num_threads = static_cast<int>(FindU64(line, "num_threads"));
      t.declared_spans = FindU64(line, "num_spans");
      t.error = FindString(line, "error");
      spans = &t.spans;
    } else if (kind == "profile_window") {
      ParsedProfileWindow& w = dump.windows.emplace_back();
      w.label = FindString(line, "label");
      w.enabled = FindBool(line, "enabled");
      w.start_ns = FindU64(line, "start_ns");
      w.dur_ns = FindU64(line, "dur_ns");
      w.dropped_records = FindU64(line, "dropped_records");
      spans = &w.spans;
    } else if (kind == "span" && spans != nullptr) {
      spans->push_back(ParseSpanLine(line));
    }
  }
  return dump;
}

TraceAnalysis AnalyzeTrace(const ParsedTrace& trace) {
  TraceAnalysis a;
  a.trace_id = trace.trace_id;
  a.op = trace.op;
  a.dur_ns = trace.dur_ns;
  a.erred = trace.erred;
  a.error = trace.error;
  a.num_threads = trace.num_threads;
  a.num_spans = trace.spans.size();
  a.declared_spans = trace.declared_spans;
  a.unstamped_spans = static_cast<size_t>(
      std::count_if(trace.spans.begin(), trace.spans.end(),
                    [](const ParsedSpan& s) { return s.tid == 0; }));

  std::map<uint64_t, std::vector<const ParsedSpan*>> children;
  const ParsedSpan* root = nullptr;
  for (const ParsedSpan& s : trace.spans) {
    children[s.parent_span_id].push_back(&s);
    if (s.parent_span_id == 0 && root == nullptr) root = &s;
  }

  // Per-name self time: duration minus the direct children's durations
  // (clamped — timestamps come from different threads' interleaved reads of
  // one steady clock, so a child can overrun its parent by a few ns).
  std::map<std::string, SelfTimeRollup> rollup;
  for (const ParsedSpan& s : trace.spans) {
    uint64_t child_ns = 0;
    auto it = children.find(s.span_id);
    if (it != children.end()) {
      for (const ParsedSpan* c : it->second) child_ns += c->dur_ns;
    }
    SelfTimeRollup& r = rollup[s.name];
    r.name = s.name;
    r.self_ns += s.dur_ns > child_ns ? s.dur_ns - child_ns : 0;
    ++r.spans;
  }
  for (auto& [name, r] : rollup) a.self_time.push_back(std::move(r));
  std::sort(a.self_time.begin(), a.self_time.end(),
            [](const SelfTimeRollup& x, const SelfTimeRollup& y) {
              return x.self_ns != y.self_ns ? x.self_ns > y.self_ns
                                            : x.name < y.name;
            });

  if (root == nullptr) return a;  // orphaned trace: rings lost the root

  // Critical path: from the root, descend into the child whose interval
  // ends last — the child the parent actually waited for. Self time per
  // step is the parent's duration minus that child's; the telescoping sum
  // plus the leaf's full duration reconstructs the root's wall clock.
  const ParsedSpan* cur = root;
  while (cur != nullptr) {
    const ParsedSpan* next = nullptr;
    auto it = children.find(cur->span_id);
    if (it != children.end()) {
      for (const ParsedSpan* c : it->second) {
        if (next == nullptr ||
            c->start_ns + c->dur_ns > next->start_ns + next->dur_ns) {
          next = c;
        }
      }
    }
    CriticalPathStep step;
    step.name = cur->name;
    step.span_id = cur->span_id;
    step.tid = cur->tid;
    step.dur_ns = cur->dur_ns;
    const uint64_t child_dur = next != nullptr ? next->dur_ns : 0;
    step.self_ns = cur->dur_ns > child_dur ? cur->dur_ns - child_dur : 0;
    a.accounted_ns += step.self_ns;
    a.critical_path.push_back(std::move(step));
    cur = next;
  }
  a.accounted_fraction =
      a.dur_ns > 0
          ? static_cast<double>(a.accounted_ns) / static_cast<double>(a.dur_ns)
          : 0.0;
  return a;
}

std::string TraceVerdict(const TraceAnalysis& a) {
  if (a.critical_path.empty()) {
    return StrFormat(
        "trace %llu has no root span — the scratch rings overwrote it "
        "before retention (iq.trace.dropped); raise the ring capacity or "
        "lower span volume",
        static_cast<unsigned long long>(a.trace_id));
  }
  const CriticalPathStep* hot = &a.critical_path.front();
  for (const CriticalPathStep& s : a.critical_path) {
    if (s.self_ns > hot->self_ns) hot = &s;
  }
  const double share =
      a.dur_ns > 0 ? 100.0 * static_cast<double>(hot->self_ns) /
                         static_cast<double>(a.dur_ns)
                   : 0.0;
  if (a.erred) {
    return StrFormat(
        "trace %llu was retained for an error (%s); before failing it spent "
        "%.1f%% of %s in %s",
        static_cast<unsigned long long>(a.trace_id),
        a.error.empty() ? "no status text" : a.error.c_str(), share,
        FormatNanos(a.dur_ns).c_str(), hot->name.c_str());
  }
  return StrFormat(
      "trace %llu (%s, %s over %d thread%s): %.1f%% of the wall clock is "
      "self time in %s on the critical path",
      static_cast<unsigned long long>(a.trace_id), a.op.c_str(),
      FormatNanos(a.dur_ns).c_str(), a.num_threads,
      a.num_threads == 1 ? "" : "s", share, hot->name.c_str());
}

double ProfileAnalysis::ProjectedSpeedup(int n) const {
  if (n <= 0) return 0.0;
  const double s = std::clamp(serial_fraction, 0.0, 1.0);
  return 1.0 / (s + (1.0 - s) / static_cast<double>(n));
}

ProfileAnalysis AnalyzeProfileWindow(const ParsedProfileWindow& window) {
  ProfileAnalysis r;
  r.label = window.label;
  r.enabled = window.enabled;
  r.window_nanos = window.dur_ns;
  r.dropped_records = window.dropped_records;

  // Mutex holds (util/prof.h) are the spans with span id 0, args (rank,
  // acquisition wait, held time carried over a CondVar wait). A wait of -1
  // marks a hold picked up at a wake-up: held time, but no acquisition.
  std::map<std::pair<std::string, int64_t>, MutexSiteReport> holds;
  for (const ParsedSpan& s : window.spans) {
    if (s.span_id != 0) continue;
    MutexSiteReport& m = holds[{s.name, s.arg0}];
    m.label = s.name;
    m.rank = LockRankName(static_cast<LockRank>(static_cast<int>(s.arg0)));
    m.held_nanos +=
        s.dur_ns + static_cast<uint64_t>(std::max<int64_t>(0, s.arg2));
    if (s.arg1 < 0) continue;
    const uint64_t wait = static_cast<uint64_t>(s.arg1);
    ++m.acquisitions;
    m.contended += wait > 0 ? 1 : 0;
    m.wait_nanos += wait;
    m.max_wait_nanos = std::max(m.max_wait_nanos, wait);
    r.total_wait_nanos += wait;
  }
  for (auto& [site, m] : holds) r.mutexes.push_back(std::move(m));
  std::sort(r.mutexes.begin(), r.mutexes.end(),
            [](const MutexSiteReport& a, const MutexSiteReport& b) {
              return a.wait_nanos != b.wait_nanos ? a.wait_nanos > b.wait_nanos
                                                  : a.label < b.label;
            });

  // Chunk spans are the children of ParallelFor call spans; the parent id
  // tells calls apart. Intervals are clipped to the window.
  std::set<uint64_t> call_ids;
  for (const ParsedSpan& s : window.spans) {
    if (s.name == kParallelForSpanName) call_ids.insert(s.span_id);
  }
  struct SiteAccum {
    std::set<uint64_t> calls;
    std::vector<uint64_t> durations;
    std::vector<std::pair<uint64_t, uint64_t>> spans;
    ParallelSiteReport report;
  };
  std::map<std::string, SiteAccum> sites;
  std::map<int, std::vector<std::pair<uint64_t, uint64_t>>> by_tid;
  std::vector<std::pair<uint64_t, uint64_t>> all_spans;
  const uint64_t w0 = window.start_ns;
  const uint64_t w1 = window.start_ns + window.dur_ns;
  for (const ParsedSpan& s : window.spans) {
    if (call_ids.count(s.parent_span_id) == 0) continue;
    const uint64_t b = std::max(s.start_ns, w0);
    const uint64_t e = std::min(s.start_ns + s.dur_ns, w1);
    if (e <= b) continue;
    SiteAccum& acc = sites[s.name];
    acc.calls.insert(s.parent_span_id);
    acc.durations.push_back(e - b);
    acc.spans.emplace_back(b, e);
    acc.report.busy_nanos += e - b;
    acc.report.items += s.arg0 != TraceEvent::kNoArg ? s.arg0 : 0;
    acc.report.claims +=
        s.arg1 != TraceEvent::kNoArg ? static_cast<uint64_t>(s.arg1) : 1;
    acc.report.steals +=
        s.arg2 != TraceEvent::kNoArg ? static_cast<uint64_t>(s.arg2) : 0;
    by_tid[s.tid].emplace_back(b, e);
    all_spans.emplace_back(b, e);
  }
  r.coverage_nanos = UnionLength(std::move(all_spans));
  r.serial_fraction =
      r.window_nanos > 0
          ? std::clamp(1.0 - static_cast<double>(r.coverage_nanos) /
                                 static_cast<double>(r.window_nanos),
                       0.0, 1.0)
          : 1.0;
  for (auto& [site, acc] : sites) {
    ParallelSiteReport& p = acc.report;
    p.site = site;
    p.calls = acc.calls.size();
    p.chunks = acc.durations.size();
    p.coverage_nanos = UnionLength(std::move(acc.spans));
    std::sort(acc.durations.begin(), acc.durations.end());
    p.median_chunk_nanos = acc.durations[acc.durations.size() / 2];
    p.max_chunk_nanos = acc.durations.back();
    p.imbalance = p.median_chunk_nanos > 0
                      ? static_cast<double>(p.max_chunk_nanos) /
                            static_cast<double>(p.median_chunk_nanos)
                      : 1.0;
    r.parallel_sites.push_back(std::move(p));
  }
  std::sort(r.parallel_sites.begin(), r.parallel_sites.end(),
            [](const ParallelSiteReport& a, const ParallelSiteReport& b) {
              return a.busy_nanos != b.busy_nanos ? a.busy_nanos > b.busy_nanos
                                                  : a.site < b.site;
            });
  for (auto& [tid, spans] : by_tid) {
    const uint64_t busy = UnionLength(std::move(spans));
    r.threads.push_back(
        {tid, busy, r.window_nanos > busy ? r.window_nanos - busy : 0});
  }
  return r;
}

std::string ProfileVerdict(const ProfileAnalysis& r) {
  if (!r.enabled || r.window_nanos == 0) {
    return "no profile data captured (profiling disabled or empty window)";
  }
  const double window = static_cast<double>(r.window_nanos);
  const double wait_share = static_cast<double>(r.total_wait_nanos) / window;
  if (wait_share >= 0.05 && !r.mutexes.empty()) {
    const MutexSiteReport& top = r.mutexes.front();
    return StrFormat(
        "lock contention dominates: %s (rank %s) waited %s across %llu "
        "acquisitions — %.1f%% of the window blocked on locks",
        top.label.c_str(), top.rank.c_str(),
        FormatNanos(top.wait_nanos).c_str(),
        static_cast<unsigned long long>(top.acquisitions),
        100.0 * wait_share);
  }
  const ParallelSiteReport* worst = nullptr;
  for (const ParallelSiteReport& p : r.parallel_sites) {
    if (p.chunks >= 4 &&
        static_cast<double>(p.coverage_nanos) / window >= 0.2 &&
        (worst == nullptr || p.imbalance > worst->imbalance)) {
      worst = &p;
    }
  }
  if (worst != nullptr && worst->imbalance >= 2.0) {
    return StrFormat(
        "chunk imbalance at %s: max/median chunk duration %.2f — one "
        "straggler chunk serializes the tail of each call",
        worst->site.c_str(), worst->imbalance);
  }
  if (r.serial_fraction >= 0.25) {
    return StrFormat(
        "serial fraction %.2f is the ceiling: parallel regions cover only "
        "%.1f%% of the window (largest: %s), capping speedup at x%.2f on 8 "
        "threads regardless of contention",
        r.serial_fraction, 100.0 * (1.0 - r.serial_fraction),
        r.parallel_sites.empty() ? "(none)"
                                 : r.parallel_sites.front().site.c_str(),
        r.ProjectedSpeedup(8));
  }
  return StrFormat(
      "no dominant serialization: parallel coverage %.1f%% of the window, "
      "lock wait %.2f%%",
      100.0 * (1.0 - r.serial_fraction), 100.0 * wait_share);
}

namespace {

void AppendTraceReport(const TraceDump& dump, int top_n, std::string* out) {
  *out += StrFormat(
      "iq_trace: %zu retained trace(s); slow_trace_nanos=%lld "
      "max_retained=%zu\n"
      "counters: dropped=%llu slow_retained=%llu discarded=%llu\n",
      dump.traces.size(),
      static_cast<long long>(dump.config.slow_trace_nanos),
      dump.config.max_retained,
      static_cast<unsigned long long>(dump.dropped),
      static_cast<unsigned long long>(dump.slow_retained),
      static_cast<unsigned long long>(dump.discarded));
  for (const ParsedTrace& t : dump.traces) {
    const TraceAnalysis a = AnalyzeTrace(t);
    *out += StrFormat(
        "\ntrace %llu  %s  %s  spans=%zu threads=%d%s%s\n",
        static_cast<unsigned long long>(a.trace_id), a.op.c_str(),
        FormatNanos(a.dur_ns).c_str(), a.num_spans, a.num_threads,
        a.erred ? "  [erred]" : "",
        a.declared_spans > a.num_spans
            ? StrFormat("  [TRUNCATED: %zu spans declared]", a.declared_spans)
                  .c_str()
            : "");
    if (!a.error.empty()) *out += StrFormat("  error: %s\n", a.error.c_str());
    *out += StrFormat("  critical path (%.1f%% of wall accounted):\n",
                      100.0 * a.accounted_fraction);
    for (const CriticalPathStep& s : a.critical_path) {
      *out += StrFormat("    %-40s self %-10s tid %d\n", s.name.c_str(),
                        FormatNanos(s.self_ns).c_str(), s.tid);
    }
    *out += "  top self-time by span name:\n";
    int shown = 0;
    for (const SelfTimeRollup& r : a.self_time) {
      if (shown++ >= top_n) break;
      *out += StrFormat("    %-40s %-10s (%llu span%s)\n", r.name.c_str(),
                        FormatNanos(r.self_ns).c_str(),
                        static_cast<unsigned long long>(r.spans),
                        r.spans == 1 ? "" : "s");
    }
    *out += StrFormat("  verdict: %s\n", TraceVerdict(a).c_str());
  }
  if (dump.traces.empty()) {
    *out +=
        "\nno retained traces: nothing erred or cleared the slow-trace "
        "threshold (see \"discarded\" above for how many solves ran)\n";
  }
}

void AppendSerializationReport(const std::vector<ProfileAnalysis>& profiles,
                               int top_n, std::string* out) {
  *out += StrFormat("iq_trace serialization report — %zu profile window%s\n",
                    profiles.size(), profiles.size() == 1 ? "" : "s");
  for (const ProfileAnalysis& r : profiles) {
    *out += StrFormat(
        "\nprofile %s: window %s, parallel coverage %.1f%% "
        "(serial fraction %.3f)%s\n",
        r.label.c_str(), FormatNanos(r.window_nanos).c_str(),
        100.0 * (1.0 - r.serial_fraction), r.serial_fraction,
        r.dropped_records > 0
            ? StrFormat(" [TRUNCATED: %llu records dropped]",
                        static_cast<unsigned long long>(r.dropped_records))
                  .c_str()
            : "");
    *out += StrFormat(
        "  projected speedup (Amdahl): x%.2f @2  x%.2f @4  x%.2f @8  "
        "x%.2f @16\n",
        r.ProjectedSpeedup(2), r.ProjectedSpeedup(4), r.ProjectedSpeedup(8),
        r.ProjectedSpeedup(16));
    if (!r.mutexes.empty()) *out += "  top mutexes by wait:\n";
    const size_t top = static_cast<size_t>(top_n);
    for (size_t i = 0; i < r.mutexes.size() && i < top; ++i) {
      const MutexSiteReport& m = r.mutexes[i];
      *out += StrFormat(
          "    %zu. %-28s (%s)  wait %s / %llu acq (%llu contended, "
          "max %s), held %s\n",
          i + 1, m.label.c_str(), m.rank.c_str(),
          FormatNanos(m.wait_nanos).c_str(),
          static_cast<unsigned long long>(m.acquisitions),
          static_cast<unsigned long long>(m.contended),
          FormatNanos(m.max_wait_nanos).c_str(),
          FormatNanos(m.held_nanos).c_str());
    }
    if (!r.parallel_sites.empty()) *out += "  parallel sites:\n";
    for (size_t i = 0; i < r.parallel_sites.size() && i < top; ++i) {
      const ParallelSiteReport& p = r.parallel_sites[i];
      *out += StrFormat(
          "    %-28s %llu calls / %llu chunks / %lld items, busy %s, "
          "imbalance %.2f (max %s / med %s)%s\n",
          p.site.c_str(), static_cast<unsigned long long>(p.calls),
          static_cast<unsigned long long>(p.chunks),
          static_cast<long long>(p.items), FormatNanos(p.busy_nanos).c_str(),
          p.imbalance, FormatNanos(p.max_chunk_nanos).c_str(),
          FormatNanos(p.median_chunk_nanos).c_str(),
          p.steals > 0
              ? StrFormat(", %llu/%llu claims stolen",
                          static_cast<unsigned long long>(p.steals),
                          static_cast<unsigned long long>(p.claims))
                    .c_str()
              : "");
    }
    if (!r.threads.empty()) {
      uint64_t busy = 0;
      for (const ThreadBusyReport& t : r.threads) busy += t.busy_nanos;
      const double tracked =
          static_cast<double>(r.window_nanos) * r.threads.size();
      *out += StrFormat(
          "  threads running chunks: %zu, busy %.1f%% / idle %.1f%% of "
          "their window time\n",
          r.threads.size(), tracked > 0 ? 100.0 * busy / tracked : 0.0,
          tracked > 0 ? 100.0 - 100.0 * busy / tracked : 0.0);
    }
  }
  *out += StrFormat("\nverdict: %s\n", ProfileVerdict(profiles.back()).c_str());
}

std::vector<ProfileAnalysis> AnalyzeWindows(const TraceDump& dump) {
  std::vector<ProfileAnalysis> out;
  for (const ParsedProfileWindow& w : dump.windows) {
    out.push_back(AnalyzeProfileWindow(w));
  }
  return out;
}

}  // namespace

std::string FormatTraceReport(const TraceDump& dump, int top_n) {
  std::string out;
  if (dump.tracez() || !dump.traces.empty()) {
    AppendTraceReport(dump, top_n, &out);
  }
  if (!dump.windows.empty()) {
    if (!out.empty()) out += "\n";
    AppendSerializationReport(AnalyzeWindows(dump), top_n, &out);
  }
  if (out.empty()) {
    out = "iq_trace: no retained traces or profile windows in input\n";
  }
  return out;
}

std::string TraceReportJson(const TraceDump& dump) {
  const std::vector<ProfileAnalysis> profiles = AnalyzeWindows(dump);
  std::string out = "{\"iq_trace\": {\n";
  out += StrFormat("\"num_traces\": %zu,\n", dump.traces.size());
  if (dump.has_config) {
    out += StrFormat(
        "\"config\": {\"slow_trace_nanos\": %lld, \"max_retained\": %zu},\n",
        static_cast<long long>(dump.config.slow_trace_nanos),
        dump.config.max_retained);
  }
  if (dump.has_counters) {
    out += StrFormat(
        "\"counters\": {\"dropped\": %llu, \"slow_retained\": %llu, "
        "\"discarded\": %llu},\n",
        static_cast<unsigned long long>(dump.dropped),
        static_cast<unsigned long long>(dump.slow_retained),
        static_cast<unsigned long long>(dump.discarded));
  }
  const std::string verdict =
      dump.traces.empty() ? "no retained traces"
                          : TraceVerdict(AnalyzeTrace(dump.traces.back()));
  out += StrFormat("\"verdict\": \"%s\",\n", JsonEscape(verdict).c_str());
  out += StrFormat("\"num_profiles\": %zu,\n", profiles.size());
  const std::string profile_verdict =
      profiles.empty() ? "no profile windows"
                       : ProfileVerdict(profiles.back());
  out += StrFormat("\"profile_verdict\": \"%s\",\n",
                   JsonEscape(profile_verdict).c_str());
  out += "\"traces\": [";
  const char* sep = "\n";
  for (const ParsedTrace& t : dump.traces) {
    const TraceAnalysis a = AnalyzeTrace(t);
    out += StrFormat(
        "%s{\"trace_analysis\": {\"trace_id\": %llu, \"op\": \"%s\", "
        "\"dur_ns\": %llu, \"erred\": %s, \"num_spans\": %zu, "
        "\"declared_spans\": %zu, \"unstamped_spans\": %zu, "
        "\"num_threads\": %d, \"accounted_ns\": %llu, "
        "\"accounted_fraction\": %.4f, \"error\": \"%s\"}}",
        sep, static_cast<unsigned long long>(a.trace_id),
        JsonEscape(a.op).c_str(), static_cast<unsigned long long>(a.dur_ns),
        a.erred ? "true" : "false", a.num_spans, a.declared_spans,
        a.unstamped_spans, a.num_threads,
        static_cast<unsigned long long>(a.accounted_ns), a.accounted_fraction,
        JsonEscape(a.error).c_str());
    sep = ",\n";
    for (const CriticalPathStep& s : a.critical_path) {
      out += StrFormat(
          ",\n{\"path_step\": {\"trace_id\": %llu, \"name\": \"%s\", "
          "\"span_id\": %llu, \"tid\": %d, \"dur_ns\": %llu, "
          "\"self_ns\": %llu}}",
          static_cast<unsigned long long>(a.trace_id),
          JsonEscape(s.name).c_str(),
          static_cast<unsigned long long>(s.span_id), s.tid,
          static_cast<unsigned long long>(s.dur_ns),
          static_cast<unsigned long long>(s.self_ns));
    }
    for (const SelfTimeRollup& r : a.self_time) {
      out += StrFormat(
          ",\n{\"self_time\": {\"trace_id\": %llu, \"name\": \"%s\", "
          "\"self_ns\": %llu, \"spans\": %llu}}",
          static_cast<unsigned long long>(a.trace_id),
          JsonEscape(r.name).c_str(),
          static_cast<unsigned long long>(r.self_ns),
          static_cast<unsigned long long>(r.spans));
    }
  }
  out += "\n],\n\"profiles\": [";
  sep = "\n";
  for (const ProfileAnalysis& r : profiles) {
    const std::string label = JsonEscape(r.label);
    out += StrFormat(
        "%s{\"profile_analysis\": {\"profile_label\": \"%s\", "
        "\"enabled\": %s, \"window_nanos\": %llu, \"coverage_nanos\": %llu, "
        "\"serial_fraction\": %.6f, \"total_wait_nanos\": %llu, "
        "\"dropped_records\": %llu, \"projected_speedup_2\": %.3f, "
        "\"projected_speedup_4\": %.3f, \"projected_speedup_8\": %.3f, "
        "\"projected_speedup_16\": %.3f}}",
        sep, label.c_str(), r.enabled ? "true" : "false",
        static_cast<unsigned long long>(r.window_nanos),
        static_cast<unsigned long long>(r.coverage_nanos), r.serial_fraction,
        static_cast<unsigned long long>(r.total_wait_nanos),
        static_cast<unsigned long long>(r.dropped_records),
        r.ProjectedSpeedup(2), r.ProjectedSpeedup(4), r.ProjectedSpeedup(8),
        r.ProjectedSpeedup(16));
    sep = ",\n";
    for (const ParallelSiteReport& p : r.parallel_sites) {
      out += StrFormat(
          ",\n{\"parallel_site\": {\"profile_label\": \"%s\", \"site\": "
          "\"%s\", \"calls\": %llu, \"chunks\": %llu, \"items\": %lld, "
          "\"busy_nanos\": %llu, \"site_coverage_nanos\": %llu, "
          "\"median_chunk_nanos\": %llu, \"max_chunk_nanos\": %llu, "
          "\"imbalance\": %.3f, \"claims\": %llu, \"steals\": %llu}}",
          label.c_str(), JsonEscape(p.site).c_str(),
          static_cast<unsigned long long>(p.calls),
          static_cast<unsigned long long>(p.chunks),
          static_cast<long long>(p.items),
          static_cast<unsigned long long>(p.busy_nanos),
          static_cast<unsigned long long>(p.coverage_nanos),
          static_cast<unsigned long long>(p.median_chunk_nanos),
          static_cast<unsigned long long>(p.max_chunk_nanos), p.imbalance,
          static_cast<unsigned long long>(p.claims),
          static_cast<unsigned long long>(p.steals));
    }
    for (const MutexSiteReport& m : r.mutexes) {
      out += StrFormat(
          ",\n{\"mutex_site\": {\"profile_label\": \"%s\", \"mutex\": \"%s\", "
          "\"rank\": \"%s\", \"acquisitions\": %llu, \"contended\": %llu, "
          "\"wait_nanos\": %llu, \"max_wait_nanos\": %llu, "
          "\"held_nanos\": %llu}}",
          label.c_str(), JsonEscape(m.label).c_str(),
          JsonEscape(m.rank).c_str(),
          static_cast<unsigned long long>(m.acquisitions),
          static_cast<unsigned long long>(m.contended),
          static_cast<unsigned long long>(m.wait_nanos),
          static_cast<unsigned long long>(m.max_wait_nanos),
          static_cast<unsigned long long>(m.held_nanos));
    }
    for (const ThreadBusyReport& t : r.threads) {
      out += StrFormat(
          ",\n{\"thread\": {\"profile_label\": \"%s\", \"tid\": %d, "
          "\"busy_nanos\": %llu, \"idle_nanos\": %llu}}",
          label.c_str(), t.tid, static_cast<unsigned long long>(t.busy_nanos),
          static_cast<unsigned long long>(t.idle_nanos));
    }
  }
  out += "\n]\n}}\n";
  return out;
}

}  // namespace iq
