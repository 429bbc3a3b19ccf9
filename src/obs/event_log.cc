#include "obs/event_log.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace iq {
namespace {

std::atomic<uint64_t> g_dropped{0};

}  // namespace

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kSolveStart:
      return "solve_start";
    case EventType::kSolveEnd:
      return "solve_end";
    case EventType::kApplyStrategy:
      return "apply_strategy";
    case EventType::kIndexBuild:
      return "index_build";
    case EventType::kIndexMaintenance:
      return "index_maintenance";
    case EventType::kPoolSaturation:
      return "pool_saturation";
    case EventType::kError:
      return "error";
  }
  return "?";
}

std::string Event::ToJson() const {
  std::string out = StrFormat(
      "{\"seq\":%llu,\"t_ns\":%llu,\"type\":\"%s\"",
      static_cast<unsigned long long>(seq),
      static_cast<unsigned long long>(t_ns), EventTypeName(type));
  if (op != nullptr) out += StrFormat(",\"op\":\"%s\"", op);
  switch (type) {
    case EventType::kSolveStart:
      out += StrFormat(",\"scheme\":\"%s\",\"target\":%d,\"tau\":%d,"
                       "\"beta\":%.6g,\"epoch\":%llu",
                       scheme != nullptr ? scheme : "?", target, tau, beta,
                       static_cast<unsigned long long>(epoch));
      break;
    case EventType::kSolveEnd:
      out += StrFormat(
          ",\"scheme\":\"%s\",\"target\":%d,\"ok\":%s,\"cost\":%.6g,"
          "\"hits_before\":%d,\"hits_after\":%d,\"iterations\":%d,"
          "\"candidates_generated\":%llu,\"candidates_evaluated\":%llu,"
          "\"queries_rescored\":%llu,\"queries_reused\":%llu,"
          "\"seconds\":%.6g",
          scheme != nullptr ? scheme : "?", target, ok ? "true" : "false",
          cost, hits_before, hits_after, iterations,
          static_cast<unsigned long long>(candidates_generated),
          static_cast<unsigned long long>(candidates_evaluated),
          static_cast<unsigned long long>(queries_rescored),
          static_cast<unsigned long long>(queries_reused), seconds);
      out += StrFormat(",\"epoch\":%llu",
                       static_cast<unsigned long long>(epoch));
      break;
    case EventType::kApplyStrategy:
      out += StrFormat(
          ",\"target\":%d,\"ok\":%s,\"queries_reranked\":%llu,"
          "\"queries_reused\":%llu,\"affected_subspaces\":%lld,"
          "\"seconds\":%.6g,\"epoch\":%llu",
          target, ok ? "true" : "false",
          static_cast<unsigned long long>(queries_rescored),
          static_cast<unsigned long long>(queries_reused),
          static_cast<long long>(n), seconds,
          static_cast<unsigned long long>(epoch));
      break;
    case EventType::kIndexBuild:
      out += StrFormat(",\"num_queries\":%d,\"num_subdomains\":%d,"
                       "\"seconds\":%.6g,\"epoch\":%llu",
                       num_queries, num_subdomains, seconds,
                       static_cast<unsigned long long>(epoch));
      break;
    case EventType::kIndexMaintenance:
      out += StrFormat(",\"id\":%d,\"ok\":%s,\"epoch\":%llu", target,
                       ok ? "true" : "false",
                       static_cast<unsigned long long>(epoch));
      break;
    case EventType::kPoolSaturation:
      out += StrFormat(",\"work_units\":%lld,\"num_threads\":%d",
                       static_cast<long long>(n), num_threads);
      break;
    case EventType::kError:
      break;
  }
  if (trace_id != 0) {
    out += StrFormat(",\"trace_id\":%llu",
                     static_cast<unsigned long long>(trace_id));
  }
  if (!note.empty()) {
    out += StrFormat(",\"note\":\"%s\"", JsonEscape(note).c_str());
  }
  out += "}";
  return out;
}

EventLog& EventLog::Global() {
  // Leaked on purpose, like the metrics registry: instrumented paths may
  // record from static destructors.
  static EventLog* log = new EventLog();
  return *log;
}

EventLog::Stripe& EventLog::StripeForThisThread() {
  size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  return stripes_[h % kStripes];
}

void EventLog::Record(Event e) {
  e.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  e.t_ns = TraceNowNanos();
  recorded_.fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = StripeForThisThread();
  MutexLock lock(&stripe.mu);
  if (stripe.ring.size() < kStripeCapacity) {
    stripe.ring.push_back(std::move(e));
  } else {
    stripe.ring[static_cast<size_t>(stripe.next % kStripeCapacity)] =
        std::move(e);
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    // Mirrored onto the metrics registry so scrapers see ring overwrites
    // without parsing /statusz. Registering while the stripe lock is held
    // is rank-legal (kEventLogStripe < kMetricsRegistry); the static caches
    // the pointer so steady-state drops are one extra relaxed increment.
    static Counter* dropped_counter =
        MetricsRegistry::Global().GetCounter("iq.eventlog.dropped");
    dropped_counter->Increment();
  }
  ++stripe.next;
}

std::vector<Event> EventLog::Snapshot() const {
  std::vector<Event> out;
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(&stripe.mu);
    out.insert(out.end(), stripe.ring.begin(), stripe.ring.end());
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return out;
}

std::string EventLog::ToJsonl() const {
  std::string out;
  for (const Event& e : Snapshot()) {
    out += e.ToJson();
    out += '\n';
  }
  return out;
}

Status EventLog::WriteJsonl(const std::string& path) const {
  return WriteStringToFile(path, ToJsonl());
}

void EventLog::Clear() {
  for (Stripe& stripe : stripes_) {
    MutexLock lock(&stripe.mu);
    stripe.ring.clear();
    stripe.next = 0;
  }
}

uint64_t EventLog::dropped_count() const {
  return g_dropped.load(std::memory_order_relaxed);
}

Event EventLog::SolveStart(const char* op, const char* scheme, int target,
                           int tau, double beta, uint64_t epoch) {
  Event e;
  e.type = EventType::kSolveStart;
  e.op = op;
  e.scheme = scheme;
  e.target = target;
  e.tau = tau;
  e.beta = beta;
  e.epoch = epoch;
  return e;
}

Event EventLog::SolveEnd(const char* op, const char* scheme, int target,
                         bool ok, double cost, int hits_before,
                         int hits_after, int iterations,
                         uint64_t candidates_generated,
                         uint64_t candidates_evaluated,
                         uint64_t queries_rescored, uint64_t queries_reused,
                         double seconds, uint64_t epoch) {
  Event e;
  e.type = EventType::kSolveEnd;
  e.op = op;
  e.scheme = scheme;
  e.target = target;
  e.ok = ok;
  e.cost = cost;
  e.hits_before = hits_before;
  e.hits_after = hits_after;
  e.iterations = iterations;
  e.candidates_generated = candidates_generated;
  e.candidates_evaluated = candidates_evaluated;
  e.queries_rescored = queries_rescored;
  e.queries_reused = queries_reused;
  e.seconds = seconds;
  e.epoch = epoch;
  return e;
}

Event EventLog::ApplyStrategy(int target, bool ok, uint64_t queries_reranked,
                              uint64_t queries_reused, int64_t affected,
                              double seconds, uint64_t epoch) {
  Event e;
  e.type = EventType::kApplyStrategy;
  e.op = "ApplyStrategy";
  e.target = target;
  e.ok = ok;
  e.queries_rescored = queries_reranked;
  e.queries_reused = queries_reused;
  e.n = affected;
  e.seconds = seconds;
  e.epoch = epoch;
  return e;
}

Event EventLog::IndexBuild(int num_queries, int num_subdomains,
                           double seconds, uint64_t epoch) {
  Event e;
  e.type = EventType::kIndexBuild;
  e.op = "Build";
  e.num_queries = num_queries;
  e.num_subdomains = num_subdomains;
  e.seconds = seconds;
  e.epoch = epoch;
  return e;
}

Event EventLog::IndexMaintenance(const char* op, int id, bool ok,
                                 uint64_t epoch) {
  Event e;
  e.type = EventType::kIndexMaintenance;
  e.op = op;
  e.target = id;
  e.ok = ok;
  e.epoch = epoch;
  return e;
}

Event EventLog::PoolSaturation(const char* op, int64_t work_units,
                               int num_threads) {
  Event e;
  e.type = EventType::kPoolSaturation;
  e.op = op;
  e.n = work_units;
  e.num_threads = num_threads;
  return e;
}

Event EventLog::Error(const char* op, std::string note) {
  Event e;
  e.type = EventType::kError;
  e.op = op;
  e.note = std::move(note);
  return e;
}

}  // namespace iq
