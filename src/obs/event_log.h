#ifndef IQ_OBS_EVENT_LOG_H_
#define IQ_OBS_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/annotations.h"
#include "util/status.h"

namespace iq {

/// Structured event log / flight recorder (DESIGN.md §9). Where the metrics
/// registry answers "how much, in aggregate", the event log answers "what
/// just happened, in order": a fixed-capacity ring of typed events that the
/// engine's instrumented paths append to on every improvement-query solve,
/// strategy application, index (re)build and pool-saturation episode. The
/// ring always holds the most recent window, so a post-mortem JSONL dump
/// after an error shows the run-up to it, not the start of the process.
///
/// Concurrency: the ring is striped — each stripe has its own mutex and each
/// recording thread hashes to one stripe — so SolveBatch workers appending
/// concurrently contend only within a stripe, never globally. Events carry a
/// global sequence number; snapshots merge the stripes back into recording
/// order.

enum class EventType : uint8_t {
  kSolveStart = 0,
  kSolveEnd,
  kApplyStrategy,
  kIndexBuild,
  kIndexMaintenance,
  kPoolSaturation,
  kError,
};

/// "solve_start", "solve_end", ... (the JSONL `type` field).
const char* EventTypeName(EventType type);

/// One recorded event. A flat union of every event kind's fields: each kind
/// fills the subset that applies (see the per-kind factory helpers below)
/// and the JSONL rendering emits only that subset. `op` and `scheme` must be
/// string literals or other static-duration strings — the log stores the
/// pointer; `note` is copied.
struct Event {
  EventType type = EventType::kError;
  /// Global recording order (assigned by Record).
  uint64_t seq = 0;
  /// TraceNowNanos() at Record time (same clock as the trace rings).
  uint64_t t_ns = 0;

  const char* op = nullptr;      // "MinCost", "Build", "OnObjectRemoved", ...
  const char* scheme = nullptr;  // IqSchemeName(...) for solve events
  int target = -1;               // object / query id the event concerns
  int tau = 0;                   // solve_start (Min-Cost goal)
  double beta = 0.0;             // solve_start (Max-Hit budget)
  bool ok = true;                // solve_end / apply / maintenance outcome
  double cost = 0.0;             // solve_end
  int hits_before = 0;           // solve_end / apply
  int hits_after = 0;            // solve_end / apply
  int iterations = 0;            // solve_end (EvalBreakdown)
  uint64_t candidates_generated = 0;  // solve_end (EvalBreakdown)
  uint64_t candidates_evaluated = 0;  // solve_end (EvalBreakdown)
  uint64_t queries_rescored = 0;  // solve_end breakdown / apply re-ranks
  uint64_t queries_reused = 0;    // solve_end breakdown / apply reuse
  double seconds = 0.0;           // wall time of the operation
  int num_queries = 0;            // index_build
  int num_subdomains = 0;         // index_build
  int64_t n = 0;                  // generic size: batch items, work units
  int num_threads = 0;            // pool_saturation
  /// Index epoch the event concerns (DESIGN.md §12): the pinned epoch of a
  /// solve, the epoch an IndexBuild produced, or the epoch a maintenance
  /// hook was building. 0 = pre-epoch / standalone index.
  uint64_t epoch = 0;             // solve_* / index_build / index_maintenance
  /// Causal trace id of the solve this event belongs to (DESIGN.md §11), so
  /// a flight-recorder line cross-references its /tracez trace. 0 = tracing
  /// off / event outside any root span; emitted only when nonzero, keeping
  /// dumps from untraced runs byte-stable.
  uint64_t trace_id = 0;          // solve_* / apply_strategy / error
  /// Free-form detail (error messages); copied, JSON-escaped on dump.
  std::string note;

  /// One-line JSON object (no trailing newline), e.g.
  ///   {"seq":7,"t_ns":123,"type":"solve_end","op":"MinCost",...}
  std::string ToJson() const;
};

class EventLog {
 public:
  /// Total retained events across all stripes.
  static constexpr size_t kCapacity = 4096;
  static constexpr size_t kStripes = 8;
  static constexpr size_t kStripeCapacity = kCapacity / kStripes;

  static EventLog& Global();

  /// Appends `e` (stamping seq and t_ns) to the calling thread's stripe.
  /// Constant-time; overwrites the stripe's oldest event when full.
  void Record(Event e);

  /// All retained events, merged across stripes into seq order.
  std::vector<Event> Snapshot() const;

  /// One ToJson() line per retained event, seq order, trailing newline.
  std::string ToJsonl() const;
  /// ToJsonl() written to `path`.
  Status WriteJsonl(const std::string& path) const;

  /// Drops all retained events (counters keep running).
  void Clear();

  /// Events ever recorded / overwritten-before-snapshot since process start
  /// (Clear() drops the retained window, not these totals — they let a dump
  /// reader see how much history the ring could not keep).
  uint64_t recorded_count() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t dropped_count() const;

  // ---- factory helpers (fill the per-kind field subset) ----
  static Event SolveStart(const char* op, const char* scheme, int target,
                          int tau, double beta, uint64_t epoch = 0);
  static Event SolveEnd(const char* op, const char* scheme, int target,
                        bool ok, double cost, int hits_before, int hits_after,
                        int iterations, uint64_t candidates_generated,
                        uint64_t candidates_evaluated,
                        uint64_t queries_rescored, uint64_t queries_reused,
                        double seconds, uint64_t epoch = 0);
  static Event ApplyStrategy(int target, bool ok, uint64_t queries_reranked,
                             uint64_t queries_reused, int64_t affected,
                             double seconds, uint64_t epoch = 0);
  static Event IndexBuild(int num_queries, int num_subdomains, double seconds,
                          uint64_t epoch = 0);
  static Event IndexMaintenance(const char* op, int id, bool ok,
                                uint64_t epoch = 0);
  static Event PoolSaturation(const char* op, int64_t work_units,
                              int num_threads);
  static Event Error(const char* op, std::string note);

 private:
  struct Stripe {
    /// All stripes share LockRank::kEventLogStripe: the log holds at most
    /// one stripe lock at a time (Record touches one stripe; Snapshot and
    /// Clear visit stripes strictly sequentially).
    mutable Mutex mu{LockRank::kEventLogStripe, "EventLog::stripe"};
    /// Ring storage; grows to kStripeCapacity then wraps.
    std::vector<Event> ring IQ_GUARDED_BY(mu);
    /// Events ever recorded into this stripe; `next % kStripeCapacity` is
    /// the overwrite cursor.
    uint64_t next IQ_GUARDED_BY(mu) = 0;
  };

  EventLog() = default;

  Stripe& StripeForThisThread();

  Stripe stripes_[kStripes];
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> recorded_{0};
};

}  // namespace iq

#endif  // IQ_OBS_EVENT_LOG_H_
