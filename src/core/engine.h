#ifndef IQ_CORE_ENGINE_H_
#define IQ_CORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <string>

#include "core/combinatorial.h"
#include "core/epoch.h"
#include "core/exhaustive.h"
#include "core/iq_algorithms.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "topk/topk.h"
#include "util/annotations.h"
#include "util/thread_pool.h"

namespace iq {

/// Processing scheme for an improvement query — the four schemes compared in
/// the paper's evaluation (§6.1) plus the optimal exhaustive option.
enum class IqScheme {
  kEfficient,   // proposed: ESE over the subdomain index
  kRta,         // RTA-IQ: reverse top-k threshold algorithm evaluation
  kGreedy,      // simple greedy: always the cheapest single query
  kRandom,      // random strategy sampling
  kExhaustive,  // optimal (tiny inputs only)
};

const char* IqSchemeName(IqScheme scheme);

struct EngineOptions {
  SubdomainIndexOptions index;
  /// Worker threads for the parallel execution layer (DESIGN.md §8): the
  /// subdomain-index build/maintenance ranking and SolveBatch fan out over
  /// an engine-owned pool of this many threads; a single search runs on
  /// its caller. 0 (the default) creates no pool and preserves the fully
  /// serial code path; any value >= 1 routes through the pool with results
  /// bit-identical to serial (deterministic reduction — see
  /// tests/parallel_diff_test.cc).
  int num_threads = 0;
  /// Live observability endpoint (DESIGN.md §9). -1 (the default) serves
  /// nothing; 0 starts the /metrics exporter on a kernel-chosen loopback
  /// port (read it back via exporter()->port()); any other value binds
  /// 127.0.0.1:<port>. The exporter is engine-owned and stops with it.
  int exporter_port = -1;
  /// Dump-on-error post-mortem (DESIGN.md §11). When non-empty, span
  /// capture is on (only erred traces are retained unless slow_trace_nanos
  /// is set too), and every solve and every write that fails writes a span
  /// dump here once its root span has closed: the /tracez payload with the
  /// erred trace and its status text, then one window of every span still
  /// in the rings. `iq_trace <path>` reads it. An unwritable path is logged
  /// as a warning; the call still returns its own status. Empty = no dumps.
  std::string event_dump_path;
  /// Tail-based slow-call capture (DESIGN.md §11). 0 (the default) leaves
  /// causal tracing off unless event_dump_path is set. Any value > 0
  /// enables the trace collector and retains every root call (every solve
  /// and every write) whose wall clock reaches this many nanoseconds — plus
  /// every erred call — in the bounded store served at /tracez. Tracing is
  /// observation-only: results stay byte-identical with it on or off
  /// (tests/parallel_diff_test.cc).
  int64_t slow_trace_nanos = 0;
  /// Capacity of the retained-trace store; oldest traces drop first.
  int slow_trace_max_retained = 32;
};

/// One unit of work for IqEngine::SolveBatch: a Min-Cost or Max-Hit
/// improvement query against one target object.
struct BatchItem {
  enum class Kind { kMinCost, kMaxHit };
  Kind kind = Kind::kMinCost;
  int target = -1;
  /// Min-Cost goal (ignored by kMaxHit).
  int tau = 1;
  /// Max-Hit budget (ignored by kMinCost).
  double beta = 0.0;
  /// Per-item options. Items are the parallel unit: each search runs on
  /// the worker that claimed it.
  IqOptions options;
};

/// Solves one improvement query with `scheme` against a read-only subdomain
/// index (and the view and queries it was built over) — the one scheme
/// dispatch. IqEngine's MinCost, MaxHit and SolveBatch run through it
/// against a pinned epoch's index, with no lock (the pin keeps the epoch
/// immutable); the figure benches run it against a standalone index.
Result<IqResult> SolveOne(const SubdomainIndex* index, const BatchItem& item,
                          IqScheme scheme);

/// The analytic tool's core facade (§6.1): owns the dataset, the query
/// workload, the objects-as-functions view and the subdomain index, and
/// exposes improvement queries plus live data maintenance. This is the
/// public API the examples and the DBMS integration build on.
///
/// Thread safety — epoch snapshots (DESIGN.md §12): the engine's entire
/// logical state lives in an immutable EpochSnapshot published through an
/// atomic pointer. Readers (HitCount, TopK, the rank operators, MinCost,
/// MaxHit, SolveBatch, CheckInvariants) pin the current epoch via
/// Snapshot() and never take the engine mutex — they proceed lock-free
/// while writers mutate concurrently, and every answer is consistent as of
/// one epoch. Writers (AddQuery, RemoveQuery, AddObject, RemoveObject,
/// ApplyStrategy) serialize on the internal mutex only to build a
/// copy-on-write delta against the current epoch and publish the next one;
/// a failed update discards the unpublished delta, leaving the engine
/// exactly at the previous epoch. Superseded epochs are retired when their
/// last pinned reader drops them. The locking discipline is
/// compiler-verified under clang -Wthread-safety.
class IqEngine {
 public:
  /// All queries share one utility `form` (use LinearForm::Identity(dim) for
  /// the plain linear utility, Linearize() for a complex one, or a
  /// UnifiedFamily-derived form for heterogeneous workloads).
  static Result<IqEngine> Create(Dataset dataset, LinearForm form,
                                 std::vector<TopKQuery> queries,
                                 EngineOptions options = {});

  /// Moves lock `other.mu_` (and, for assignment, both engine mutexes via
  /// the ranked MutexLockPair, which imposes address order internally) for
  /// the duration of the member transfer, so a move racing a concurrent
  /// *writer* on `other` is a blocked wait instead of a torn transfer.
  /// (Concurrent readers hold pinned epochs, which stay valid across the
  /// move; new reads on the moved-from engine are the caller's bug, as with
  /// any moved-from object.) The move *constructor* keeps an
  /// IQ_NO_THREAD_SAFETY_ANALYSIS escape only because it writes this'
  /// members before the object is published — there is no lock of `this` to
  /// hold yet; assignment is fully analyzed.
  IqEngine(IqEngine&& other) noexcept IQ_NO_THREAD_SAFETY_ANALYSIS;
  IqEngine& operator=(IqEngine&& other) noexcept;
  IqEngine(const IqEngine&) = delete;
  IqEngine& operator=(const IqEngine&) = delete;

  /// Pins the currently published epoch (DESIGN.md §12). The returned
  /// handle keeps that epoch's dataset/queries/view/index immutable and
  /// alive for the handle's lifetime, no matter how many updates other
  /// threads apply meanwhile. Lock-free; never blocks behind a writer.
  EpochHandle Snapshot() const {
    return EpochHandle(epoch_.load(std::memory_order_acquire));
  }

  /// Structural access into the *current* epoch. The references are stable
  /// only until the next successful mutation publishes a new epoch and the
  /// old one retires — callers that overlap reads with updates should pin
  /// an epoch via Snapshot() instead.
  const Dataset& dataset() const { return *CurrentEpoch()->dataset; }
  const QuerySet& queries() const { return *CurrentEpoch()->queries; }
  const FunctionView& view() const { return *CurrentEpoch()->view; }
  const SubdomainIndex& index() const { return *CurrentEpoch()->index; }

  /// Number of queries currently hit by an object (reverse top-k count).
  int HitCount(int object) const;
  std::vector<int> HitSet(int object) const;

  /// Evaluates one ad-hoc top-k query (weights in the utility's original
  /// weight space).
  Result<std::vector<ScoredObject>> TopK(const Vec& weights, int k) const;

  // ---- Related rank-aware operators (paper §2) ----

  /// Reverse top-k (Vlachou et al.): the queries whose top-k contains the
  /// object — identical to HitSet, provided under the literature name.
  std::vector<int> ReverseTopK(int object) const;

  /// The object's rank under query q: 1 + number of active competitors
  /// scoring strictly better (ties resolved by id, matching TopKScan).
  Result<int> RankUnderQuery(int object, int q) const;

  /// Reverse k-ranks (Zhang et al.): the k queries where the object ranks
  /// best, as (query id, rank) pairs ordered by ascending rank.
  Result<std::vector<std::pair<int, int>>> ReverseKRanks(int object,
                                                         int k) const;

  /// The best rank the object achieves across the current workload (a
  /// workload-restricted analogue of the maximum rank query of Mouratidis
  /// et al., which optimizes over all possible utility functions).
  Result<int> BestWorkloadRank(int object) const;

  // ---- Improvement queries ----
  Result<IqResult> MinCost(int target, int tau, const IqOptions& options = {},
                           IqScheme scheme = IqScheme::kEfficient) const;
  Result<IqResult> MaxHit(int target, double beta,
                          const IqOptions& options = {},
                          IqScheme scheme = IqScheme::kEfficient) const;
  Result<MultiIqResult> MultiMinCost(const std::vector<int>& targets, int tau,
                                     const std::vector<IqOptions>& options)
      const;
  Result<MultiIqResult> MultiMaxHit(const std::vector<int>& targets,
                                    double beta,
                                    const std::vector<IqOptions>& options)
      const;

  /// Solves many independent improvement queries against one pinned epoch,
  /// fanning the items out over the engine pool (EngineOptions::num_threads;
  /// serial when 0). The whole batch reads the epoch current at entry —
  /// updates landing mid-batch publish newer epochs but never perturb the
  /// running batch. Results come back in item order. Determinism contract:
  /// equal inputs against an equal epoch yield byte-identical results for
  /// every num_threads value, and the first (lowest-index) failing item's
  /// error is returned — see tests/parallel_diff_test.cc.
  Result<std::vector<IqResult>> SolveBatch(
      const std::vector<BatchItem>& items,
      IqScheme scheme = IqScheme::kEfficient) const;

  /// SolveBatch against an explicitly pinned epoch: the caller chooses the
  /// snapshot (e.g. one pinned before a burst of updates) instead of the
  /// engine pinning the current one. The determinism oracle in
  /// tests/parallel_diff_test.cc uses this to prove a batch is a pure
  /// function of its epoch even while writers churn the engine.
  Result<std::vector<IqResult>> SolveBatchOn(
      const EpochHandle& snap, const std::vector<BatchItem>& items,
      IqScheme scheme = IqScheme::kEfficient) const;

  /// The engine's worker pool; nullptr when num_threads was 0.
  ThreadPool* pool() const { return pool_.get(); }

  /// The live /metrics endpoint; nullptr when exporter_port was -1.
  const MetricsExporter* exporter() const { return exporter_.get(); }

  // ---- Live maintenance (§4.3) ----
  Result<int> AddQuery(TopKQuery q) IQ_EXCLUDES(mu_);
  Status RemoveQuery(int q) IQ_EXCLUDES(mu_);
  Result<int> AddObject(Vec attrs) IQ_EXCLUDES(mu_);
  Status RemoveObject(int id) IQ_EXCLUDES(mu_);
  /// Permanently applies an improvement strategy to an object. In Debug
  /// builds, every call cross-checks the ESE cached state against naive
  /// re-evaluation and re-ranks one sampled subdomain (round robin); a
  /// stale cache aborts via IQ_DCHECK instead of returning wrong counts.
  Status ApplyStrategy(int target, const Vec& strategy) IQ_EXCLUDES(mu_);

  // ---- Observability ----

  /// Point-in-time snapshot of every engine metric (counters, gauges and
  /// latency histograms under the iq.* naming scheme; see DESIGN.md
  /// "Observability"). The registry is process-global, so the snapshot also
  /// covers work done through other engines in the same process; call
  /// MetricsRegistry::Global().Reset() first for a per-workload reading.
  MetricsSnapshot GetStatsSnapshot() const;

  // ---- Correctness tooling ----

  /// Deep validation of the engine's cached state (the subdomain index and
  /// its R-tree) against the pinned current epoch; see
  /// SubdomainIndex::CheckInvariants.
  Status CheckInvariants() const;

 private:
  /// A writer's in-flight copy-on-write delta (DESIGN.md §12): the next
  /// epoch's four parts, sharing everything with the current epoch except
  /// the owners this mutation touches. Built and mutated only under mu_;
  /// either published wholesale or discarded wholesale.
  struct Delta {
    uint64_t epoch = 0;
    std::shared_ptr<const Dataset> dataset;
    std::shared_ptr<const QuerySet> queries;
    std::shared_ptr<const FunctionView> view;
    std::shared_ptr<SubdomainIndex> index;
    // Mutable aliases into the parts this delta copied (null for shared,
    // untouched parts).
    Dataset* mutable_dataset = nullptr;
    QuerySet* mutable_queries = nullptr;
    FunctionView* mutable_view = nullptr;
  };
  /// Which owners the mutation touches: object mutations copy the dataset
  /// and rebind the view; query mutations copy the query set. The index is
  /// always CloneCow'd (cells shared until a maintenance hook touches them).
  enum class DeltaKind { kObjects, kQueries };

  IqEngine(std::shared_ptr<const EpochSnapshot> snapshot,
           std::unique_ptr<ThreadPool> pool,
           std::unique_ptr<MetricsExporter> exporter,
           std::string event_dump_path);

  /// The published snapshot; readers' single acquire load.
  std::shared_ptr<const EpochSnapshot> CurrentEpoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  Delta BeginDelta(DeltaKind kind) IQ_REQUIRES(mu_);
  /// Atomic publish of the delta as the next epoch: the swap is the linear-
  /// ization point of the mutation; the superseded epoch retires when its
  /// last pin drops. Also advances the iq.index.epoch gauge.
  void PublishLocked(Delta delta) IQ_REQUIRES(mu_);

  /// The outcome path of every solve and every write: runs `body` under the
  /// call's root span `op` (args `arg0`/`arg1`, TraceEvent::kNoArg when
  /// unset), marks the trace erred when the returned status is not OK, and
  /// hands that status to NoteOutcome once the root has closed. Defined in
  /// engine.cc, its only user.
  template <typename Body>
  auto RootCall(const char* op, int64_t arg0, int64_t arg1,
                Body&& body) const;

  /// Dump-on-error (EngineOptions::event_dump_path): on a non-OK status,
  /// writes obs/trace.h ErrorDumpJson() to the dump path, and logs a
  /// warning naming the path when that write fails. Called after the
  /// failing call's root span has closed, so the dump holds its erred trace.
  void NoteOutcome(const Status& st) const;

  /// ApplyStrategy body, operating on the writer's delta.
  Status ApplyStrategyOnDelta(Delta& delta, int target, const Vec& strategy)
      IQ_REQUIRES(mu_);

  /// Serializes writers (§4.3 maintenance + ApplyStrategy): held while a
  /// delta is built against the current epoch and swapped in as the next
  /// one. Readers never take it — they pin epochs via Snapshot() — so the
  /// outermost rank in the lock tree (LockRank::kEngine, util/lock_rank.h)
  /// now covers only the writer side; the pool, metrics and trace locks
  /// still nest inside it. Dumps are written after it is released.
  mutable Mutex mu_{LockRank::kEngine, "IqEngine::mu_"};
  /// The published epoch (DESIGN.md §12). Readers load-acquire and pin;
  /// the writer (under mu_) store-releases the next snapshot. Internally
  /// synchronized, hence not mu_-guarded.
  std::atomic<std::shared_ptr<const EpochSnapshot>>
      epoch_;  // iq-lint: allow(unguarded-member)
  /// Worker pool (DESIGN.md §8). Not guarded: set once at Create, then
  /// immutable; the pool object is internally synchronized. Workers only
  /// read pinned epochs and never take mu_.
  std::unique_ptr<ThreadPool> pool_;  // iq-lint: allow(unguarded-member)
  /// Live /metrics endpoint (DESIGN.md §9). Not guarded: set once at
  /// Create, then immutable; the exporter is internally synchronized and
  /// only ever *reads* the process-global registry.
  std::unique_ptr<MetricsExporter>
      exporter_;  // iq-lint: allow(unguarded-member)
  /// Dump-on-error target; set once at Create, then immutable.
  std::string event_dump_path_;  // iq-lint: allow(unguarded-member)
  /// Round-robin ticket for the Debug-mode sampled-subdomain cross-check.
  uint64_t apply_ticket_ IQ_GUARDED_BY(mu_) = 0;
};

}  // namespace iq

#endif  // IQ_CORE_ENGINE_H_
