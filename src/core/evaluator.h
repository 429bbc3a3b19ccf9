#ifndef IQ_CORE_EVALUATOR_H_
#define IQ_CORE_EVALUATOR_H_

#include <atomic>
#include <memory>
#include <vector>

#include "core/subdomain_index.h"
#include "topk/rta.h"
#include "util/annotations.h"
#include "util/bucket_order.h"

namespace iq {

/// Evaluates H(p_target + s): the number of queries the improved target
/// hits. The improved object is passed as its coefficient vector; the
/// target's original row is excluded from every competition (the improved
/// object replaces it, paper §3.1).
///
/// The three implementations mirror the paper's compared schemes:
/// Ese (the proposed Algorithm 2), Rta (reverse top-k baseline), and
/// BruteForce (index-free re-evaluation).
///
/// Concurrency: evaluators are externally synchronized — they own no lock.
/// They wrap *immutable* inputs: in the engine they are created, driven and
/// destroyed within one solve against a pinned epoch (IqEngine::Snapshot(),
/// DESIGN.md §12), whose index/view/queries cannot change underneath them;
/// standalone users provide the same stability with a single test thread or
/// their own lock. SupportsConcurrentEval() widens
/// that contract per subclass: when it returns true, HitsForCoeffs only
/// reads construction-time state and keeps its bookkeeping in the atomic
/// counters below, so one instance may be shared across threads. The
/// greedy evaluates its candidates serially (DESIGN.md §8), so no library
/// path relies on it. Subclass members that are mutated per evaluation and
/// therefore pin SupportsConcurrentEval() to false carry
/// IQ_GUARDED_BY_CALLER markers (documentation, not compiler-enforced).
class StrategyEvaluator {
 public:
  virtual ~StrategyEvaluator() = default;

  /// H for the improved target's coefficient vector.
  virtual int HitsForCoeffs(const Vec& c) = 0;

  /// H of the unimproved target.
  virtual int base_hits() const = 0;

  virtual const char* name() const = 0;

  /// True when HitsForCoeffs may be called from several threads at once
  /// (the implementation only reads shared state and keeps its accounting
  /// in the atomic counters below).
  virtual bool SupportsConcurrentEval() const { return false; }

  /// Number of HitsForCoeffs calls so far (experiment bookkeeping).
  size_t calls() const { return calls_.load(std::memory_order_relaxed); }

  /// Queries whose hit state was recomputed (scored against the improved
  /// coefficients) across all evaluations so far. The ESE rescores only the
  /// queries within reach of the step (HitsForCoeffs) or in the affected
  /// subspaces (HitsViaWedges); the baselines rescore every active query.
  size_t queries_rescored() const {
    return queries_rescored_.load(std::memory_order_relaxed);
  }
  /// Queries whose cached hit state was reused without rescoring. Invariant:
  /// queries_rescored + queries_reused advances by |active queries| per
  /// evaluation.
  size_t queries_reused() const {
    return queries_reused_.load(std::memory_order_relaxed);
  }

 protected:
  // Atomic so thread-safe subclasses (SupportsConcurrentEval() == true) can
  // be driven concurrently by ThreadPool::ParallelFor without racing the
  // bookkeeping; single-threaded evaluators pay one uncontended add. Every
  // worker bumps them on every evaluation, so they get a cache line of
  // their own: off the vtable pointer each virtual HitsForCoeffs call loads
  // and off the subclass members the same workers read (DESIGN.md §13.1).
  alignas(64) std::atomic<size_t> calls_{0};
  std::atomic<size_t> queries_rescored_{0};
  std::atomic<size_t> queries_reused_{0};

 private:
  // Fills the counters' line, so no subclass member lands in its tail.
  [[maybe_unused]] char counters_pad_[64 - 3 * sizeof(std::atomic<size_t>)] =
      {};
};

/// Efficient Strategy Evaluation (Algorithm 2). The subdomain index already
/// paid for ranking every query once; evaluation of a strategy then needs a
/// single dot product per query against the cached hit threshold t_q —
/// no top-k re-evaluation ever happens here — and only for the queries the
/// strategy can reach. Construction scores every active query under the
/// unimproved target's coefficients c0 and lays the queries out in
/// ascending buckets of their reach, |score - t_q| / ‖w_q‖₂; a call with c
/// re-tests only those whose reach is within ‖c - c0‖₂ (plus a rounding
/// slack) and keeps every other cached hit state (DESIGN.md §2). A
/// geometric retrieval path (affected-subspace wedges over the R-tree,
/// pruned to signature-member competitors) is exposed for thin strategies
/// and validated against the scan in tests.
class EseEvaluator : public StrategyEvaluator {
 public:
  EseEvaluator(const SubdomainIndex* index, int target);
  /// Takes the target's hit thresholds, index->HitThresholds(target) as an
  /// IqContext holds them, instead of computing them again.
  EseEvaluator(const SubdomainIndex* index, int target,
               std::vector<double> thresholds);

  int HitsForCoeffs(const Vec& c) override;
  int base_hits() const override { return base_hits_; }
  const char* name() const override { return "Efficient-IQ"; }
  /// Reads only construction-time state; safe to share.
  bool SupportsConcurrentEval() const override { return true; }

  int target() const { return target_; }
  /// Cached per-query hit thresholds (NaN on inactive slots).
  const std::vector<double>& thresholds() const { return thresholds_; }
  /// Hit flags of the unimproved target.
  const std::vector<bool>& base_hit_flags() const { return base_hit_flags_; }

  /// Query ids whose result may change between coefficient vectors c_from
  /// and c_to: union of the affected subspaces (Eq. 2-5) of every signature-
  /// member competitor, retrieved through the R-tree with wedge pruning.
  std::vector<int> AffectedQueries(const Vec& c_from, const Vec& c_to) const;

  /// H computed the fully geometric way (Algorithm 2 literal): start from
  /// the base hit flags and re-test only AffectedQueries(base, c).
  int HitsViaWedges(const Vec& c);

 private:
  /// An active query's reach from c0, its place in the query kernel (block
  /// and offset in it) and its base hit state.
  struct RowReach {
    double reach;
    uint32_t block;
    uint16_t offset;
    bool hit;
  };
  struct ReachKey {
    double operator()(const RowReach& r) const { return r.reach; }
  };

  /// Hits among the first `len` rows of the reach layout.
  int PrefixHits(const Vec& c, size_t len) const;
  /// 1 when layout row i is hit at c.
  int RowHit(const Vec& c, size_t i) const;

  const SubdomainIndex* index_;
  int target_;
  int base_hits_ = 0;
  std::vector<double> thresholds_;
  std::vector<bool> base_hit_flags_;
  Vec c0_;                  // the unimproved target's coefficients
  double c0_sum_sq_ = 0.0;  // Σ c0_s²
  bool reach_ok_ = false;   // c0 is inside the bound's range (DESIGN.md §2)
  BucketOrder<RowReach, ReachKey> reach_;
  /// The reach layout: the active queries in reach_'s order, by bucket,
  /// their weights slot-major (slot s of layout row i at s * rows + i),
  /// their thresholds, and base_before_[i], the base hits among layout rows
  /// [0, i).
  std::vector<double> weights_;
  std::vector<double> layout_thresholds_;
  std::vector<int> base_before_;
};

/// Index-free baseline: recomputes the k-th competitor score per query with
/// a full scan on every evaluation.
class BruteForceEvaluator : public StrategyEvaluator {
 public:
  BruteForceEvaluator(const FunctionView* view, const QuerySet* queries,
                      int target);

  int HitsForCoeffs(const Vec& c) override;
  int base_hits() const override { return base_hits_; }
  const char* name() const override { return "BruteForce"; }
  /// Stateless full scans (KthBestScore is a pure function); safe to share.
  bool SupportsConcurrentEval() const override { return true; }

 private:
  const FunctionView* view_;
  const QuerySet* queries_;
  int target_;
  int base_hits_ = 0;
  std::vector<Vec> aug_w_;
};

/// RTA-IQ's evaluator: the reverse top-k Threshold Algorithm decides, per
/// evaluation, which queries the improved object hits (linear utilities
/// only, as in the paper).
class RtaStrategyEvaluator : public StrategyEvaluator {
 public:
  RtaStrategyEvaluator(const FunctionView* view, const QuerySet* queries,
                       int target);

  int HitsForCoeffs(const Vec& c) override;
  int base_hits() const override { return base_hits_; }
  const char* name() const override { return "RTA-IQ"; }

  size_t total_full_evaluations() const { return total_full_evaluations_; }

 private:
  const FunctionView* view_;
  const QuerySet* queries_;
  int target_;
  int base_hits_ = 0;
  std::vector<Vec> aug_w_dense_;   // active queries only
  std::vector<int> ks_dense_;
  std::vector<int> order_;
  /// Rta keeps per-call scratch state, and the counter below is a plain
  /// size_t bumped on every evaluation — both are why this evaluator reports
  /// SupportsConcurrentEval() == false and must stay caller-serialized.
  std::unique_ptr<Rta> rta_ IQ_GUARDED_BY_CALLER(owner);
  size_t total_full_evaluations_ IQ_GUARDED_BY_CALLER(owner) = 0;
};

}  // namespace iq

#endif  // IQ_CORE_EVALUATOR_H_
