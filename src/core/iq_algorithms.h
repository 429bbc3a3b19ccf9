#ifndef IQ_CORE_IQ_ALGORITHMS_H_
#define IQ_CORE_IQ_ALGORITHMS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/evaluator.h"
#include "core/score_kernel.h"
#include "core/subdomain_index.h"
#include "opt/bounds.h"
#include "opt/cost.h"
#include "opt/hit_solver.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace iq {

/// Relative slack enforcing the strict inequality of Eq. 6. A query q with
/// threshold t is hit only when the improved score is below t, so the
/// candidate solvers aim for t - kHitMargin * (1 + |t|): every step
/// IqContext::SolveCandidate returns passes HitBy's strict < (a tested
/// contract, tests/iq_test.cc), exact score ties included.
inline constexpr double kHitMargin = 1e-7;

/// Options shared by every IQ scheme.
struct IqOptions {
  /// The query issuer's cost model (paper default: Eq. 30, L2).
  CostFunction cost = CostFunction::L2();
  /// Validity bounds on the strategy; unset = unbounded.
  std::optional<AdjustBox> box;
  /// 0 = automatic (4*tau + 16 for Min-Cost; unbounded-ish for Max-Hit).
  int max_iterations = 0;
  /// Per iteration, consider only `candidate_eval_limit` candidate steps
  /// (0 = all, the paper's literal Algorithm 3/4): the cheapest half of the
  /// limit plus a stride across the remaining cost range. The kept subset
  /// is chosen before any evaluation from every candidate, so a set limit
  /// makes Algorithms 3/4 and §5.1 solve all of them each iteration instead
  /// of best-first; within the subset the greedy evaluates only the
  /// candidates that can change its pick (DESIGN.md §2). The Greedy
  /// baseline evaluates nothing and ignores the limit. Used by the benches
  /// to keep RTA-IQ tractable, applied identically to every scheme for
  /// fairness.
  int candidate_eval_limit = 0;
  /// Sample budget of the Random baseline.
  int random_samples = 256;
  /// Discrete attributes (paper §3.1: "each dimension can be continuous or
  /// discrete"): when non-empty, the returned strategy is snapped onto the
  /// per-attribute grid (component j a multiple of granularity[j];
  /// 0 = continuous). Snapping re-evaluates honestly: hits_after /
  /// reached_goal describe the snapped strategy.
  Vec granularity;
  uint64_t seed = 1;
  /// Not read by any scheme: a search solves and evaluates its candidates
  /// on the calling thread, because which ones it visits depends on the
  /// evaluations before them (DESIGN.md §2, §8). Results never depend on
  /// it. IqEngine parallelizes across searches instead (SolveBatch).
  ThreadPool* pool = nullptr;
};

/// Explain-style per-call breakdown of where an IQ search spent its work.
/// Filled by every scheme; the global metrics registry (src/obs/) aggregates
/// the same quantities across calls under iq.search.* / iq.ese.*.
struct EvalBreakdown {
  int iterations = 0;
  /// Candidate steps produced by the per-query cost solver (Eq. 13-14).
  size_t candidates_generated = 0;
  /// Candidates whose H(p'+s) was evaluated. The greedy skips a candidate
  /// that provably cannot change its pick, and a Min-Cost iteration stops
  /// once Algorithm 3's pick is decided (DESIGN.md §2), so this is at most
  /// the candidates kept by candidate_eval_limit.
  size_t candidates_evaluated = 0;
  size_t evaluator_calls = 0;
  /// Per-query work inside the evaluator: rescored = hit state recomputed,
  /// reused = cached hit state kept (the ESE's; the baselines reuse none).
  size_t queries_rescored = 0;
  size_t queries_reused = 0;
  /// Time inside the candidate cost solver vs. inside H evaluation.
  double solver_seconds = 0.0;
  double eval_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Outcome of one improvement query.
struct IqResult {
  /// The improvement strategy s (total adjustment from the original object).
  Vec strategy;
  /// Cost_p(strategy) under the original object.
  double cost = 0.0;
  int hits_before = 0;
  int hits_after = 0;
  /// Min-Cost: hits_after >= tau. Max-Hit: always true (budget respected).
  bool reached_goal = false;
  int iterations = 0;
  size_t evaluator_calls = 0;
  double seconds = 0.0;
  EvalBreakdown breakdown;
};

/// Per-target workload context shared by all schemes: augmented weights,
/// hit thresholds t_q, and the single-constraint candidate solver
/// (Eq. 13-14). Thresholds come for free from a subdomain index; the
/// index-free constructor computes them with full scans (which is exactly
/// the extra cost the baselines pay).
class IqContext {
 public:
  static Result<IqContext> FromIndex(const SubdomainIndex* index, int target);
  static Result<IqContext> FromView(const FunctionView* view,
                                    const QuerySet* queries, int target);

  const FunctionView& view() const { return *view_; }
  const QuerySet& queries() const { return *queries_; }
  int target() const { return target_; }
  const std::vector<double>& thresholds() const { return thresholds_; }
  /// Query q's augmented weights. Pre: q is active; an inactive query's row
  /// is unspecified (empty, or the weights it had when it was active).
  const Vec& aug_w(int q) const { return aug_w_[static_cast<size_t>(q)]; }
  /// The active queries' augmented weights as a ScoreKernel (DESIGN.md
  /// §13): the index's own kernel (blocks shared), or one packed from
  /// aug_w for an index-free context.
  const ScoreKernel& query_kernel() const { return query_kernel_; }

  /// True when query q is hit by the improved coefficient vector c.
  bool HitBy(int q, const Vec& c) const;

  /// Cheapest step from `p_cur` (the target after the strategies applied so
  /// far) that makes the object hit query q, kHitMargin inside its
  /// halfspace; bounds are enforced on the cumulative strategy
  /// `s_total + step`. Closed-form for linear utilities, sequential
  /// linearization otherwise. Fails when q cannot be hit within the bounds
  /// (or, for a non-linear utility, when the linearization finds no step).
  Result<HitSolution> SolveCandidate(int q, const Vec& p_cur,
                                     const Vec& s_total,
                                     const IqOptions& options) const;
  /// The same step with its bounds given directly: `step_box` is the
  /// options' box less s_total, which the greedy builds once per target per
  /// iteration instead of once per candidate.
  Result<HitSolution> SolveCandidate(int q, const Vec& p_cur,
                                     const AdjustBox& step_box,
                                     const CostFunction& cost) const;

 private:
  IqContext() = default;

  const FunctionView* view_ = nullptr;
  const QuerySet* queries_ = nullptr;
  int target_ = -1;
  std::vector<double> thresholds_;
  /// Per query id; an index's context shares the index's chunks.
  CowChunks<Vec> aug_w_;
  ScoreKernel query_kernel_;
};

/// InvalidArgument unless `options` fits data of `dim` attributes: the box
/// has `dim` dimensions; a non-empty granularity has `dim` finite entries
/// >= 0; a weighted or quadratic cost has `dim` finite unit costs, > 0 for
/// WeightedL2/Quadratic and >= 0 for WeightedL1. Every scheme runs it
/// before any work.
Status CheckIqOptions(const IqOptions& options, int dim);

/// Algorithm 3: greedy best cost-per-hit search for the Min-Cost IQ.
Result<IqResult> MinCostIq(const IqContext& ctx, StrategyEvaluator* evaluator,
                           int tau, const IqOptions& options = {});

/// Algorithm 4: budgeted best cost-per-hit search for the Max-Hit IQ.
Result<IqResult> MaxHitIq(const IqContext& ctx, StrategyEvaluator* evaluator,
                          double beta, const IqOptions& options = {});

/// "Greedy" baseline (§6.1): repeatedly hit the single cheapest query,
/// ignoring the cost-per-hit ratio.
Result<IqResult> GreedyMinCost(const IqContext& ctx,
                               StrategyEvaluator* evaluator, int tau,
                               const IqOptions& options = {});
Result<IqResult> GreedyMaxHit(const IqContext& ctx,
                              StrategyEvaluator* evaluator, double beta,
                              const IqOptions& options = {});

/// "Random" baseline (§6.1): sample strategies until the goal is satisfied.
Result<IqResult> RandomMinCost(const IqContext& ctx,
                               StrategyEvaluator* evaluator, int tau,
                               const IqOptions& options = {});
Result<IqResult> RandomMaxHit(const IqContext& ctx,
                              StrategyEvaluator* evaluator, double beta,
                              const IqOptions& options = {});

}  // namespace iq

#endif  // IQ_CORE_IQ_ALGORITHMS_H_
