#ifndef IQ_CORE_COMBINATORIAL_H_
#define IQ_CORE_COMBINATORIAL_H_

#include <vector>

#include "core/iq_algorithms.h"

namespace iq {

/// Result of a multi-target (combinatorial) improvement query (§5.1).
/// Hit counting follows the paper: a query hit by several improved targets
/// counts once.
struct MultiIqResult {
  std::vector<int> targets;
  /// strategies[i] improves targets[i]; costs[i] = Cost_i(strategies[i]).
  std::vector<Vec> strategies;
  std::vector<double> costs;
  double total_cost = 0.0;
  int hits_before = 0;
  int hits_after = 0;
  bool reached_goal = false;
  int iterations = 0;
  /// Summed over the targets' evaluators, as IqResult reports one.
  size_t evaluator_calls = 0;
  double seconds = 0.0;
  EvalBreakdown breakdown;
};

/// Combinatorial Min-Cost Improvement Strategy (Definition 5): the greedy
/// of §5.1 — per iteration, the (target, query) candidate with the best
/// cost-per-hit ratio is applied, until the union hit count reaches tau.
/// It runs the one greedy loop of MinCostIq (core/iq_algorithms.cc) with one
/// track per target, so a one-target search equals MinCostIq with an
/// EseEvaluator bit for bit.
///
/// `options` holds one entry per target, or a single entry shared by all.
/// Cost, box and granularity are per target; each target is snapped onto
/// its own grid after the loop. The loop-level settings — max_iterations
/// and candidate_eval_limit — come from options[0].
Result<MultiIqResult> CombinatorialMinCostIq(
    const SubdomainIndex& index, const std::vector<int>& targets, int tau,
    const std::vector<IqOptions>& options);

/// Combinatorial Max-Hit Improvement Strategy (Definition 6): same loop,
/// candidates filtered by the remaining shared budget beta; a target's grid
/// snap may spend beta less the other targets' costs.
Result<MultiIqResult> CombinatorialMaxHitIq(
    const SubdomainIndex& index, const std::vector<int>& targets, double beta,
    const std::vector<IqOptions>& options);

}  // namespace iq

#endif  // IQ_CORE_COMBINATORIAL_H_
