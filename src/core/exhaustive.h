#ifndef IQ_CORE_EXHAUSTIVE_H_
#define IQ_CORE_EXHAUSTIVE_H_

#include "core/iq_algorithms.h"

namespace iq {

/// Options for the exhaustive (optimal) searches the paper offers "for query
/// issuers who indeed want the optimal strategy" (§4.2.1). These blow up
/// combinatorially — the paper measures > 4 hours per query even on its
/// smallest dataset — so a subset cap guards against runaway inputs.
struct ExhaustiveOptions {
  IqOptions iq;
  /// Abort with ResourceExhausted when the subset enumeration would exceed
  /// this many candidate subsets.
  uint64_t max_subsets = 2'000'000;
};

/// Optimal Min-Cost improvement strategy (Eq. 7-10) by enumerating every
/// tau-subset of queries and solving the resulting convex program exactly
/// for every built-in cost: for L2, WeightedL2 and Quadratic the optimum
/// for a subset is the Dykstra projection of the origin onto the
/// intersection of the subset's hit halfspaces (in sqrt(c)-scaled space);
/// for L1 and WeightedL1 it is the cheapest feasible vertex of those
/// planes, the box faces and the coordinate planes. Custom costs use the
/// penalty solver, which is approximate. Linear utilities only
/// (Unimplemented otherwise); the options are checked by CheckIqOptions,
/// and a granularity grid is refused (the optima are continuous).
Result<IqResult> ExhaustiveMinCost(const IqContext& ctx, int tau,
                                   const ExhaustiveOptions& options = {});

/// Optimal Max-Hit improvement strategy (Eq. 15-18): searches subset sizes
/// h = m..1 for the largest h admitting a strategy within budget.
Result<IqResult> ExhaustiveMaxHit(const IqContext& ctx, double beta,
                                  const ExhaustiveOptions& options = {});

}  // namespace iq

#endif  // IQ_CORE_EXHAUSTIVE_H_
