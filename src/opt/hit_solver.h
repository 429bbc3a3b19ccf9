#ifndef IQ_OPT_HIT_SOLVER_H_
#define IQ_OPT_HIT_SOLVER_H_

#include <functional>

#include "geom/vec.h"
#include "opt/bounds.h"
#include "opt/cost.h"
#include "util/status.h"

namespace iq {

/// Solution of the single-constraint subproblem (paper Eq. 13-14): the
/// cheapest strategy that makes the target hit one query.
struct HitSolution {
  Vec s;
  double cost = 0.0;
};

/// Minimizes cost(s) subject to the linear constraint a.s <= r and s inside
/// `box`. This is the exact subproblem for linear(ized) utilities: hitting
/// query q with threshold t requires w.(p+s) < t, i.e. a = w and
/// r = t - margin - w.p.
///
/// Closed forms are used for the built-in cost families (active-set for the
/// L2/quadratic ones, greedy best-efficiency fill for the L1 ones); Custom
/// costs fall back to the penalty solver. Returns FailedPrecondition when no
/// s in the box satisfies the constraint.
Result<HitSolution> MinCostForHalfspace(const Vec& a, double r,
                                        const CostFunction& cost,
                                        const AdjustBox& box);

/// Minimizes cost(s) subject to constraint(s) <= 0 and s inside `box`,
/// via an exterior quadratic-penalty method with projected backtracking
/// gradient descent. `constraint_grad` may be empty (numeric differences).
/// Returns FailedPrecondition when no feasible point is found.
Result<HitSolution> MinCostNonlinear(
    const std::function<double(const Vec&)>& constraint,
    const std::function<Vec(const Vec&)>& constraint_grad,
    const CostFunction& cost, const AdjustBox& box);

}  // namespace iq

#endif  // IQ_OPT_HIT_SOLVER_H_
