#include "opt/hit_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/check.h"

namespace iq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The penalty solver's schedule (MinCostNonlinear).
constexpr int kPenaltyRounds = 12;      // penalty escalations (mu *= 10)
constexpr int kPenaltyInnerIters = 300;  // gradient steps per round
constexpr double kPenaltyInitialMu = 10.0;
constexpr double kPenaltyFeasibilityTol = 1e-8;
constexpr double kPenaltyStepTol = 1e-12;

/// Unit cost of coordinate j: 1 when the cost carries none (L1, L2).
double UnitCost(const Vec& unit_costs, size_t j) {
  return unit_costs.empty() ? 1.0 : unit_costs[j];
}

/// Active-set solve of: min Σ c_j s_j^2  s.t.  a.s <= r, s in box.
/// (Also optimal for sqrt(Σ c_j s_j^2) — monotone transform.)
/// Each round recomputes every free coordinate, so between rounds a free
/// coordinate holds NaN and s itself records which ones the box has fixed.
Result<Vec> SolveQuadratic(const Vec& a, double r, const Vec& unit_costs,
                           const AdjustBox& box) {
  const size_t d = a.size();
  Vec s(d, 0.0);
  if (r >= 0) return s;

  constexpr double kFree = std::numeric_limits<double>::quiet_NaN();
  // Coordinates with a_j = 0 stay at 0 and are never fixed.
  auto is_free = [&](size_t j) { return a[j] != 0.0 && std::isnan(s[j]); };
  auto is_fixed = [&](size_t j) { return a[j] != 0.0 && !std::isnan(s[j]); };
  for (size_t j = 0; j < d; ++j) {
    if (a[j] != 0.0) s[j] = kFree;
  }
  double need = r;  // remaining RHS for the free coordinates
  for (size_t round = 0; round <= d; ++round) {
    double denom = 0.0;
    for (size_t j = 0; j < d; ++j) {
      if (is_free(j)) denom += a[j] * a[j] / UnitCost(unit_costs, j);
    }
    if (denom <= 0.0) {
      return Status::FailedPrecondition(
          "constraint cannot be met: no usable coordinates");
    }
    // Lagrangian optimum on the free coordinates (equality a.s = need).
    bool clamped_any = false;
    for (size_t j = 0; j < d; ++j) {
      if (!is_free(j)) continue;
      const double v = (a[j] / UnitCost(unit_costs, j)) * need / denom;
      const double lo = box.lower()[j];
      const double hi = box.upper()[j];
      if (v < lo || v > hi) {
        s[j] = std::clamp(v, lo, hi);
        clamped_any = true;
      }
    }
    if (!clamped_any) {
      for (size_t j = 0; j < d; ++j) {
        if (is_free(j)) {
          s[j] = (a[j] / UnitCost(unit_costs, j)) * need / denom;
        }
      }
      return s;
    }
    // Recompute the requirement left for the still-free coordinates.
    need = r;
    for (size_t j = 0; j < d; ++j) {
      if (is_fixed(j)) need -= a[j] * s[j];
    }
    if (need >= 0) {
      // Fixed coordinates alone already satisfy the constraint.
      for (size_t j = 0; j < d; ++j) {
        if (is_free(j)) s[j] = 0.0;
      }
      return s;
    }
  }
  return Status::Internal("active-set solver did not converge");
}

/// Greedy best-efficiency fill for: min Σ c_j |s_j| s.t. a.s <= r, s in box.
/// Optimal because the objective and the constraint are both separable and
/// linear in |s_j| once the movement direction (-sign(a_j)) is fixed.
Result<Vec> SolveL1(const Vec& a, double r, const Vec& unit_costs,
                    const AdjustBox& box) {
  const size_t d = a.size();
  Vec s(d, 0.0);
  if (r >= 0) return s;

  struct Move {
    size_t j;
    double efficiency;  // constraint reduction per unit cost
    double capacity;    // max |s_j| allowed by the box in the move direction
    double dir;         // sign of s_j
  };
  std::vector<Move> moves;
  for (size_t j = 0; j < d; ++j) {
    if (a[j] == 0.0) continue;
    double dir = a[j] > 0 ? -1.0 : 1.0;  // decrease a.s
    double cap = dir < 0 ? -box.lower()[j] : box.upper()[j];
    if (cap <= 0) continue;
    double c = UnitCost(unit_costs, j);
    double eff = c > 0 ? std::fabs(a[j]) / c : kInf;
    moves.push_back({j, eff, cap, dir});
  }
  std::sort(moves.begin(), moves.end(), [](const Move& x, const Move& y) {
    return x.efficiency > y.efficiency;
  });

  double need = -r;  // amount by which a.s must be decreased below 0
  for (const Move& m : moves) {
    if (need <= 0) break;
    double per_unit = std::fabs(a[m.j]);
    double take = std::min(m.capacity, need / per_unit);
    s[m.j] = m.dir * take;
    need -= take * per_unit;
  }
  if (need > 1e-12 * std::max(1.0, std::fabs(r))) {
    return Status::FailedPrecondition(
        "constraint cannot be met within the adjustment bounds");
  }
  return s;
}

}  // namespace

Result<HitSolution> MinCostForHalfspace(const Vec& a, double r,
                                        const CostFunction& cost,
                                        const AdjustBox& box) {
  IQ_CHECK(static_cast<int>(a.size()) == box.dim());
  using Kind = CostFunction::Kind;
  Result<Vec> s = Status::Unimplemented("");
  switch (cost.kind()) {
    case Kind::kL2:
    case Kind::kWeightedL2:
    case Kind::kQuadratic:
      s = SolveQuadratic(a, r, cost.unit_costs(), box);
      break;
    case Kind::kL1:
    case Kind::kWeightedL1:
      s = SolveL1(a, r, cost.unit_costs(), box);
      break;
    case Kind::kCustom:
      return MinCostNonlinear(
          [&a, r](const Vec& v) { return Dot(a, v) - r; },
          [&a](const Vec&) { return a; }, cost, box);
  }
  if (!s.ok()) return s.status();
  const double c = cost.Cost(*s);
  return HitSolution{std::move(s).value(), c};
}

Result<HitSolution> MinCostNonlinear(
    const std::function<double(const Vec&)>& constraint,
    const std::function<Vec(const Vec&)>& constraint_grad,
    const CostFunction& cost, const AdjustBox& box) {
  const int d = box.dim();
  auto grad_of_constraint = [&](const Vec& s) -> Vec {
    if (constraint_grad) return constraint_grad(s);
    const double h = 1e-6;
    Vec g(static_cast<size_t>(d));
    Vec probe = s;
    for (int j = 0; j < d; ++j) {
      probe[static_cast<size_t>(j)] += h;
      double up = constraint(probe);
      probe[static_cast<size_t>(j)] -= 2 * h;
      double down = constraint(probe);
      probe[static_cast<size_t>(j)] += h;
      g[static_cast<size_t>(j)] = (up - down) / (2 * h);
    }
    return g;
  };

  Vec s = box.Clamp(Zeros(d));
  if (constraint(s) <= 0) return HitSolution{s, cost.Cost(s)};

  double mu = kPenaltyInitialMu;
  Vec best;
  bool have_feasible = false;
  double best_cost = kInf;

  for (int round = 0; round < kPenaltyRounds; ++round, mu *= 10) {
    auto objective = [&](const Vec& v) {
      double g = std::max(0.0, constraint(v));
      return cost.Cost(v) + mu * g * g;
    };
    auto gradient = [&](const Vec& v) {
      Vec g = cost.Gradient(v);
      double viol = constraint(v);
      if (viol > 0) {
        Vec cg = grad_of_constraint(v);
        for (size_t j = 0; j < g.size(); ++j) g[j] += 2 * mu * viol * cg[j];
      }
      return g;
    };

    double step = 1.0;
    double fv = objective(s);
    for (int it = 0; it < kPenaltyInnerIters; ++it) {
      Vec g = gradient(s);
      double gnorm = NormL2(g);
      if (gnorm < 1e-14) break;
      // Backtracking line search on the projected step.
      bool moved = false;
      for (int bt = 0; bt < 40; ++bt) {
        Vec cand = box.Clamp(Sub(s, Scale(g, step / std::max(1.0, gnorm))));
        double fc = objective(cand);
        if (fc < fv - 1e-15) {
          s = std::move(cand);
          fv = fc;
          moved = true;
          step *= 1.3;
          break;
        }
        step *= 0.5;
        if (step < kPenaltyStepTol) break;
      }
      if (!moved || step < kPenaltyStepTol) break;
    }
    if (constraint(s) <= kPenaltyFeasibilityTol) {
      double c = cost.Cost(s);
      if (c < best_cost) {
        best_cost = c;
        best = s;
        have_feasible = true;
      }
    }
  }
  if (!have_feasible) {
    return Status::FailedPrecondition(
        "penalty solver found no feasible strategy");
  }
  return HitSolution{best, best_cost};
}

}  // namespace iq
