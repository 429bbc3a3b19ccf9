#include "core/exhaustive.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "opt/dykstra.h"
#include "util/logging.h"
#include "util/timer.h"

namespace iq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Number of h-subsets of an m-set, saturating at `cap`.
uint64_t BinomialCapped(uint64_t m, uint64_t h, uint64_t cap) {
  if (h > m) return 0;
  h = std::min(h, m - h);
  uint64_t r = 1;
  for (uint64_t i = 1; i <= h; ++i) {
    // r *= (m - h + i) / i, with overflow/cap saturation.
    long double next = static_cast<long double>(r) *
                       static_cast<long double>(m - h + i) /
                       static_cast<long double>(i);
    if (next > static_cast<long double>(cap)) return cap + 1;
    r = static_cast<uint64_t>(next + 0.5);
  }
  return r;
}

/// CheckIqOptions, plus: the exhaustive searches return continuous optima,
/// so a grid is refused rather than silently ignored.
Status CheckExhaustiveOptions(const IqContext& ctx,
                              const ExhaustiveOptions& options) {
  IQ_RETURN_IF_ERROR(CheckIqOptions(options.iq, ctx.view().dataset().dim()));
  if (!options.iq.granularity.empty()) {
    return Status::InvalidArgument(
        "exhaustive search does not snap onto a granularity grid");
  }
  return Status::Ok();
}

/// The hittable queries with their hit halfspaces a.s <= b.
struct HalfspaceSet {
  std::vector<int> query_ids;
  std::vector<Vec> a;
  std::vector<double> b;
  int always_hit = 0;  // queries with t = +inf (fewer than k competitors)
};

Result<HalfspaceSet> BuildHalfspaces(const IqContext& ctx) {
  if (!ctx.view().IsIdentityForm()) {
    return Status::Unimplemented(
        "exhaustive search supports linear utilities only");
  }
  HalfspaceSet hs;
  const Vec& p = ctx.view().dataset().attrs(ctx.target());
  const QuerySet& queries = ctx.queries();
  for (int q = 0; q < queries.size(); ++q) {
    if (!queries.is_active(q)) continue;
    double t = ctx.thresholds()[static_cast<size_t>(q)];
    if (std::isinf(t)) {
      ++hs.always_hit;
      continue;
    }
    double margin = kHitMargin * (1.0 + std::fabs(t));
    hs.query_ids.push_back(q);
    hs.a.push_back(ctx.aug_w(q));
    // iq-lint: allow(raw-scoring-loop): one-time halfspace-constant setup
    hs.b.push_back(t - margin - Dot(ctx.aug_w(q), p));
  }
  return hs;
}

/// Iterates all h-subsets of {0..m-1}; visit returns false to stop early.
template <typename Visit>
void ForEachSubset(int m, int h, const Visit& visit) {
  if (h > m || h <= 0) return;
  std::vector<int> pick(static_cast<size_t>(h));
  for (int i = 0; i < h; ++i) pick[static_cast<size_t>(i)] = i;
  for (;;) {
    if (!visit(pick)) return;
    // Advance to the next combination.
    int i = h - 1;
    while (i >= 0 && pick[static_cast<size_t>(i)] == m - h + i) --i;
    if (i < 0) return;
    ++pick[static_cast<size_t>(i)];
    for (int j = i + 1; j < h; ++j) {
      pick[static_cast<size_t>(j)] = pick[static_cast<size_t>(j - 1)] + 1;
    }
  }
}

/// Solves the dim x dim system M s = r by Gaussian elimination with partial
/// pivoting (M row-major). False when M is singular.
bool SolveSquare(std::vector<double> M, Vec r, Vec* s) {
  const size_t n = r.size();
  for (size_t col = 0; col < n; ++col) {
    size_t piv = col;
    for (size_t row = col + 1; row < n; ++row) {
      if (std::fabs(M[row * n + col]) > std::fabs(M[piv * n + col])) {
        piv = row;
      }
    }
    if (std::fabs(M[piv * n + col]) < 1e-12) return false;
    if (piv != col) {
      for (size_t k = 0; k < n; ++k) std::swap(M[col * n + k], M[piv * n + k]);
      std::swap(r[col], r[piv]);
    }
    for (size_t row = col + 1; row < n; ++row) {
      const double f = M[row * n + col] / M[col * n + col];
      for (size_t k = col; k < n; ++k) M[row * n + k] -= f * M[col * n + k];
      r[row] -= f * r[col];
    }
  }
  s->assign(n, 0.0);
  for (size_t col = n; col-- > 0;) {
    double v = r[col];
    for (size_t k = col + 1; k < n; ++k) v -= M[col * n + k] * (*s)[k];
    (*s)[col] = v / M[col * n + col];
  }
  return true;
}

/// Minimal cost of hitting every query in `pick` (indices into hs).
/// Returns infinity when infeasible. Exact for every built-in cost:
/// - L2, WeightedL2, Quadratic: min sum c_j s_j^2 is the Euclidean
///   projection of the origin in u = sqrt(c) * s space (rows divided by
///   sqrt(c), box multiplied by it), mapped back; L2 projects s directly.
/// - L1, WeightedL1: the cost is linear on each orthant, so an optimum lies
///   on a vertex of the arrangement of the picked planes, the finite box
///   faces and the planes s_j = 0. Every dim-subset of them is solved and
///   the cheapest feasible vertex kept.
/// Custom costs use the penalty solver, which is approximate.
double SubsetCost(const HalfspaceSet& hs, const std::vector<int>& pick,
                  const IqOptions& options, const AdjustBox& box,
                  Vec* strategy) {
  std::vector<Vec> A;
  Vec b;
  for (int i : pick) {
    A.push_back(hs.a[static_cast<size_t>(i)]);
    b.push_back(hs.b[static_cast<size_t>(i)]);
  }
  const int dim = box.dim();
  const size_t d = static_cast<size_t>(dim);
  using Kind = CostFunction::Kind;
  const Kind kind = options.cost.kind();
  const Vec& units = options.cost.unit_costs();
  if (kind == Kind::kL2 || kind == Kind::kWeightedL2 ||
      kind == Kind::kQuadratic) {
    AdjustBox ubox = box;
    for (size_t j = 0; j < units.size(); ++j) {
      const double root = std::sqrt(units[j]);
      for (Vec& row : A) row[j] /= root;
      ubox.SetRange(static_cast<int>(j), box.lower()[j] * root,
                    box.upper()[j] * root);
    }
    auto s = DykstraProject(A, b, ubox, Zeros(dim));
    if (!s.ok()) return kInf;
    *strategy = std::move(*s);
    for (size_t j = 0; j < units.size(); ++j) {
      (*strategy)[j] /= std::sqrt(units[j]);
    }
    return options.cost.Cost(*strategy);
  }
  // Largest violation of the picked constraints.
  auto g = [&A, &b](const Vec& s) {
    double worst = -kInf;
    for (size_t i = 0; i < A.size(); ++i) {
      // iq-lint: allow(raw-scoring-loop): constraint rows, not an object set
      worst = std::max(worst, Dot(A[i], s) - b[i]);
    }
    return worst;
  };
  if (kind == Kind::kL1 || kind == Kind::kWeightedL1) {
    std::vector<Vec> normals = A;
    Vec rhs = b;
    auto add_face = [&](size_t j, double at) {
      Vec e(d, 0.0);
      e[j] = 1.0;
      normals.push_back(std::move(e));
      rhs.push_back(at);
    };
    for (size_t j = 0; j < d; ++j) {
      const double lo = box.lower()[j], hi = box.upper()[j];
      if (std::isfinite(lo)) add_face(j, lo);
      if (std::isfinite(hi) && hi != lo) add_face(j, hi);
      if (lo != 0.0 && hi != 0.0) add_face(j, 0.0);
    }
    double best = kInf;
    ForEachSubset(static_cast<int>(normals.size()), dim,
                  [&](const std::vector<int>& planes) {
                    std::vector<double> M;
                    Vec r;
                    for (int p : planes) {
                      const Vec& n = normals[static_cast<size_t>(p)];
                      M.insert(M.end(), n.begin(), n.end());
                      r.push_back(rhs[static_cast<size_t>(p)]);
                    }
                    Vec s;
                    if (!SolveSquare(std::move(M), std::move(r), &s) ||
                        g(s) > 1e-9 || !box.Contains(s, 1e-9)) {
                      return true;
                    }
                    const double c = options.cost.Cost(s);
                    if (c < best) {
                      best = c;
                      *strategy = std::move(s);
                    }
                    return true;
                  });
    return best;
  }
  auto sol = MinCostNonlinear(g, nullptr, options.cost, box);
  if (!sol.ok()) return kInf;
  *strategy = std::move(sol->s);
  return sol->cost;
}

}  // namespace

Result<IqResult> ExhaustiveMinCost(const IqContext& ctx, int tau,
                                   const ExhaustiveOptions& options) {
  if (tau < 1) return Status::InvalidArgument("tau must be >= 1");
  IQ_RETURN_IF_ERROR(CheckExhaustiveOptions(ctx, options));
  WallTimer timer;
  IQ_ASSIGN_OR_RETURN(HalfspaceSet hs, BuildHalfspaces(ctx));

  const int dim = ctx.view().dataset().dim();
  AdjustBox box = options.iq.box.has_value() ? *options.iq.box
                                             : AdjustBox::Unbounded(dim);
  // Queries hittable no matter what (t = inf) reduce the requirement.
  int needed = tau - hs.always_hit;
  IqResult r;
  r.hits_before = 0;
  for (int q = 0; q < ctx.queries().size(); ++q) {
    if (ctx.queries().is_active(q) &&
        ctx.HitBy(q, ctx.view().coeffs(ctx.target()))) {
      ++r.hits_before;
    }
  }
  if (needed <= 0) {
    r.strategy = Zeros(dim);
    r.hits_after = r.hits_before;
    r.reached_goal = true;
    r.seconds = timer.ElapsedSeconds();
    return r;
  }
  const int m = static_cast<int>(hs.query_ids.size());
  if (needed > m) {
    return Status::FailedPrecondition("tau exceeds the number of queries");
  }
  uint64_t count = BinomialCapped(static_cast<uint64_t>(m),
                                  static_cast<uint64_t>(needed),
                                  options.max_subsets);
  if (count > options.max_subsets) {
    return Status::ResourceExhausted(
        "exhaustive Min-Cost subset enumeration too large");
  }

  double best_cost = kInf;
  Vec best_strategy = Zeros(dim);
  ForEachSubset(m, needed, [&](const std::vector<int>& pick) {
    Vec s;
    double c = SubsetCost(hs, pick, options.iq, box, &s);
    if (c < best_cost) {
      best_cost = c;
      best_strategy = std::move(s);
    }
    return true;
  });
  if (!std::isfinite(best_cost)) {
    return Status::FailedPrecondition("no feasible strategy reaches tau");
  }

  r.strategy = best_strategy;
  r.cost = best_cost;
  Vec c_new = ctx.view().CoefficientsFor(
      Add(ctx.view().dataset().attrs(ctx.target()), best_strategy));
  r.hits_after = 0;
  for (int q = 0; q < ctx.queries().size(); ++q) {
    if (ctx.queries().is_active(q) && ctx.HitBy(q, c_new)) ++r.hits_after;
  }
  r.reached_goal = r.hits_after >= tau;
  r.seconds = timer.ElapsedSeconds();
  return r;
}

Result<IqResult> ExhaustiveMaxHit(const IqContext& ctx, double beta,
                                  const ExhaustiveOptions& options) {
  // NaN fails this test too; +inf is an unbounded budget.
  if (!(beta >= 0)) return Status::InvalidArgument("budget must be >= 0");
  IQ_RETURN_IF_ERROR(CheckExhaustiveOptions(ctx, options));
  WallTimer timer;
  IQ_ASSIGN_OR_RETURN(HalfspaceSet hs, BuildHalfspaces(ctx));

  const int dim = ctx.view().dataset().dim();
  AdjustBox box = options.iq.box.has_value() ? *options.iq.box
                                             : AdjustBox::Unbounded(dim);
  const int m = static_cast<int>(hs.query_ids.size());

  // Total enumeration volume across all sizes must stay within the cap.
  uint64_t total = 0;
  for (int h = 1; h <= m; ++h) {
    total += BinomialCapped(static_cast<uint64_t>(m),
                            static_cast<uint64_t>(h), options.max_subsets);
    if (total > options.max_subsets) {
      return Status::ResourceExhausted(
          "exhaustive Max-Hit subset enumeration too large");
    }
  }

  IqResult r;
  r.hits_before = 0;
  for (int q = 0; q < ctx.queries().size(); ++q) {
    if (ctx.queries().is_active(q) &&
        ctx.HitBy(q, ctx.view().coeffs(ctx.target()))) {
      ++r.hits_before;
    }
  }

  Vec best_strategy = Zeros(dim);
  double best_cost = 0.0;
  int best_h = 0;
  for (int h = m; h >= 1; --h) {
    double best_cost_at_h = kInf;
    Vec best_s_at_h;
    ForEachSubset(m, h, [&](const std::vector<int>& pick) {
      Vec s;
      double c = SubsetCost(hs, pick, options.iq, box, &s);
      if (c <= beta && c < best_cost_at_h) {
        best_cost_at_h = c;
        best_s_at_h = std::move(s);
      }
      return true;
    });
    if (std::isfinite(best_cost_at_h)) {
      best_strategy = best_s_at_h;
      best_cost = best_cost_at_h;
      best_h = h;
      break;
    }
  }
  (void)best_h;

  r.strategy = best_strategy;
  r.cost = best_cost;
  Vec c_new = ctx.view().CoefficientsFor(
      Add(ctx.view().dataset().attrs(ctx.target()), best_strategy));
  r.hits_after = 0;
  for (int q = 0; q < ctx.queries().size(); ++q) {
    if (ctx.queries().is_active(q) && ctx.HitBy(q, c_new)) ++r.hits_after;
  }
  r.reached_goal = true;
  r.seconds = timer.ElapsedSeconds();
  return r;
}

}  // namespace iq
