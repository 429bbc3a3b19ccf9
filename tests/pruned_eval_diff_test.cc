// Best-first candidate generation and pruned evaluation against a literal
// greedy.
//
// The engine's greedy solves candidates best-first and evaluates only the
// ones that can change its pick: a hit bound skips candidates whose ratio
// cannot win, and an iteration stops once its pick is decided (DESIGN.md
// §2). LiteralGreedy below is Algorithms 3/4, the §5.1 searches and the
// Greedy baseline as the paper states them: every candidate of every
// iteration is solved, a ratio pick evaluates every one, and the pick
// follows the engine's order and tie rules. On seeded worlds — exact ties,
// negative weights, a linearized form, boxes, grids, every cost kind, every
// evaluator, the candidate evaluation limit, one to three targets and
// 0/1/2/8 threads — the engine's results must equal the literal ones in
// everything but the work counters and seconds. Where the bound applies
// the engine solves at most the literal's candidates; elsewhere (a custom
// cost, the linearized form, an evaluation limit) it solves all of them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/combinatorial.h"
#include "core/evaluator.h"
#include "core/iq_algorithms.h"
#include "tests/test_world.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace iq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One target of the literal search.
struct LitTrack {
  const IqContext* ctx;
  const IqOptions* options;
  Vec s_total;
  Vec p_cur;
  Vec c_cur;
  double spent;
};

LitTrack MakeLitTrack(const IqContext& ctx, const IqOptions& options) {
  const int dim = ctx.view().dataset().dim();
  LitTrack t{&ctx,
             &options,
             Zeros(dim),
             ctx.view().dataset().attrs(ctx.target()),
             ctx.view().coeffs(ctx.target()),
             0.0};
  t.spent = options.cost.Cost(t.s_total);
  return t;
}

/// H when track t moves to coefficients c and the others stay put.
using HitsFn =
    std::function<int(const std::vector<LitTrack>&, size_t, const Vec&)>;

struct LitResult {
  std::vector<Vec> strategies;
  std::vector<double> costs;
  int hits_before = 0;
  int hits_after = 0;
  int iterations = 0;
  size_t generated = 0;
  size_t evaluated = 0;
  /// The engine may solve fewer candidates: every target's cost is built
  /// in, the form is the identity and no evaluation limit subset applies
  /// (it applies only to the ratio pick).
  bool bounded = false;
};

/// How the literal greedy picks its step: Algorithms 3/4's ratio, or the
/// Greedy baseline's cheapest step.
enum class LitRule { kBestRatio, kCheapest };

struct LitCandidate {
  int q;
  size_t track;
  Vec step;
  double step_cost;
  int hits = 0;
};

double Ratio(const LitCandidate& c) {
  return c.step_cost / static_cast<double>(std::max(1, c.hits));
}

/// The grid snap, as the engine runs it after the loop.
void LiteralSnap(std::vector<LitTrack>* tracks, size_t t, double max_cost,
                 const HitsFn& hits_of, int* hits) {
  LitTrack& track = (*tracks)[t];
  const IqOptions& options = *track.options;
  const IqContext& ctx = *track.ctx;
  const int dim = ctx.view().dataset().dim();
  const AdjustBox box =
      options.box.has_value() ? *options.box : AdjustBox::Unbounded(dim);
  const Vec& p = ctx.view().dataset().attrs(ctx.target());
  auto hits_at = [&](const Vec& s) {
    return hits_of(*tracks, t, ctx.view().CoefficientsFor(Add(p, s)));
  };
  Vec snapped = track.s_total;
  for (int j = 0; j < dim; ++j) {
    const double g = options.granularity[static_cast<size_t>(j)];
    if (g <= 0) continue;
    const double v = snapped[static_cast<size_t>(j)];
    const double lo = std::floor(v / g) * g;
    int best_hits = -1;
    double best_value = 0.0;
    for (double cand : {lo, lo + g}) {
      Vec trial = snapped;
      trial[static_cast<size_t>(j)] = cand;
      if (!box.Contains(trial, 1e-12)) continue;
      if (options.cost.Cost(trial) > max_cost + 1e-12) continue;
      const int h = hits_at(trial);
      if (h > best_hits ||
          (h == best_hits && std::fabs(cand) < std::fabs(best_value))) {
        best_hits = h;
        best_value = cand;
      }
    }
    if (best_hits < 0) {
      best_value = 0.0;
      Vec trial = snapped;
      trial[static_cast<size_t>(j)] = 0.0;
      best_hits = hits_at(trial);
    }
    snapped[static_cast<size_t>(j)] = best_value;
    *hits = best_hits;
  }
  track.s_total = std::move(snapped);
}

/// Algorithms 3/4 (one track) or §5.1 (several), every candidate evaluated,
/// or the Greedy baseline (kCheapest: the cheapest affordable step, ties to
/// the first, none evaluated). `loop` holds the loop-level settings
/// (max_iterations, candidate_eval_limit).
LitResult LiteralGreedy(std::vector<LitTrack> tracks, bool min_cost, int tau,
                        double beta, const IqOptions& loop,
                        const HitsFn& hits_of, int hits_before,
                        LitRule rule = LitRule::kBestRatio) {
  const QuerySet& queries = tracks[0].ctx->queries();
  const int max_iters = loop.max_iterations > 0
                            ? loop.max_iterations
                            : (min_cost ? 4 * tau + 16 : queries.size() + 16);
  auto reached = [&](int h) { return min_cost && h >= tau; };
  LitResult out;
  out.hits_before = hits_before;
  out.bounded = rule == LitRule::kCheapest || loop.candidate_eval_limit <= 0;
  for (const LitTrack& t : tracks) {
    out.bounded = out.bounded &&
                  t.options->cost.kind() != CostFunction::Kind::kCustom &&
                  t.ctx->view().IsIdentityForm();
  }
  int hits = hits_before;
  while (!reached(hits) && out.iterations < max_iters) {
    ++out.iterations;
    std::vector<LitCandidate> cands;
    for (int q = 0; q < queries.size(); ++q) {
      if (!queries.is_active(q)) continue;
      bool hit = false;
      for (const LitTrack& t : tracks) hit = hit || t.ctx->HitBy(q, t.c_cur);
      if (hit) continue;
      for (size_t t = 0; t < tracks.size(); ++t) {
        const LitTrack& tr = tracks[t];
        auto sol = tr.ctx->SolveCandidate(q, tr.p_cur, tr.s_total,
                                          *tr.options);
        if (sol.ok()) cands.push_back({q, t, sol->s, sol->cost});
      }
    }
    out.generated += cands.size();
    double total = 0.0;
    for (const LitTrack& t : tracks) total += t.spent;
    auto affordable = [&](const LitCandidate& c) {
      const LitTrack& tr = tracks[c.track];
      const double after = tr.options->cost.Cost(Add(tr.s_total, c.step));
      return total - tr.spent + after <= beta;
    };
    if (rule == LitRule::kCheapest) {
      const LitCandidate* best = nullptr;
      for (const LitCandidate& c : cands) {
        if (!min_cost && !affordable(c)) continue;
        if (best == nullptr || c.step_cost < best->step_cost) best = &c;
      }
      if (best == nullptr) break;
      LitTrack& tr = tracks[best->track];
      AddInPlace(&tr.s_total, best->step);
      tr.p_cur = Add(tr.p_cur, best->step);
      tr.c_cur = tr.ctx->view().CoefficientsFor(tr.p_cur);
      tr.spent = tr.options->cost.Cost(tr.s_total);
      const int now = hits_of(tracks, best->track, tr.c_cur);
      if (now <= hits && NormL2(best->step) < 1e-15) break;
      hits = now;
      continue;
    }
    const int limit = loop.candidate_eval_limit;
    if (limit > 0 && static_cast<int>(cands.size()) > limit) {
      std::sort(cands.begin(), cands.end(),
                [](const LitCandidate& a, const LitCandidate& b) {
                  return a.step_cost < b.step_cost;
                });
      std::vector<LitCandidate> kept;
      const int cheap = limit / 2;
      for (int i = 0; i < cheap; ++i) {
        kept.push_back(cands[static_cast<size_t>(i)]);
      }
      const int rest = static_cast<int>(cands.size()) - cheap;
      const int strided = limit - cheap;
      for (int i = 0; i < strided; ++i) {
        kept.push_back(cands[static_cast<size_t>(
            cheap + (static_cast<long long>(i) * rest) / strided)]);
      }
      cands = std::move(kept);
    }
    for (LitCandidate& c : cands) {
      const LitTrack& tr = tracks[c.track];
      c.hits = hits_of(tracks, c.track,
                       tr.ctx->view().CoefficientsFor(Add(tr.p_cur, c.step)));
      ++out.evaluated;
    }
    const LitCandidate* best = nullptr;
    for (const LitCandidate& c : cands) {
      if (!min_cost && (c.hits <= hits || !affordable(c))) continue;
      if (best == nullptr || Ratio(c) < Ratio(*best)) best = &c;
    }
    if (best != nullptr && reached(best->hits)) {
      best = nullptr;
      for (const LitCandidate& c : cands) {
        if (reached(c.hits) &&
            (best == nullptr || c.step_cost < best->step_cost)) {
          best = &c;
        }
      }
    }
    if (best == nullptr) break;
    LitTrack& tr = tracks[best->track];
    AddInPlace(&tr.s_total, best->step);
    tr.p_cur = Add(tr.p_cur, best->step);
    tr.c_cur = tr.ctx->view().CoefficientsFor(tr.p_cur);
    tr.spent = tr.options->cost.Cost(tr.s_total);
    if (best->hits <= hits && NormL2(best->step) < 1e-15) break;
    hits = best->hits;
  }
  for (size_t t = 0; t < tracks.size(); ++t) {
    LitTrack& tr = tracks[t];
    if (tr.options->granularity.empty()) continue;
    double total = 0.0;
    for (const LitTrack& u : tracks) total += u.spent;
    LiteralSnap(&tracks, t, beta - (total - tr.spent), hits_of, &hits);
    tr.spent = tr.options->cost.Cost(tr.s_total);
    tr.c_cur = tr.ctx->view().CoefficientsFor(
        Add(tr.ctx->view().dataset().attrs(tr.ctx->target()), tr.s_total));
  }
  out.hits_after = hits;
  for (const LitTrack& t : tracks) {
    out.strategies.push_back(t.s_total);
    out.costs.push_back(t.spent);
  }
  return out;
}

/// The union count of §5.1: a query counts once, whichever tracks hit it.
int UnionHits(const std::vector<LitTrack>& tracks, size_t moved,
              const Vec& c) {
  const QuerySet& queries = tracks[0].ctx->queries();
  int hits = 0;
  for (int q = 0; q < queries.size(); ++q) {
    if (!queries.is_active(q)) continue;
    bool hit = false;
    for (size_t t = 0; t < tracks.size() && !hit; ++t) {
      hit = tracks[t].ctx->HitBy(q, t == moved ? c : tracks[t].c_cur);
    }
    hits += hit ? 1 : 0;
  }
  return hits;
}

// ----------------------------------------------------------------- worlds --

enum class WorldKind { kLinear, kDuplicated, kNegative, kLinearized };

const char* WorldName(WorldKind kind) {
  switch (kind) {
    case WorldKind::kLinear: return "linear";
    case WorldKind::kDuplicated: return "duplicated";
    case WorldKind::kNegative: return "negative";
    case WorldKind::kLinearized: return "linearized";
  }
  return "?";
}

/// kDuplicated holds every object and every query twice (exact score and
/// ratio ties); kNegative draws query weights from [-1, 1].
TestWorld MakeWorld(WorldKind kind, int n, int m, int dim, uint64_t seed) {
  if (kind == WorldKind::kLinear) return TestWorld::Linear(n, m, dim, seed);
  if (kind == WorldKind::kLinearized) {
    return TestWorld::Polynomial(n, m, dim, 3, seed);
  }
  TestWorld w;
  w.data = std::make_unique<Dataset>(dim);
  w.queries = std::make_unique<QuerySet>(dim);
  if (kind == WorldKind::kDuplicated) {
    const Dataset unique = MakeIndependent(n / 2, dim, seed);
    for (int i = 0; i < n / 2; ++i) {
      w.data->Add(unique.attrs(i));
      w.data->Add(unique.attrs(i));
    }
    QueryGenOptions qopts;
    qopts.k_max = 4;
    for (TopKQuery& q : MakeQueries(m / 2, dim, seed + 1, qopts)) {
      IQ_CHECK(w.queries->Add(q).ok());
      IQ_CHECK(w.queries->Add(std::move(q)).ok());
    }
  } else {
    *w.data = MakeIndependent(n, dim, seed);
    Rng rng(seed + 7);
    for (int j = 0; j < m; ++j) {
      TopKQuery q;
      q.k = static_cast<int>(rng.UniformInt(1, 4));
      for (int a = 0; a < dim; ++a) {
        q.weights.push_back(rng.UniformDouble(-1, 1));
      }
      IQ_CHECK(w.queries->Add(std::move(q)).ok());
    }
  }
  w.view = std::make_unique<FunctionView>(w.data.get(),
                                          LinearForm::Identity(dim));
  w.RebuildIndex();
  return w;
}

/// The five built-in costs, WeightedL1 with a free axis, and a custom cost
/// that is negative near 0.
std::vector<CostFunction> Costs(int dim) {
  Vec unit(static_cast<size_t>(dim));
  for (int j = 0; j < dim; ++j) unit[static_cast<size_t>(j)] = 0.5 + j;
  Vec free_axis = unit;
  free_axis[0] = 0.0;
  return {CostFunction::L1(),
          CostFunction::L2(),
          CostFunction::WeightedL1(unit),
          CostFunction::WeightedL2(unit),
          CostFunction::Quadratic(unit),
          CostFunction::WeightedL1(free_axis),
          CostFunction::Custom(
              [](const Vec& s) { return NormL2(s) - 0.05; }, nullptr,
              "shifted_l2")};
}

enum class EvalKind { kEse, kRta, kBruteForce };

std::unique_ptr<StrategyEvaluator> MakeEvaluator(EvalKind kind,
                                                 const TestWorld& w,
                                                 int target) {
  switch (kind) {
    case EvalKind::kEse:
      return std::make_unique<EseEvaluator>(w.index.get(), target);
    case EvalKind::kRta:
      return std::make_unique<RtaStrategyEvaluator>(w.view.get(),
                                                    w.queries.get(), target);
    case EvalKind::kBruteForce:
      return std::make_unique<BruteForceEvaluator>(w.view.get(),
                                                   w.queries.get(), target);
  }
  return nullptr;
}

/// Solved candidates: at most the literal's where the bound applies, all
/// of them elsewhere.
void ExpectGenerated(size_t generated, const LitResult& lit) {
  if (lit.bounded) {
    EXPECT_LE(generated, lit.generated);
  } else {
    EXPECT_EQ(generated, lit.generated);
  }
}

/// Everything but the work counters and seconds.
void ExpectSameAsLiteral(const IqResult& r, const LitResult& lit,
                         const CostFunction& cost) {
  ASSERT_EQ(lit.strategies.size(), 1u);
  EXPECT_EQ(r.strategy, lit.strategies[0]);
  EXPECT_EQ(r.cost, cost.Cost(lit.strategies[0]));
  EXPECT_EQ(r.hits_before, lit.hits_before);
  EXPECT_EQ(r.hits_after, lit.hits_after);
  EXPECT_EQ(r.iterations, lit.iterations);
  EXPECT_EQ(r.breakdown.iterations, lit.iterations);
  ExpectGenerated(r.breakdown.candidates_generated, lit);
  EXPECT_LE(r.breakdown.candidates_evaluated, lit.evaluated);
}

void ExpectSameAsLiteral(const MultiIqResult& r, const LitResult& lit) {
  EXPECT_EQ(r.strategies, lit.strategies);
  EXPECT_EQ(r.costs, lit.costs);
  double total = 0.0;
  for (double c : lit.costs) total += c;
  EXPECT_EQ(r.total_cost, total);
  EXPECT_EQ(r.hits_before, lit.hits_before);
  EXPECT_EQ(r.hits_after, lit.hits_after);
  EXPECT_EQ(r.iterations, lit.iterations);
  ExpectGenerated(r.breakdown.candidates_generated, lit);
  EXPECT_LE(r.breakdown.candidates_evaluated, lit.evaluated);
}

/// Box, grid and evaluation limit for trial `trial` of a `dim`-d world.
IqOptions TrialOptions(int trial, int dim, const CostFunction& cost) {
  IqOptions options;
  options.cost = cost;
  if (trial % 2 == 1) {
    AdjustBox box = AdjustBox::Unbounded(dim);
    for (int j = 0; j < dim; ++j) box.SetRange(j, -0.3, 0.45);
    options.box = box;
  }
  if ((trial / 2) % 3 == 0) {
    options.granularity = Zeros(dim);
    options.granularity[0] = 0.05;
  }
  if (trial % 3 == 2) options.candidate_eval_limit = 4;
  return options;
}

TEST(PrunedEvalDiffTest, SingleTargetEqualsLiteralGreedy) {
  ThreadPool pool1(1), pool2(2), pool8(8);
  ThreadPool* pools[] = {nullptr, &pool1, &pool2, &pool8};
  Rng rng(2026101901);
  size_t pruned = 0, literal = 0;  // evaluated, ratio pick
  size_t solved = 0, literal_solved = 0;  // generated, bounded worlds
  for (int trial = 0; trial < 56; ++trial) {
    const WorldKind kind = static_cast<WorldKind>(trial % 4);
    const int dim = 2 + trial % 2;
    const int n = static_cast<int>(rng.UniformInt(16, 36));
    const int m = static_cast<int>(rng.UniformInt(10, 24));
    TestWorld w = MakeWorld(kind, n, m, dim, rng.NextUint64(1'000'000));
    const std::vector<CostFunction> costs = Costs(dim);
    const CostFunction& cost = costs[static_cast<size_t>(trial % 7)];
    const EvalKind eval = static_cast<EvalKind>(trial % 3);
    const int target = static_cast<int>(rng.UniformInt(0, w.data->size() - 1));
    const int m_active = w.queries->num_active();
    const int taus[] = {1, static_cast<int>(rng.UniformInt(2, m_active / 2)),
                        m_active + 3};
    const int tau = taus[(trial / 7) % 3];
    const double beta = rng.UniformDouble(0.05, 0.6);
    IqOptions options = TrialOptions(trial, dim, cost);
    SCOPED_TRACE(testing::Message()
                 << "trial " << trial << " world " << WorldName(kind)
                 << " cost " << cost.name() << " eval "
                 << static_cast<int>(eval)
                 << " tau " << tau << " beta " << beta << " target " << target
                 << " box " << options.box.has_value() << " grid "
                 << !options.granularity.empty() << " limit "
                 << options.candidate_eval_limit);
    auto ctx = IqContext::FromIndex(w.index.get(), target);
    ASSERT_TRUE(ctx.ok());

    for (bool min_cost : {true, false}) {
      for (LitRule rule : {LitRule::kBestRatio, LitRule::kCheapest}) {
        const bool cheapest = rule == LitRule::kCheapest;
        std::unique_ptr<StrategyEvaluator> lit_eval =
            MakeEvaluator(eval, w, target);
        const HitsFn hits_of = [&lit_eval](const std::vector<LitTrack>&,
                                           size_t, const Vec& c) {
          return lit_eval->HitsForCoeffs(c);
        };
        const LitResult lit =
            LiteralGreedy({MakeLitTrack(*ctx, options)}, min_cost, tau,
                          min_cost ? kInf : beta, options, hits_of,
                          lit_eval->base_hits(), rule);
        for (ThreadPool* pool : pools) {
          SCOPED_TRACE(testing::Message()
                       << (cheapest ? "Greedy " : "")
                       << (min_cost ? "MinCost" : "MaxHit") << " threads "
                       << (pool == nullptr ? 0 : pool->num_threads()));
          IqOptions run = options;
          run.pool = pool;
          std::unique_ptr<StrategyEvaluator> e =
              MakeEvaluator(eval, w, target);
          auto r =
              cheapest ? (min_cost ? GreedyMinCost(*ctx, e.get(), tau, run)
                                   : GreedyMaxHit(*ctx, e.get(), beta, run))
                       : (min_cost ? MinCostIq(*ctx, e.get(), tau, run)
                                   : MaxHitIq(*ctx, e.get(), beta, run));
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          ExpectSameAsLiteral(*r, lit, cost);
          EXPECT_EQ(r->reached_goal, !min_cost || lit.hits_after >= tau);
          if (pool == nullptr) {
            if (!cheapest) {
              pruned += r->breakdown.candidates_evaluated;
              literal += lit.evaluated;
            }
            if (lit.bounded) {
              solved += r->breakdown.candidates_generated;
              literal_solved += lit.generated;
            }
          }
        }
      }
    }
  }
  // The rules must prune something on these worlds, or the test shows
  // nothing.
  EXPECT_LT(pruned, literal);
  EXPECT_LT(solved, literal_solved);
}

TEST(PrunedEvalDiffTest, ManyTargetsEqualLiteralGreedy) {
  // Algorithm 3's cheapest-reacher pick and Algorithm 4's filters decide
  // only some iterations, so this sweep solves from every fourth object of
  // mid-sized worlds under several goals, with the fast ESE evaluator.
  const WorldKind kinds[] = {WorldKind::kLinear, WorldKind::kDuplicated,
                             WorldKind::kNegative, WorldKind::kLinear};
  size_t pruned = 0, literal = 0;  // evaluated, ratio pick
  size_t solved = 0, literal_solved = 0;  // generated, bounded searches
  for (int wi = 0; wi < 4; ++wi) {
    const int dim = 2 + wi % 2;
    TestWorld w = MakeWorld(kinds[wi], 60, 50, dim, 11 + wi);
    const int m = w.queries->num_active();
    for (int target = 0; target < w.data->size(); target += 4) {
      auto ctx = IqContext::FromIndex(w.index.get(), target);
      ASSERT_TRUE(ctx.ok());
      for (const CostFunction& cost :
           {CostFunction::L1(), CostFunction::L2()}) {
        for (int limit : {0, 4}) {
          IqOptions options;
          options.cost = cost;
          options.candidate_eval_limit = limit;
          for (double goal : {0.25, 0.5, 0.75, -0.1, -0.3}) {
            // goal > 0: Min-Cost with tau = goal * m; else Max-Hit, -goal.
            const bool min_cost = goal > 0;
            const int tau = static_cast<int>(goal * m);
            SCOPED_TRACE(testing::Message()
                         << "world " << wi << " target " << target << " cost "
                         << cost.name() << " limit " << limit << " goal "
                         << goal);
            for (LitRule rule : {LitRule::kBestRatio, LitRule::kCheapest}) {
              const bool cheapest = rule == LitRule::kCheapest;
              SCOPED_TRACE(cheapest ? "Greedy" : "ratio");
              EseEvaluator lit_eval(w.index.get(), target);
              const HitsFn hits_of = [&lit_eval](
                                         const std::vector<LitTrack>&, size_t,
                                         const Vec& c) {
                return lit_eval.HitsForCoeffs(c);
              };
              const LitResult lit = LiteralGreedy(
                  {MakeLitTrack(*ctx, options)}, min_cost, tau,
                  min_cost ? kInf : -goal, options, hits_of,
                  lit_eval.base_hits(), rule);
              EseEvaluator e(w.index.get(), target);
              auto r =
                  cheapest
                      ? (min_cost ? GreedyMinCost(*ctx, &e, tau, options)
                                  : GreedyMaxHit(*ctx, &e, -goal, options))
                      : (min_cost ? MinCostIq(*ctx, &e, tau, options)
                                  : MaxHitIq(*ctx, &e, -goal, options));
              ASSERT_TRUE(r.ok()) << r.status().ToString();
              ExpectSameAsLiteral(*r, lit, cost);
              if (!cheapest) {
                pruned += r->breakdown.candidates_evaluated;
                literal += lit.evaluated;
              }
              if (lit.bounded) {
                solved += r->breakdown.candidates_generated;
                literal_solved += lit.generated;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_LT(pruned, literal);
  EXPECT_LT(solved, literal_solved);
}

TEST(PrunedEvalDiffTest, CombinatorialEqualsLiteralGreedy) {
  ThreadPool pool1(1), pool2(2), pool8(8);
  ThreadPool* pools[] = {nullptr, &pool1, &pool2, &pool8};
  Rng rng(2026101902);
  size_t pruned = 0, literal = 0;  // evaluated
  size_t solved = 0, literal_solved = 0;  // generated, bounded searches
  for (int trial = 0; trial < 24; ++trial) {
    const WorldKind kind = static_cast<WorldKind>(trial % 4);
    const int dim = 2 + trial % 2;
    const int n = static_cast<int>(rng.UniformInt(16, 32));
    const int m = static_cast<int>(rng.UniformInt(10, 22));
    TestWorld w = MakeWorld(kind, n, m, dim, rng.NextUint64(1'000'000));
    const std::vector<CostFunction> costs = Costs(dim);
    const int num_targets = 2 + trial % 2;
    std::vector<int> targets;
    for (int t = 0; t < num_targets; ++t) {
      targets.push_back(
          static_cast<int>(rng.UniformInt(0, w.data->size() - 1)));
    }
    // Odd trials give every target its own cost, box and grid; the loop
    // settings then come from the first.
    std::vector<IqOptions> options;
    for (int t = 0; t < (trial % 2 == 1 ? num_targets : 1); ++t) {
      const CostFunction& cost =
          costs[static_cast<size_t>((trial / 2 + 3 * t) % 7)];
      options.push_back(TrialOptions(trial / 2 + t, dim, cost));
    }
    const int m_active = w.queries->num_active();
    const int taus[] = {1, static_cast<int>(rng.UniformInt(2, m_active - 1)),
                        m_active + 2};
    const int tau = taus[(trial / 4) % 3];
    const double beta = rng.UniformDouble(0.1, 0.7);
    SCOPED_TRACE(testing::Message()
                 << "trial " << trial << " world " << WorldName(kind)
                 << " targets " << num_targets << " tau " << tau << " beta "
                 << beta << " first cost " << options[0].cost.name());
    std::vector<IqContext> contexts;
    for (int target : targets) {
      auto ctx = IqContext::FromIndex(w.index.get(), target);
      ASSERT_TRUE(ctx.ok());
      contexts.push_back(*std::move(ctx));
    }
    std::vector<LitTrack> lit_tracks;
    for (size_t t = 0; t < targets.size(); ++t) {
      lit_tracks.push_back(
          MakeLitTrack(contexts[t], options[options.size() == 1 ? 0 : t]));
    }
    const int before = UnionHits(lit_tracks, 0, lit_tracks[0].c_cur);
    for (bool min_cost : {true, false}) {
      const LitResult lit =
          LiteralGreedy(lit_tracks, min_cost, tau, min_cost ? kInf : beta,
                        options[0], UnionHits, before);
      for (ThreadPool* pool : pools) {
        SCOPED_TRACE(testing::Message()
                     << (min_cost ? "MinCost" : "MaxHit") << " threads "
                     << (pool == nullptr ? 0 : pool->num_threads()));
        std::vector<IqOptions> run = options;
        run[0].pool = pool;
        auto r = min_cost
                     ? CombinatorialMinCostIq(*w.index, targets, tau, run)
                     : CombinatorialMaxHitIq(*w.index, targets, beta, run);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ExpectSameAsLiteral(*r, lit);
        if (pool == nullptr) {
          pruned += r->breakdown.candidates_evaluated;
          literal += lit.evaluated;
          if (lit.bounded) {
            solved += r->breakdown.candidates_generated;
            literal_solved += lit.generated;
          }
        }
      }
    }
  }
  EXPECT_LT(pruned, literal);
  EXPECT_LT(solved, literal_solved);
}

}  // namespace
}  // namespace iq
