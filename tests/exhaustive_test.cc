#include <gtest/gtest.h>

#include <cmath>

#include "core/evaluator.h"
#include "core/exhaustive.h"
#include "tests/test_world.h"
#include "util/random.h"

namespace iq {
namespace {

struct ExCase {
  int n;
  int m;
  int dim;
  int tau;
  uint64_t seed;
};

class ExhaustiveSweep : public testing::TestWithParam<ExCase> {};

// Optimality oracle: the exhaustive optimum must not be beaten by any
// sampled feasible strategy, and the greedy heuristic can never beat it.
// Checked for every built-in cost, the weighted ones with unequal unit costs
// (where neither a Euclidean projection nor a penalty solve is the optimum).
TEST_P(ExhaustiveSweep, OptimalityAndHeuristicGap) {
  const auto& p = GetParam();
  TestWorld w = TestWorld::Linear(p.n, p.m, p.dim, p.seed);
  const int target = 0;
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  ASSERT_TRUE(ctx.ok());
  Vec units(static_cast<size_t>(p.dim), 1.0);
  units[1] = 25.0;
  const CostFunction costs[] = {
      CostFunction::L2(), CostFunction::L1(), CostFunction::WeightedL2(units),
      CostFunction::WeightedL1(units), CostFunction::Quadratic(units)};
  for (const CostFunction& cost : costs) {
    SCOPED_TRACE(cost.name());
    ExhaustiveOptions exhaustive;
    exhaustive.iq.cost = cost;
    auto opt = ExhaustiveMinCost(*ctx, p.tau, exhaustive);
    EseEvaluator ese(w.index.get(), target);
    auto heuristic = MinCostIq(*ctx, &ese, p.tau, exhaustive.iq);
    ASSERT_TRUE(heuristic.ok());
    if (!opt.ok()) {
      // Infeasible for every subset is acceptable; then greedy must also
      // fail.
      EXPECT_FALSE(heuristic->reached_goal);
      continue;
    }
    EXPECT_TRUE(opt->reached_goal);
    EXPECT_GE(opt->hits_after, p.tau);

    // Greedy never beats the optimum.
    if (heuristic->reached_goal) {
      EXPECT_GE(heuristic->cost, opt->cost - 1e-6);
    }

    // Sampled feasible strategies, priced with the same cost, never beat
    // the optimum either.
    Rng rng(p.seed + 5);
    BruteForceEvaluator brute(w.view.get(), w.queries.get(), target);
    for (int s = 0; s < 300; ++s) {
      Vec cand(static_cast<size_t>(p.dim));
      for (auto& v : cand) v = rng.UniformDouble(-1.0, 1.0);
      Vec c = w.view->CoefficientsFor(Add(w.data->attrs(target), cand));
      if (brute.HitsForCoeffs(c) >= p.tau) {
        EXPECT_GE(cost.Cost(cand), opt->cost - 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TinyWorlds, ExhaustiveSweep,
    testing::Values(ExCase{12, 8, 2, 2, 1}, ExCase{15, 10, 2, 3, 2},
                    ExCase{10, 6, 3, 2, 3}, ExCase{20, 9, 2, 4, 4},
                    ExCase{8, 12, 2, 3, 5}));

TEST(ExhaustiveTest, MaxHitFindsBestSubsetWithinBudget) {
  TestWorld w = TestWorld::Linear(12, 8, 2, 6);
  const int target = 0;
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  const double beta = 0.5;
  auto opt = ExhaustiveMaxHit(*ctx, beta);
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  EXPECT_LE(opt->cost, beta + 1e-6);

  // The heuristic within the same budget can never achieve more hits.
  EseEvaluator ese(w.index.get(), target);
  auto heuristic = MaxHitIq(*ctx, &ese, beta);
  ASSERT_TRUE(heuristic.ok());
  EXPECT_LE(heuristic->hits_after, opt->hits_after);

  // Sampled strategies within budget cannot beat it either.
  Rng rng(7);
  BruteForceEvaluator brute(w.view.get(), w.queries.get(), target);
  for (int s = 0; s < 300; ++s) {
    Vec cand(2);
    for (auto& v : cand) v = rng.UniformDouble(-1.0, 1.0);
    if (NormL2(cand) > beta) continue;
    Vec c = w.view->CoefficientsFor(Add(w.data->attrs(target), cand));
    EXPECT_LE(brute.HitsForCoeffs(c), opt->hits_after);
  }
}

TEST(ExhaustiveTest, SubsetCapGuards) {
  TestWorld w = TestWorld::Linear(30, 25, 2, 8);
  auto ctx = IqContext::FromIndex(w.index.get(), 0);
  ExhaustiveOptions options;
  options.max_subsets = 10;
  auto r = ExhaustiveMinCost(*ctx, 12, options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  auto r2 = ExhaustiveMaxHit(*ctx, 0.5, options);
  EXPECT_FALSE(r2.ok());
}

TEST(ExhaustiveTest, NonLinearFormsUnimplemented) {
  TestWorld w = TestWorld::Polynomial(10, 8, 2, 2, 9);
  auto ctx = IqContext::FromIndex(w.index.get(), 0);
  auto r = ExhaustiveMinCost(*ctx, 2);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
}

TEST(ExhaustiveTest, TauBeyondQueriesFails) {
  TestWorld w = TestWorld::Linear(10, 5, 2, 10);
  auto ctx = IqContext::FromIndex(w.index.get(), 0);
  EXPECT_FALSE(ExhaustiveMinCost(*ctx, 6).ok());
}

}  // namespace
}  // namespace iq
