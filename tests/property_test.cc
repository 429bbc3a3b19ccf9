// Cross-cutting invariant (property) tests over randomized instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/evaluator.h"
#include "core/exhaustive.h"
#include "expr/expr.h"
#include "expr/linearize.h"
#include "tests/test_world.h"
#include "util/random.h"

namespace iq {
namespace {

// Optimal Min-Cost cost is non-decreasing in tau (more hits can never get
// cheaper). Verified with the exhaustive solver on tiny instances.
class TauMonotonicity : public testing::TestWithParam<uint64_t> {};

TEST_P(TauMonotonicity, ExhaustiveCostMonotoneInTau) {
  TestWorld w = TestWorld::Linear(12, 8, 2, GetParam(), /*k_max=*/3);
  auto ctx = IqContext::FromIndex(w.index.get(), 0);
  ASSERT_TRUE(ctx.ok());
  double prev = -1.0;
  for (int tau = 1; tau <= 6; ++tau) {
    auto r = ExhaustiveMinCost(*ctx, tau);
    if (!r.ok()) break;  // later taus are infeasible too
    EXPECT_GE(r->cost, prev - 1e-9) << "tau " << tau;
    prev = r->cost;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TauMonotonicity, testing::Range<uint64_t>(1, 7));

// Optimal Max-Hit hits are non-decreasing in beta.
class BetaMonotonicity : public testing::TestWithParam<uint64_t> {};

TEST_P(BetaMonotonicity, ExhaustiveHitsMonotoneInBudget) {
  TestWorld w = TestWorld::Linear(10, 7, 2, GetParam() + 20, /*k_max=*/3);
  auto ctx = IqContext::FromIndex(w.index.get(), 0);
  ASSERT_TRUE(ctx.ok());
  int prev = -1;
  for (double beta : {0.05, 0.15, 0.4, 1.0, 3.0}) {
    auto r = ExhaustiveMaxHit(*ctx, beta);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r->hits_after, prev);
    prev = r->hits_after;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BetaMonotonicity,
                         testing::Range<uint64_t>(1, 6));

// Adding a competitor can only lower (never raise) any hit threshold;
// removing one can only raise it.
TEST(ThresholdProperty, MonotoneUnderCompetitorChurn) {
  TestWorld w = TestWorld::Linear(40, 30, 3, 31);
  const int target = 0;
  std::vector<double> before = w.index->HitThresholds(target);

  Rng rng(32);
  int added = w.data->Add(rng.UniformVector(3, 0.0, 0.5));
  w.view->AppendRow(added);
  ASSERT_TRUE(w.index->OnObjectAdded(added).ok());
  std::vector<double> with_extra = w.index->HitThresholds(target);
  for (int q = 0; q < 30; ++q) {
    EXPECT_LE(with_extra[static_cast<size_t>(q)],
              before[static_cast<size_t>(q)] + 1e-12);
  }

  ASSERT_TRUE(w.data->Remove(added).ok());
  ASSERT_TRUE(w.index->OnObjectRemoved(added).ok());
  std::vector<double> after = w.index->HitThresholds(target);
  for (int q = 0; q < 30; ++q) {
    EXPECT_EQ(after[static_cast<size_t>(q)], before[static_cast<size_t>(q)]);
  }
}

// The Min-Cost result always satisfies the validity constraints derived from
// allowed attribute-value ranges (improved object inside the range).
class ValidityProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(ValidityProperty, ImprovedObjectStaysInValueRange) {
  TestWorld w = TestWorld::Linear(60, 50, 3, GetParam() + 40);
  const int target = 3;
  const Vec& p = w.data->attrs(target);
  Vec lo(3, -0.2), hi(3, 1.2);
  IqOptions options;
  options.box = AdjustBox::FromValueRange(p, lo, hi);
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  EseEvaluator ese(w.index.get(), target);
  auto r = MinCostIq(*ctx, &ese, 10, options);
  ASSERT_TRUE(r.ok());
  Vec improved = Add(p, r->strategy);
  for (int j = 0; j < 3; ++j) {
    EXPECT_GE(improved[static_cast<size_t>(j)], lo[static_cast<size_t>(j)] - 1e-9);
    EXPECT_LE(improved[static_cast<size_t>(j)], hi[static_cast<size_t>(j)] + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidityProperty,
                         testing::Range<uint64_t>(1, 6));

// Rebuilding an index over identical inputs yields the identical partition
// and thresholds (full determinism).
TEST(DeterminismProperty, IndexBuildIsDeterministic) {
  TestWorld w1 = TestWorld::Linear(80, 60, 3, 51);
  TestWorld w2 = TestWorld::Linear(80, 60, 3, 51);
  for (int q = 0; q < 60; ++q) {
    EXPECT_EQ(w1.index->signature(w1.index->subdomain_of(q)),
              w2.index->signature(w2.index->subdomain_of(q)));
  }
  EXPECT_EQ(w1.index->HitThresholds(7), w2.index->HitThresholds(7));
}

// Linearization preserves rankings for randomly generated utilities that mix
// droppable query-constant terms with real content.
class LinearizeRankProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(LinearizeRankProperty, RankingPreservedDespiteDroppedTerms) {
  Rng rng(GetParam() + 60);
  // u = w1 * x1^a + w2 * (x2 * x3) + x1^2 (bias) + w1^2 + 3   (last two drop)
  int a = 1 + static_cast<int>(rng.UniformInt(0, 2));
  std::string text = "w1 * x1^" + std::to_string(a) +
                     " + w2 * (x2 * x3) + x1^2 + w1^2 + 3";
  auto expr = ParseExpr(text, 3, 2);
  ASSERT_TRUE(expr.ok());
  auto form = Linearize(**expr, 3, 2);
  ASSERT_TRUE(form.ok());
  EXPECT_TRUE(form->dropped_rank_irrelevant_terms());

  for (int trial = 0; trial < 10; ++trial) {
    Vec w = rng.UniformVector(2, 0.0, 1.0);
    std::vector<Vec> objects;
    for (int i = 0; i < 15; ++i) objects.push_back(rng.UniformVector(3, 0, 1));
    std::vector<int> by_expr(15), by_form(15);
    std::iota(by_expr.begin(), by_expr.end(), 0);
    by_form = by_expr;
    std::sort(by_expr.begin(), by_expr.end(), [&](int x, int y) {
      return EvalExpr(**expr, objects[static_cast<size_t>(x)], w) <
             EvalExpr(**expr, objects[static_cast<size_t>(y)], w);
    });
    std::sort(by_form.begin(), by_form.end(), [&](int x, int y) {
      return form->Score(objects[static_cast<size_t>(x)], w) <
             form->Score(objects[static_cast<size_t>(y)], w);
    });
    EXPECT_EQ(by_expr, by_form);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearizeRankProperty,
                         testing::Range<uint64_t>(1, 8));

// The strategy returned by MinCostIq never moves frozen attributes, across
// random freeze masks.
class FreezeProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(FreezeProperty, FrozenAttributesNeverMove) {
  Rng rng(GetParam() + 70);
  TestWorld w = TestWorld::Linear(50, 40, 4, GetParam() + 71);
  std::vector<bool> adjustable(4);
  int free_count = 0;
  for (size_t j = 0; j < 4; ++j) {
    adjustable[j] = rng.Bernoulli(0.6);
    free_count += adjustable[j] ? 1 : 0;
  }
  if (free_count == 0) adjustable[0] = true;
  IqOptions options;
  options.box = AdjustBox::WithAdjustable(4, adjustable);
  auto ctx = IqContext::FromIndex(w.index.get(), 2);
  EseEvaluator ese(w.index.get(), 2);
  auto r = MinCostIq(*ctx, &ese, 8, options);
  ASSERT_TRUE(r.ok());
  for (size_t j = 0; j < 4; ++j) {
    if (!adjustable[j]) {
      EXPECT_EQ(r->strategy[j], 0.0) << "attr " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FreezeProperty, testing::Range<uint64_t>(1, 8));

}  // namespace
}  // namespace iq
