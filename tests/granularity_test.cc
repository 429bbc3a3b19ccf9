#include <gtest/gtest.h>

#include <cmath>

#include "core/combinatorial.h"
#include "core/evaluator.h"
#include "core/iq_algorithms.h"
#include "tests/test_world.h"

namespace iq {
namespace {

bool OnGrid(const Vec& s, const Vec& granularity, double tol = 1e-9) {
  for (size_t j = 0; j < s.size(); ++j) {
    if (granularity[j] <= 0) continue;
    double q = s[j] / granularity[j];
    if (std::fabs(q - std::round(q)) > tol) return false;
  }
  return true;
}

class GranularitySweep : public testing::TestWithParam<uint64_t> {};

TEST_P(GranularitySweep, MinCostStrategyLandsOnGrid) {
  TestWorld w = TestWorld::Linear(80, 60, 3, GetParam() + 110);
  const int target = 2;
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  ASSERT_TRUE(ctx.ok());
  EseEvaluator ese(w.index.get(), target);
  IqOptions options;
  options.granularity = {0.05, 0.0, 0.01};  // attr 1 stays continuous
  auto r = MinCostIq(*ctx, &ese, 10, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(OnGrid(r->strategy, options.granularity));
  // Reported hits must describe the snapped strategy.
  BruteForceEvaluator brute(w.view.get(), w.queries.get(), target);
  EXPECT_EQ(brute.HitsForCoeffs(w.view->CoefficientsFor(
                Add(w.data->attrs(target), r->strategy))),
            r->hits_after);
  if (r->reached_goal) {
    EXPECT_GE(r->hits_after, 10);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GranularitySweep,
                         testing::Range<uint64_t>(1, 6));

TEST(GranularityTest, MaxHitStaysWithinBudgetAfterSnapping) {
  TestWorld w = TestWorld::Linear(80, 60, 3, 120);
  auto ctx = IqContext::FromIndex(w.index.get(), 1);
  EseEvaluator ese(w.index.get(), 1);
  IqOptions options;
  options.granularity = {0.02, 0.02, 0.02};
  const double beta = 0.3;
  auto r = MaxHitIq(*ctx, &ese, beta, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(OnGrid(r->strategy, options.granularity));
  EXPECT_LE(r->cost, beta + 1e-9);
}

TEST(GranularityTest, SnappedStrategyRespectsBox) {
  TestWorld w = TestWorld::Linear(60, 40, 2, 121);
  auto ctx = IqContext::FromIndex(w.index.get(), 0);
  EseEvaluator ese(w.index.get(), 0);
  IqOptions options;
  options.granularity = {0.07, 0.07};
  options.box = AdjustBox::Unbounded(2);
  options.box->SetRange(0, -0.2, 0.0);
  options.box->SetRange(1, -0.2, 0.2);
  auto r = MinCostIq(*ctx, &ese, 5, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(OnGrid(r->strategy, options.granularity));
  EXPECT_TRUE(options.box->Contains(r->strategy, 1e-9));
}

TEST(GranularityTest, GreedyAndRandomAlsoSnap) {
  TestWorld w = TestWorld::Linear(60, 40, 3, 122);
  auto ctx = IqContext::FromIndex(w.index.get(), 1);
  IqOptions options;
  options.granularity = {0.05, 0.05, 0.05};
  options.random_samples = 64;
  {
    EseEvaluator ese(w.index.get(), 1);
    auto r = GreedyMinCost(*ctx, &ese, 5, options);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(OnGrid(r->strategy, options.granularity));
  }
  {
    EseEvaluator ese(w.index.get(), 1);
    auto r = RandomMaxHit(*ctx, &ese, 0.3, options);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(OnGrid(r->strategy, options.granularity));
    EXPECT_LE(r->cost, 0.3 + 1e-9);
  }
  // The §5.1 searches snap every target onto its grid; Max-Hit's snaps
  // share the budget.
  {
    auto r = CombinatorialMinCostIq(*w.index, {1, 4}, 12, {options});
    ASSERT_TRUE(r.ok());
    for (const Vec& s : r->strategies) {
      EXPECT_TRUE(OnGrid(s, options.granularity));
    }
  }
  {
    auto r = CombinatorialMaxHitIq(*w.index, {1, 4}, 0.3, {options});
    ASSERT_TRUE(r.ok());
    for (const Vec& s : r->strategies) {
      EXPECT_TRUE(OnGrid(s, options.granularity));
    }
    EXPECT_LE(r->total_cost, 0.3 + 1e-9);
  }
}

TEST(GranularityTest, CameraStyleDiscreteAttributes) {
  // Figure-1 flavour: resolution in whole megapixels, storage in powers of
  // 1 GB, price in $10 steps (scaled-down here).
  Dataset cameras(3);
  cameras.Add({10, 2, 250});
  cameras.Add({12, 4, 340});
  cameras.Add({16, 8, 520});
  cameras.Add({8, 4, 180});
  QuerySet buyers(3);
  ASSERT_TRUE(buyers.Add({1, {-5.0, -3.5, 0.05}}).ok());
  ASSERT_TRUE(buyers.Add({1, {-2.5, -7.0, 0.08}}).ok());
  ASSERT_TRUE(buyers.Add({2, {-1.0, -1.0, 0.10}}).ok());
  FunctionView view(&cameras, LinearForm::Identity(3));
  auto index = SubdomainIndex::Build(&view, &buyers);
  ASSERT_TRUE(index.ok());

  auto ctx = IqContext::FromIndex(&*index, 0);
  EseEvaluator ese(&*index, 0);
  IqOptions options;
  options.granularity = {1.0, 1.0, 10.0};
  auto r = MinCostIq(*ctx, &ese, 2, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(OnGrid(r->strategy, options.granularity));
}

}  // namespace
}  // namespace iq
