#include <gtest/gtest.h>

#include "core/combinatorial.h"
#include "core/evaluator.h"
#include "obs/metrics.h"
#include "tests/test_world.h"
#include "util/random.h"

namespace iq {
namespace {

// Independent union-hit verification via per-target brute-force contexts.
int UnionHits(const TestWorld& w, const std::vector<int>& targets,
              const std::vector<Vec>& strategies) {
  std::vector<IqContext> contexts;
  std::vector<Vec> improved_coeffs;
  for (size_t t = 0; t < targets.size(); ++t) {
    auto ctx = IqContext::FromView(w.view.get(), w.queries.get(), targets[t]);
    IQ_CHECK(ctx.ok());
    contexts.push_back(std::move(*ctx));
    improved_coeffs.push_back(w.view->CoefficientsFor(
        Add(w.data->attrs(targets[t]), strategies[t])));
  }
  int hits = 0;
  for (int q = 0; q < w.queries->size(); ++q) {
    if (!w.queries->is_active(q)) continue;
    for (size_t t = 0; t < targets.size(); ++t) {
      if (contexts[t].HitBy(q, improved_coeffs[t])) {
        ++hits;
        break;
      }
    }
  }
  return hits;
}

TEST(CombinatorialTest, MinCostReachesUnionGoal) {
  TestWorld w = TestWorld::Linear(80, 60, 3, 41);
  std::vector<int> targets = {1, 5, 9};
  // The three targets already hit 34 queries together; tau = 45 makes the
  // search work for its goal.
  const int tau = 45;
  auto r = CombinatorialMinCostIq(*w.index, targets, tau, {IqOptions{}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->targets, targets);
  ASSERT_EQ(r->strategies.size(), 3u);
  EXPECT_LT(r->hits_before, tau);
  EXPECT_GT(r->iterations, 0);
  EXPECT_EQ(UnionHits(w, targets, std::vector<Vec>(3, Zeros(3))),
            r->hits_before);
  EXPECT_EQ(UnionHits(w, targets, r->strategies), r->hits_after);
  EXPECT_TRUE(r->reached_goal);
  EXPECT_GE(r->hits_after, tau);
  double sum = 0;
  for (double c : r->costs) sum += c;
  EXPECT_NEAR(sum, r->total_cost, 1e-9);
}

TEST(CombinatorialTest, UnionRecountSweep) {
  // Seeded worlds, two or three targets, with and without a grid: the
  // reported union counts must equal a brute-force recount, and Max-Hit
  // must stay within the shared budget.
  Rng rng(515151);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(30, 70));
    const int m = static_cast<int>(rng.UniformInt(16, 48));
    const int dim = static_cast<int>(rng.UniformInt(2, 3));
    TestWorld w = TestWorld::Linear(n, m, dim, rng.NextUint64(1'000'000));
    std::vector<int> targets;
    const int num_targets = static_cast<int>(rng.UniformInt(2, 3));
    for (int t = 0; t < num_targets; ++t) {
      targets.push_back(static_cast<int>(rng.UniformInt(0, n - 1)));
    }
    const int tau = static_cast<int>(rng.UniformInt(m / 3, m - 1));
    const double beta = rng.UniformDouble(0.1, 0.6);
    for (bool grid : {false, true}) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " grid " << grid);
      IqOptions options;
      if (grid) options.granularity = Vec(static_cast<size_t>(dim), 0.05);
      const std::vector<Vec> unmoved(targets.size(), Zeros(dim));
      auto mc = CombinatorialMinCostIq(*w.index, targets, tau, {options});
      ASSERT_TRUE(mc.ok()) << mc.status().ToString();
      EXPECT_EQ(UnionHits(w, targets, unmoved), mc->hits_before);
      EXPECT_EQ(UnionHits(w, targets, mc->strategies), mc->hits_after);
      EXPECT_EQ(mc->reached_goal, mc->hits_after >= tau);
      auto mh = CombinatorialMaxHitIq(*w.index, targets, beta, {options});
      ASSERT_TRUE(mh.ok()) << mh.status().ToString();
      EXPECT_EQ(UnionHits(w, targets, unmoved), mh->hits_before);
      EXPECT_EQ(UnionHits(w, targets, mh->strategies), mh->hits_after);
      EXPECT_LE(mh->total_cost, beta + 1e-9);
    }
  }
}

TEST(CombinatorialTest, QueriesHitByTwoTargetsCountOnce) {
  // Two identical targets: the union count must not double-count.
  Dataset data(2);
  data.Add({0.5, 0.5});
  data.Add({0.5, 0.5});
  data.Add({0.1, 0.1});
  QuerySet queries(2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queries.Add({1, {0.3 + 0.1 * i, 0.4}}).ok());
  }
  FunctionView view(&data, LinearForm::Identity(2));
  auto index = SubdomainIndex::Build(&view, &queries);
  ASSERT_TRUE(index.ok());
  auto r = CombinatorialMinCostIq(*index, {0, 1}, 5, {IqOptions{}});
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->hits_after, 5);
  if (r->reached_goal) {
    EXPECT_EQ(r->hits_after, 5);
  }
}

TEST(CombinatorialTest, MaxHitRespectsSharedBudget) {
  TestWorld w = TestWorld::Linear(80, 60, 3, 42);
  std::vector<int> targets = {2, 7};
  const double beta = 0.3;
  auto r = CombinatorialMaxHitIq(*w.index, targets, beta, {IqOptions{}});
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->total_cost, beta + 1e-9);
  EXPECT_GE(r->hits_after, r->hits_before);
  EXPECT_EQ(UnionHits(w, targets, r->strategies), r->hits_after);
}

TEST(CombinatorialTest, PerTargetOptions) {
  TestWorld w = TestWorld::Linear(60, 40, 3, 43);
  std::vector<int> targets = {0, 1};
  std::vector<IqOptions> options(2);
  options[0].box = AdjustBox::Unbounded(3);
  options[0].box->Freeze(0);  // target 0 cannot move on axis 0
  options[1].cost = CostFunction::L1();
  auto r = CombinatorialMinCostIq(*w.index, targets, 10, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->strategies[0][0], 0.0);
}

/// L1 cost, a box, a grid on two attributes and a candidate evaluation
/// limit: every optional path of the greedy at once.
IqOptions ConstrainedOptions(int dim) {
  IqOptions options;
  options.cost = CostFunction::L1();
  AdjustBox box = AdjustBox::Unbounded(dim);
  for (int j = 0; j < dim; ++j) box.SetRange(j, -0.35, 0.4);
  options.box = box;
  options.granularity = Zeros(dim);
  options.granularity[0] = 0.05;
  options.granularity[static_cast<size_t>(dim - 1)] = 0.02;
  options.candidate_eval_limit = 4;
  return options;
}

/// Everything observable about a one-target search, bit for bit.
void ExpectSameSearch(const MultiIqResult& multi, const IqResult& single) {
  ASSERT_EQ(multi.strategies.size(), 1u);
  ASSERT_EQ(multi.strategies[0].size(), single.strategy.size());
  for (size_t j = 0; j < single.strategy.size(); ++j) {
    EXPECT_EQ(multi.strategies[0][j], single.strategy[j]) << "component " << j;
  }
  EXPECT_EQ(multi.costs[0], single.cost);
  EXPECT_EQ(multi.total_cost, single.cost);
  EXPECT_EQ(multi.hits_before, single.hits_before);
  EXPECT_EQ(multi.hits_after, single.hits_after);
  EXPECT_EQ(multi.reached_goal, single.reached_goal);
  EXPECT_EQ(multi.iterations, single.iterations);
}

TEST(CombinatorialTest, SingleTargetMatchesPlainMinCost) {
  // A one-target §5.1 search is Algorithm 3/4: the scheme fingerprint
  // test's three worlds and solve grid, compared with MinCost/MaxHit.
  struct World {
    const char* name;
    TestWorld w;
    IqOptions options;
  };
  World worlds[] = {
      {"l2", TestWorld::Linear(48, 24, 3, 11), IqOptions{}},
      {"l1_box_grid_limit", TestWorld::Linear(48, 24, 3, 12),
       ConstrainedOptions(3)},
      {"linearized", TestWorld::Polynomial(40, 16, 2, 3, 13), IqOptions{}}};
  int compared = 0;
  for (World& world : worlds) {
    const TestWorld& w = world.w;
    const int m = w.queries->size();
    for (int target : {0, 7, 19, 33}) {
      auto ctx = IqContext::FromIndex(w.index.get(), target);
      ASSERT_TRUE(ctx.ok());
      for (int i = 0; i < 6; ++i) {
        const int tau = 1 + (5 * i) % (m / 2);
        const double beta = 0.05 + 0.1 * i;
        SCOPED_TRACE(testing::Message() << world.name << " target " << target
                                        << " tau " << tau << " beta " << beta);
        EseEvaluator ese(w.index.get(), target);
        auto single = MinCostIq(*ctx, &ese, tau, world.options);
        auto multi =
            CombinatorialMinCostIq(*w.index, {target}, tau, {world.options});
        ASSERT_TRUE(single.ok() && multi.ok());
        ExpectSameSearch(*multi, *single);
        EseEvaluator ese2(w.index.get(), target);
        auto single_mh = MaxHitIq(*ctx, &ese2, beta, world.options);
        auto multi_mh =
            CombinatorialMaxHitIq(*w.index, {target}, beta, {world.options});
        ASSERT_TRUE(single_mh.ok() && multi_mh.ok());
        ExpectSameSearch(*multi_mh, *single_mh);
        compared += 2;
      }
    }
  }
  EXPECT_EQ(compared, 144);
}

TEST(CombinatorialTest, RowsScannedCountsOnePassPerRound) {
  // Each greedy round scores every active query once per track, and a
  // §5.1 search's first pass, which counts hits_before, also serves its
  // first round. Grid-free, so no snap adds a pass.
  TestWorld w = TestWorld::Linear(80, 60, 3, 41);
  Counter* rows =
      MetricsRegistry::Global().GetCounter("iq.search.rows_scanned");
  const uint64_t active = static_cast<uint64_t>(w.queries->num_active());
  const std::vector<int> targets = {1, 5, 9};
  for (bool min_cost : {true, false}) {
    SCOPED_TRACE(min_cost ? "MinCost" : "MaxHit");
    uint64_t before = rows->value();
    auto multi =
        min_cost ? CombinatorialMinCostIq(*w.index, targets, 45, {IqOptions{}})
                 : CombinatorialMaxHitIq(*w.index, targets, 0.3, {IqOptions{}});
    ASSERT_TRUE(multi.ok()) << multi.status().ToString();
    ASSERT_GT(multi->iterations, 1);
    EXPECT_EQ(rows->value() - before,
              static_cast<uint64_t>(multi->iterations) * targets.size() *
                  active);

    auto ctx = IqContext::FromIndex(w.index.get(), 1);
    ASSERT_TRUE(ctx.ok());
    EseEvaluator ese(w.index.get(), 1);
    before = rows->value();
    auto single =
        min_cost ? MinCostIq(*ctx, &ese, 30) : MaxHitIq(*ctx, &ese, 0.3);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    ASSERT_GT(single->iterations, 0);
    EXPECT_EQ(rows->value() - before,
              static_cast<uint64_t>(single->iterations) * active);
  }
}

TEST(CombinatorialTest, ErrorPaths) {
  TestWorld w = TestWorld::Linear(30, 20, 2, 45);
  EXPECT_FALSE(CombinatorialMinCostIq(*w.index, {}, 5, {IqOptions{}}).ok());
  EXPECT_FALSE(CombinatorialMinCostIq(*w.index, {0}, 0, {IqOptions{}}).ok());
  EXPECT_FALSE(
      CombinatorialMinCostIq(*w.index, {0, 1}, 5, {IqOptions{}, IqOptions{},
                                                   IqOptions{}})
          .ok());
  EXPECT_FALSE(CombinatorialMaxHitIq(*w.index, {0}, -0.5, {IqOptions{}}).ok());
}

}  // namespace
}  // namespace iq
