#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/evaluator.h"
#include "core/iq_algorithms.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "tests/test_world.h"
#include "util/random.h"

namespace iq {
namespace {

int VerifyHits(const TestWorld& w, int target, const Vec& s) {
  BruteForceEvaluator brute(w.view.get(), w.queries.get(), target);
  return brute.HitsForCoeffs(
      w.view->CoefficientsFor(Add(w.data->attrs(target), s)));
}

struct IqCase {
  int n;
  int m;
  int dim;
  int tau;
  uint64_t seed;
  bool polynomial;
};

class MinCostSweep : public testing::TestWithParam<IqCase> {};

TEST_P(MinCostSweep, ReachesGoalAndReportsTruthfully) {
  const auto& p = GetParam();
  TestWorld w = p.polynomial
                    ? TestWorld::Polynomial(p.n, p.m, p.dim, p.dim, p.seed)
                    : TestWorld::Linear(p.n, p.m, p.dim, p.seed);
  const int target = 1;
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  ASSERT_TRUE(ctx.ok());
  EseEvaluator ese(w.index.get(), target);
  auto r = MinCostIq(*ctx, &ese, p.tau);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The reported hit count must match an independent brute-force check.
  EXPECT_EQ(VerifyHits(w, target, r->strategy), r->hits_after);
  if (r->reached_goal) {
    EXPECT_GE(r->hits_after, p.tau);
  }
  EXPECT_GE(r->cost, 0.0);
  EXPECT_NEAR(r->cost, NormL2(r->strategy), 1e-9);  // default L2 cost
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, MinCostSweep,
    testing::Values(IqCase{80, 60, 3, 10, 1, false},
                    IqCase{150, 100, 2, 20, 2, false},
                    IqCase{60, 40, 4, 8, 3, false},
                    IqCase{50, 50, 3, 12, 4, true},
                    IqCase{120, 80, 3, 30, 5, false}));

TEST(MinCostIqTest, EfficientAndRtaFindTheSameStrategy) {
  // The paper notes RTA-IQ shares the searching method, so quality matches.
  TestWorld w = TestWorld::Linear(100, 70, 3, 6);
  const int target = 2;
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  ASSERT_TRUE(ctx.ok());
  EseEvaluator ese(w.index.get(), target);
  RtaStrategyEvaluator rta(w.view.get(), w.queries.get(), target);
  auto r1 = MinCostIq(*ctx, &ese, 15);
  auto r2 = MinCostIq(*ctx, &rta, 15);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(ApproxEqual(r1->strategy, r2->strategy, 1e-9));
  EXPECT_EQ(r1->hits_after, r2->hits_after);
}

TEST(MinCostIqTest, RespectsAdjustBox) {
  TestWorld w = TestWorld::Linear(80, 60, 3, 7);
  const int target = 4;
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  ASSERT_TRUE(ctx.ok());
  EseEvaluator ese(w.index.get(), target);
  IqOptions options;
  options.box = AdjustBox::Unbounded(3);
  options.box->SetRange(0, -0.05, 0.0);
  options.box->Freeze(1);
  options.box->SetRange(2, -0.3, 0.3);
  auto r = MinCostIq(*ctx, &ese, 10, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(options.box->Contains(r->strategy, 1e-9));
  EXPECT_EQ(r->strategy[1], 0.0);
}

TEST(MinCostIqTest, AlreadySatisfiedReturnsZeroStrategy) {
  TestWorld w = TestWorld::Linear(50, 40, 3, 8);
  // Find a target already hitting at least one query.
  int target = -1;
  for (int i = 0; i < 50; ++i) {
    if (w.index->HitCount(i) >= 1) {
      target = i;
      break;
    }
  }
  ASSERT_GE(target, 0);
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  EseEvaluator ese(w.index.get(), target);
  auto r = MinCostIq(*ctx, &ese, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->reached_goal);
  EXPECT_EQ(r->cost, 0.0);
  EXPECT_EQ(r->iterations, 0);
}

TEST(MinCostIqTest, InvalidArguments) {
  TestWorld w = TestWorld::Linear(20, 10, 2, 9);
  auto ctx = IqContext::FromIndex(w.index.get(), 0);
  EseEvaluator ese(w.index.get(), 0);
  EXPECT_FALSE(MinCostIq(*ctx, &ese, 0).ok());
  EXPECT_FALSE(IqContext::FromIndex(w.index.get(), -1).ok());
  EXPECT_FALSE(IqContext::FromIndex(w.index.get(), 99).ok());
}

TEST(MinCostIqTest, WorksWithL1AndWeightedCosts) {
  TestWorld w = TestWorld::Linear(80, 60, 3, 10);
  const int target = 3;
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  EseEvaluator ese(w.index.get(), target);
  for (CostFunction cost :
       {CostFunction::L1(), CostFunction::WeightedL1({1.0, 2.0, 0.5}),
        CostFunction::Quadratic({1.0, 1.0, 1.0})}) {
    IqOptions options;
    options.cost = cost;
    auto r = MinCostIq(*ctx, &ese, 10, options);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(VerifyHits(w, target, r->strategy), r->hits_after);
    if (r->reached_goal) {
      EXPECT_GE(r->hits_after, 10);
    }
  }
}

class MaxHitSweep : public testing::TestWithParam<IqCase> {};

TEST_P(MaxHitSweep, RespectsBudgetAndNeverLosesHits) {
  const auto& p = GetParam();
  TestWorld w = p.polynomial
                    ? TestWorld::Polynomial(p.n, p.m, p.dim, p.dim, p.seed)
                    : TestWorld::Linear(p.n, p.m, p.dim, p.seed);
  const int target = 1;
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  ASSERT_TRUE(ctx.ok());
  EseEvaluator ese(w.index.get(), target);
  const double beta = 0.3;
  auto r = MaxHitIq(*ctx, &ese, beta);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->cost, beta + 1e-9);
  EXPECT_GE(r->hits_after, r->hits_before);
  EXPECT_EQ(VerifyHits(w, target, r->strategy), r->hits_after);
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, MaxHitSweep,
    testing::Values(IqCase{80, 60, 3, 0, 21, false},
                    IqCase{150, 100, 2, 0, 22, false},
                    IqCase{60, 40, 4, 0, 23, false},
                    IqCase{50, 50, 3, 0, 24, true}));

TEST(MaxHitIqTest, ZeroBudgetMeansZeroStrategy) {
  TestWorld w = TestWorld::Linear(40, 30, 3, 25);
  auto ctx = IqContext::FromIndex(w.index.get(), 0);
  EseEvaluator ese(w.index.get(), 0);
  auto r = MaxHitIq(*ctx, &ese, 0.0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->cost, 0.0);
  EXPECT_EQ(r->hits_after, r->hits_before);
  EXPECT_FALSE(MaxHitIq(*ctx, &ese, -1.0).ok());
}

TEST(MaxHitIqTest, LargerBudgetNeverHurts) {
  TestWorld w = TestWorld::Linear(100, 80, 3, 26);
  const int target = 6;
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  EseEvaluator ese(w.index.get(), target);
  int prev_hits = -1;
  for (double beta : {0.05, 0.2, 0.5, 1.5}) {
    auto r = MaxHitIq(*ctx, &ese, beta);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r->hits_after, prev_hits);
    prev_hits = r->hits_after;
  }
}

// ---- Baselines ----

TEST(GreedyBaselineTest, ValidButNoBetterThanProposed) {
  TestWorld w = TestWorld::Linear(100, 80, 3, 31);
  const int target = 2;
  auto ctx = IqContext::FromIndex(w.index.get(), target);
  EseEvaluator ese1(w.index.get(), target);
  EseEvaluator ese2(w.index.get(), target);
  const int tau = 15;
  auto proposed = MinCostIq(*ctx, &ese1, tau);
  auto greedy = GreedyMinCost(*ctx, &ese2, tau);
  ASSERT_TRUE(proposed.ok() && greedy.ok());
  EXPECT_EQ(VerifyHits(w, target, greedy->strategy), greedy->hits_after);
  if (greedy->reached_goal && proposed->reached_goal) {
    // Cost-per-hit of the proposed scheme should not be worse (allowing a
    // tiny numerical slack).
    double q_prop = proposed->cost / std::max(1, proposed->hits_after);
    double q_greedy = greedy->cost / std::max(1, greedy->hits_after);
    EXPECT_LE(q_prop, q_greedy + 1e-6);
  }
}

TEST(GreedyBaselineTest, MaxHitRespectsBudget) {
  TestWorld w = TestWorld::Linear(80, 60, 3, 32);
  auto ctx = IqContext::FromIndex(w.index.get(), 1);
  EseEvaluator ese(w.index.get(), 1);
  auto r = GreedyMaxHit(*ctx, &ese, 0.25);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->cost, 0.25 + 1e-9);
}

TEST(RandomBaselineTest, MinCostReportsHonestHits) {
  TestWorld w = TestWorld::Linear(80, 60, 3, 33);
  auto ctx = IqContext::FromIndex(w.index.get(), 1);
  EseEvaluator ese(w.index.get(), 1);
  IqOptions options;
  options.random_samples = 128;
  auto r = RandomMinCost(*ctx, &ese, 5, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(VerifyHits(w, 1, r->strategy), r->hits_after);
  if (r->reached_goal) {
    EXPECT_GE(r->hits_after, 5);
  }
}

TEST(RandomBaselineTest, MaxHitStaysWithinBudget) {
  TestWorld w = TestWorld::Linear(80, 60, 3, 34);
  auto ctx = IqContext::FromIndex(w.index.get(), 1);
  EseEvaluator ese(w.index.get(), 1);
  IqOptions options;
  options.random_samples = 64;
  auto r = RandomMaxHit(*ctx, &ese, 0.4, options);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->cost, 0.4 + 1e-9);
  EXPECT_EQ(VerifyHits(w, 1, r->strategy), r->hits_after);
}

TEST(RandomBaselineTest, DeterministicForSeed) {
  TestWorld w = TestWorld::Linear(60, 40, 3, 35);
  auto ctx = IqContext::FromIndex(w.index.get(), 1);
  EseEvaluator ese(w.index.get(), 1);
  IqOptions options;
  options.seed = 77;
  auto r1 = RandomMinCost(*ctx, &ese, 5, options);
  auto r2 = RandomMinCost(*ctx, &ese, 5, options);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->strategy, r2->strategy);
}

/// A linear world in which every object appears twice, so every target has
/// an exact twin and every threshold can equal its own score.
TestWorld DuplicatedRows(int n_unique, int m, int dim, uint64_t seed) {
  TestWorld w;
  Dataset unique = MakeIndependent(n_unique, dim, seed);
  w.data = std::make_unique<Dataset>(dim);
  for (int i = 0; i < n_unique; ++i) {
    w.data->Add(unique.attrs(i));
    w.data->Add(unique.attrs(i));
  }
  w.queries = std::make_unique<QuerySet>(dim);
  QueryGenOptions qopts;
  qopts.k_max = 5;
  for (TopKQuery& q : MakeQueries(m, dim, seed + 1, qopts)) {
    IQ_CHECK(w.queries->Add(std::move(q)).ok());
  }
  w.view = std::make_unique<FunctionView>(w.data.get(),
                                          LinearForm::Identity(dim));
  w.RebuildIndex();
  return w;
}

std::vector<CostFunction> BuiltInCosts(int dim) {
  Vec unit(static_cast<size_t>(dim));
  for (int j = 0; j < dim; ++j) unit[static_cast<size_t>(j)] = 0.5 + j;
  return {CostFunction::L1(), CostFunction::L2(),
          CostFunction::WeightedL1(unit), CostFunction::WeightedL2(unit),
          CostFunction::Quadratic(unit)};
}

TEST(IqContextTest, EveryCandidateStepHitsUnderTheStrictInequality) {
  // Eq. 6 is strict: q is hit only when the improved score is *below* the
  // k-th competitor's. SolveCandidate aims kHitMargin inside the halfspace,
  // so every step it returns must pass HitBy's strict < from the point it
  // was solved at — the same check the greedy's next iteration makes. The
  // second pass solves from a point one step in, with the box narrowed by
  // that step, as the greedy does after its first iteration.
  std::vector<TestWorld> worlds;
  for (uint64_t seed : {41, 42, 43}) {
    worlds.push_back(TestWorld::Linear(40, 30, 3, seed));
  }
  worlds.push_back(TestWorld::Polynomial(30, 20, 2, 3, 44));
  worlds.push_back(DuplicatedRows(20, 30, 3, 45));
  size_t checked = 0;
  for (size_t wi = 0; wi < worlds.size(); ++wi) {
    const TestWorld& w = worlds[wi];
    const int dim = w.data->dim();
    AdjustBox box = AdjustBox::Unbounded(dim);
    for (int j = 0; j < dim; ++j) box.SetRange(j, -0.3, 0.5);
    for (const CostFunction& cost : BuiltInCosts(dim)) {
      for (bool boxed : {false, true}) {
        IqOptions options;
        options.cost = cost;
        if (boxed) options.box = box;
        for (int target : {0, 1, 9, 17}) {
          SCOPED_TRACE(testing::Message()
                       << "world " << wi << " cost " << cost.name()
                       << (boxed ? " boxed" : "") << " target " << target);
          auto ctx = IqContext::FromIndex(w.index.get(), target);
          ASSERT_TRUE(ctx.ok());
          Vec p_cur = w.data->attrs(target);
          Vec s_total = Zeros(dim);
          for (int pass = 0; pass < 2; ++pass) {
            const Vec c_cur = w.view->CoefficientsFor(p_cur);
            Vec first_step;
            for (int q = 0; q < w.queries->size(); ++q) {
              if (ctx->HitBy(q, c_cur)) continue;
              auto sol = ctx->SolveCandidate(q, p_cur, s_total, options);
              if (!sol.ok()) continue;  // unreachable inside the box
              ++checked;
              EXPECT_TRUE(
                  ctx->HitBy(q, w.view->CoefficientsFor(Add(p_cur, sol->s))))
                  << "pass " << pass << " query " << q;
              if (boxed) {
                EXPECT_TRUE(box.Contains(Add(s_total, sol->s)));
              }
              if (first_step.empty()) first_step = sol->s;
            }
            if (first_step.empty()) break;
            p_cur = Add(p_cur, first_step);
            AddInPlace(&s_total, first_step);
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 5000u);
}

}  // namespace
}  // namespace iq
