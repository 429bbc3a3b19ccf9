#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "expr/expr.h"
#include "expr/linearize.h"
#include "tests/test_world.h"
#include "util/random.h"

namespace iq {
namespace {

struct EseCase {
  int n;
  int m;
  int dim;
  uint64_t seed;
  bool polynomial;
};

class EseSweep : public testing::TestWithParam<EseCase> {};

// The three evaluators (the paper's compared schemes) must agree exactly.
TEST_P(EseSweep, EvaluatorsAgreeOnRandomStrategies) {
  const auto& p = GetParam();
  TestWorld w = p.polynomial
                    ? TestWorld::Polynomial(p.n, p.m, p.dim, p.dim, p.seed)
                    : TestWorld::Linear(p.n, p.m, p.dim, p.seed);
  Rng rng(p.seed + 9);
  for (int target : {0, p.n / 2}) {
    EseEvaluator ese(w.index.get(), target);
    BruteForceEvaluator brute(w.view.get(), w.queries.get(), target);
    RtaStrategyEvaluator rta(w.view.get(), w.queries.get(), target);

    EXPECT_EQ(ese.base_hits(), brute.base_hits());
    EXPECT_EQ(ese.base_hits(), rta.base_hits());
    EXPECT_EQ(ese.base_hits(), w.index->HitCount(target));

    for (int trial = 0; trial < 8; ++trial) {
      Vec s(static_cast<size_t>(p.dim));
      for (auto& v : s) v = rng.UniformDouble(-0.4, 0.4);
      Vec improved = Add(w.data->attrs(target), s);
      Vec c = w.view->CoefficientsFor(improved);

      int h_ese = ese.HitsForCoeffs(c);
      EXPECT_EQ(h_ese, brute.HitsForCoeffs(c)) << "trial " << trial;
      EXPECT_EQ(h_ese, rta.HitsForCoeffs(c)) << "trial " << trial;
      EXPECT_EQ(h_ese, ese.HitsViaWedges(c)) << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, EseSweep,
    testing::Values(EseCase{60, 50, 2, 1, false}, EseCase{120, 80, 3, 2, false},
                    EseCase{80, 60, 4, 3, false}, EseCase{50, 40, 2, 4, true},
                    EseCase{70, 50, 3, 5, true}, EseCase{40, 90, 3, 6, false},
                    EseCase{200, 30, 3, 7, false}));

// Fact 1: a query outside every affected subspace keeps its result.
TEST(EseTest, AffectedQueriesCoverEveryHitFlip) {
  TestWorld w = TestWorld::Linear(80, 70, 3, 11);
  Rng rng(12);
  const int target = 5;
  EseEvaluator ese(w.index.get(), target);
  const Vec& c_base = w.view->coeffs(target);
  for (int trial = 0; trial < 10; ++trial) {
    Vec s(3);
    for (auto& v : s) v = rng.UniformDouble(-0.5, 0.5);
    Vec c_new = w.view->CoefficientsFor(Add(w.data->attrs(target), s));
    std::vector<int> affected = ese.AffectedQueries(c_base, c_new);
    std::vector<bool> in_affected(70, false);
    for (int q : affected) in_affected[static_cast<size_t>(q)] = true;
    for (int q = 0; q < 70; ++q) {
      double t = ese.thresholds()[static_cast<size_t>(q)];
      bool before = HitByThreshold(Dot(c_base, w.index->aug_weights(q)), t);
      bool after = HitByThreshold(Dot(c_new, w.index->aug_weights(q)), t);
      if (before != after) {
        EXPECT_TRUE(in_affected[static_cast<size_t>(q)]) << "query " << q;
      }
    }
  }
}

TEST(EseTest, ZeroStrategyKeepsBaseHits) {
  TestWorld w = TestWorld::Linear(60, 40, 3, 13);
  EseEvaluator ese(w.index.get(), 3);
  Vec c = w.view->coeffs(3);
  EXPECT_EQ(ese.HitsForCoeffs(c), ese.base_hits());
  EXPECT_EQ(ese.HitsViaWedges(c), ese.base_hits());
  EXPECT_TRUE(ese.AffectedQueries(c, c).empty());
}

TEST(EseTest, DominatingImprovementHitsEverything) {
  // Move the target far below everyone in every coordinate: with k >= 1 and
  // non-negative weights it must win every query.
  TestWorld w = TestWorld::Linear(50, 30, 3, 14);
  const int target = 7;
  EseEvaluator ese(w.index.get(), target);
  Vec improved = {-10.0, -10.0, -10.0};
  Vec c = w.view->CoefficientsFor(improved);
  EXPECT_EQ(ese.HitsForCoeffs(c), 30);
}

TEST(EseTest, CallsAreCounted) {
  TestWorld w = TestWorld::Linear(30, 20, 2, 15);
  EseEvaluator ese(w.index.get(), 0);
  Vec c = w.view->coeffs(0);
  EXPECT_EQ(ese.calls(), 0u);
  ese.HitsForCoeffs(c);
  ese.HitsForCoeffs(c);
  EXPECT_EQ(ese.calls(), 2u);
}

TEST(EseTest, RtaEvaluatorTracksFullEvaluations) {
  TestWorld w = TestWorld::Linear(100, 60, 3, 16);
  RtaStrategyEvaluator rta(w.view.get(), w.queries.get(), 0);
  // A dominating candidate is in every top-k, so no query can be pruned by
  // the competitor buffer: every query needs a full evaluation.
  Vec c = {-5.0, -5.0, -5.0};
  EXPECT_EQ(rta.HitsForCoeffs(c), 60);
  EXPECT_EQ(rta.total_full_evaluations(), 60u);
}

// ---- The reach bound (DESIGN.md §2) against scalar and brute-force H ----

/// A world from explicit rows and queries under `form`; `removed` queries
/// leave through the §4.3 hook after the build.
TestWorld ExplicitWorld(int dim, std::vector<Vec> rows,
                        std::vector<TopKQuery> queries, LinearForm form,
                        const std::vector<int>& removed = {}) {
  TestWorld w;
  auto data = Dataset::FromRows(dim, std::move(rows));
  IQ_CHECK(data.ok());
  w.data = std::make_unique<Dataset>(std::move(*data));
  w.queries = std::make_unique<QuerySet>(form.num_weights());
  for (TopKQuery& q : queries) IQ_CHECK(w.queries->Add(std::move(q)).ok());
  w.view = std::make_unique<FunctionView>(w.data.get(), std::move(form));
  w.RebuildIndex();
  for (int q : removed) {
    IQ_CHECK(w.queries->Remove(q).ok());
    IQ_CHECK(w.index->OnQueryRemoved(q).ok());
  }
  return w;
}

std::vector<Vec> Rows(Rng& rng, int n, int dim, double lo, double hi,
                      double scale) {
  std::vector<Vec> rows;
  for (int i = 0; i < n; ++i) {
    Vec r = rng.UniformVector(dim, lo, hi);
    for (double& x : r) x *= scale;
    rows.push_back(std::move(r));
  }
  return rows;
}

std::vector<TopKQuery> Queries(Rng& rng, int m, int num_weights, double lo,
                               double hi, double scale, int k_max) {
  std::vector<TopKQuery> out;
  for (int j = 0; j < m; ++j) {
    TopKQuery q;
    q.k = static_cast<int>(rng.UniformInt(1, k_max));
    q.weights = rng.UniformVector(num_weights, lo, hi);
    for (double& x : q.weights) x *= scale;
    out.push_back(std::move(q));
  }
  return out;
}

/// The seeded hostile worlds of the reach oracle.
std::vector<std::pair<std::string, TestWorld>> ReachWorlds() {
  Rng rng(2024);
  std::vector<std::pair<std::string, TestWorld>> worlds;
  {  // Every object and every query twice: exact score ties.
    std::vector<Vec> rows = Rows(rng, 25, 3, 0.0, 1.0, 1.0);
    std::vector<TopKQuery> qs = Queries(rng, 20, 3, 0.0, 1.0, 1.0, 5);
    const size_t n = rows.size(), m = qs.size();
    for (size_t i = 0; i < n; ++i) rows.push_back(rows[i]);
    for (size_t j = 0; j < m; ++j) qs.push_back(qs[j]);
    worlds.emplace_back("duplicates", ExplicitWorld(3, std::move(rows),
                                                    std::move(qs),
                                                    LinearForm::Identity(3)));
  }
  {  // Mixed-sign objects and weights, and a zero weight vector.
    std::vector<TopKQuery> qs = Queries(rng, 40, 3, -1.0, 1.0, 1.0, 6);
    qs[7].weights = Zeros(3);
    worlds.emplace_back(
        "mixed_signs", ExplicitWorld(3, Rows(rng, 50, 3, -1.0, 1.0, 1.0),
                                     std::move(qs), LinearForm::Identity(3)));
  }
  {  // k >= |D| (a +inf threshold) beside removed queries.
    std::vector<TopKQuery> qs = Queries(rng, 30, 3, 0.0, 1.0, 1.0, 16);
    worlds.emplace_back(
        "k_over_n", ExplicitWorld(3, Rows(rng, 12, 3, 0.0, 1.0, 1.0),
                                  std::move(qs), LinearForm::Identity(3),
                                  {2, 5, 11, 29}));
  }
  {  // A linearized utility with an attribute-only term: the bias slot.
    auto expr = ParseExpr("w1*x1^2 + w2*x2 + x1*x2", 2, 2);
    IQ_CHECK(expr.ok());
    auto form = Linearize(**expr, 2, 2);
    IQ_CHECK(form.ok() && form->has_bias());
    worlds.emplace_back(
        "bias_slot",
        ExplicitWorld(2, Rows(rng, 40, 2, 0.0, 1.0, 1.0),
                      Queries(rng, 30, 2, 0.0, 1.0, 1.0, 5), std::move(*form)));
  }
  worlds.emplace_back(
      "d1", ExplicitWorld(1, Rows(rng, 30, 1, 0.0, 1.0, 1.0),
                          Queries(rng, 20, 1, 0.0, 1.0, 1.0, 5),
                          LinearForm::Identity(1)));
  for (double scale : {1e150, 1e-150}) {
    worlds.emplace_back(
        scale > 1 ? "magnitude_1e+150" : "magnitude_1e-150",
        ExplicitWorld(3, Rows(rng, 40, 3, 0.0, 1.0, scale),
                      Queries(rng, 30, 3, 0.0, 1.0, scale, 5),
                      LinearForm::Identity(3)));
  }
  return worlds;
}

// HitsForCoeffs equals the scalar loop and the brute-force evaluator at the
// target itself, on other objects' coefficients (a score exactly on some
// query's threshold), near the target and far from it; every call counts
// each active query once, re-tests exactly the queries the prefix rule
// names, and a zero step re-tests only queries within the slack.
TEST(EseTest, ReachBoundMatchesScalarAndBruteForce) {
  for (auto& [name, w] : ReachWorlds()) {
    SCOPED_TRACE(name);
    const size_t active = static_cast<size_t>(w.queries->num_active());
    Rng rng(7);
    size_t reused_total = 0;
    for (int target : {0, 3, w.data->size() - 1}) {
      SCOPED_TRACE(testing::Message() << "target " << target);
      EseEvaluator ese(w.index.get(), target);
      BruteForceEvaluator brute(w.view.get(), w.queries.get(), target);
      EXPECT_EQ(ese.base_hits(), brute.base_hits());
      const Vec& c0 = w.view->coeffs(target);
      const double scale = std::max(NormL2(c0), 1e-300);
      std::vector<Vec> probes = {c0, Scale(c0, -1.0),
                                 Zeros(static_cast<int>(c0.size()))};
      for (int i = 0; i < w.data->size(); i += 3) {
        probes.push_back(w.view->coeffs(i));
      }
      for (double step : {1e-12, 1e-6, 1e-3, 0.1, 10.0}) {
        for (int rep = 0; rep < 3; ++rep) {
          Vec v = rng.UniformVector(static_cast<int>(c0.size()), -1.0, 1.0);
          probes.push_back(Add(c0, Scale(v, step * scale)));
        }
      }
      for (size_t p = 0; p < probes.size(); ++p) {
        const Vec& c = probes[p];
        const size_t rescored = ese.queries_rescored();
        const size_t reused = ese.queries_reused();
        const int hits = ese.HitsForCoeffs(c);
        EXPECT_EQ(hits, ScalarHits(*w.index, ese.thresholds(), c))
            << "probe " << p;
        EXPECT_EQ(hits, brute.HitsForCoeffs(c)) << "probe " << p;
        const size_t d_rescored = ese.queries_rescored() - rescored;
        const size_t d_reused = ese.queries_reused() - reused;
        EXPECT_EQ(d_rescored + d_reused, active) << "probe " << p;
        EXPECT_EQ(d_rescored,
                  EseReachPrefix(*w.index, ese.thresholds(), target, c))
            << "probe " << p;
        reused_total += d_reused;
      }
      // The zero step: only queries within the slack of their threshold
      // (2e-9·‖c0‖·‖w‖) or outside the bound's range are re-tested.
      size_t within_slack = 0;
      for (int q = 0; q < w.queries->size(); ++q) {
        if (!w.queries->is_active(q)) continue;
        const Vec& wq = w.index->aug_weights(q);
        const double w_sq = Dot(wq, wq);
        const double gap =
            std::fabs(Dot(c0, wq) - ese.thresholds()[static_cast<size_t>(q)]);
        within_slack += w_sq < 0x1p-1000 || w_sq > 0x1p1000 ||
                                !(gap > 2.001e-9 * NormL2(c0) * std::sqrt(w_sq))
                            ? 1
                            : 0;
      }
      const double c0_sq = Dot(c0, c0);
      if (2 * c0_sq >= 0x1p-1000 && c0_sq <= 0x1p1000) {
        EXPECT_LE(EseReachPrefix(*w.index, ese.thresholds(), target, c0),
                  within_slack);
      }
    }
    EXPECT_GT(reused_total, 0u) << "the reach path never reused a query";
  }
}

// The SupportsConcurrentEval contract: four threads evaluating one shared
// ESE get the serial answers, and the counters add up as if serial.
TEST(EseConcurrentTest, FourThreadsAgreeWithSerialCalls) {
  TestWorld w = TestWorld::Linear(400, 300, 3, 31);
  const int target = 5;
  EseEvaluator ese(w.index.get(), target);
  ASSERT_TRUE(ese.SupportsConcurrentEval());
  Rng rng(32);
  std::vector<Vec> probes;
  for (double step : {0.0, 0.01, 0.05, 0.2, 1.0}) {
    for (int rep = 0; rep < 8; ++rep) {
      Vec s = rng.UniformVector(3, -step, step);
      probes.push_back(w.view->CoefficientsFor(Add(w.data->attrs(target), s)));
    }
  }
  EseEvaluator serial(w.index.get(), target);
  std::vector<int> want;
  for (const Vec& c : probes) want.push_back(serial.HitsForCoeffs(c));

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<int>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (size_t i = 0; i < probes.size(); ++i) {
          const size_t p = (i + static_cast<size_t>(7 * t)) % probes.size();
          got[static_cast<size_t>(t)].push_back(ese.HitsForCoeffs(probes[p]));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (size_t k = 0; k < got[static_cast<size_t>(t)].size(); ++k) {
      const size_t p =
          (k % probes.size() + static_cast<size_t>(7 * t)) % probes.size();
      EXPECT_EQ(got[static_cast<size_t>(t)][k], want[p])
          << "thread " << t << " call " << k;
    }
  }
  const size_t runs = kThreads * kRounds;
  EXPECT_EQ(ese.calls(), runs * probes.size());
  EXPECT_EQ(ese.queries_rescored(), runs * serial.queries_rescored());
  EXPECT_EQ(ese.queries_reused(), runs * serial.queries_reused());
  EXPECT_GT(serial.queries_reused(), 0u);
}

}  // namespace
}  // namespace iq
