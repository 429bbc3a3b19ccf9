// Cross-implementation consistency checks between independently implemented
// components (each pair computes the same quantity two different ways).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/iq_algorithms.h"
#include "index/dominant_graph.h"
#include "tests/test_world.h"
#include "topk/rta.h"
#include "topk/threshold_algorithm.h"
#include "topk/topk.h"

namespace iq {
namespace {

// IqContext built from the subdomain index and built index-free must agree
// on every active query's threshold and augmented weight.
class ContextAgreement : public testing::TestWithParam<uint64_t> {};

TEST_P(ContextAgreement, FromIndexEqualsFromView) {
  TestWorld w = TestWorld::Linear(60, 40, 3, GetParam() + 170);
  auto expect_agree = [&w] {
    for (int target : {0, 11, 37}) {
      auto a = IqContext::FromIndex(w.index.get(), target);
      auto b = IqContext::FromView(w.view.get(), w.queries.get(), target);
      ASSERT_TRUE(a.ok() && b.ok());
      for (int q = 0; q < 40; ++q) {
        // A removed query's row is unspecified (IqContext::aug_w).
        if (!w.queries->is_active(q)) continue;
        EXPECT_NEAR(a->thresholds()[static_cast<size_t>(q)],
                    b->thresholds()[static_cast<size_t>(q)], 1e-12)
            << "target " << target << " query " << q;
        EXPECT_EQ(a->aug_w(q), b->aug_w(q)) << "query " << q;
      }
    }
  };
  expect_agree();
  ASSERT_TRUE(w.queries->Remove(23).ok());
  ASSERT_TRUE(w.index->OnQueryRemoved(23).ok());
  expect_agree();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContextAgreement,
                         testing::Range<uint64_t>(1, 6));

TEST_P(ContextAgreement, PolynomialFormsAgreeToo) {
  TestWorld w = TestWorld::Polynomial(40, 30, 3, 3, GetParam() + 180);
  auto a = IqContext::FromIndex(w.index.get(), 5);
  auto b = IqContext::FromView(w.view.get(), w.queries.get(), 5);
  ASSERT_TRUE(a.ok() && b.ok());
  for (int q = 0; q < 30; ++q) {
    EXPECT_NEAR(a->thresholds()[static_cast<size_t>(q)],
                b->thresholds()[static_cast<size_t>(q)], 1e-12);
  }
}

// Three top-k engines agree: brute scan, Fagin's TA, DominantGraph.
class TopKEngineAgreement : public testing::TestWithParam<uint64_t> {};

TEST_P(TopKEngineAgreement, ScanTaAndDominantGraphMatch) {
  Rng rng(GetParam() + 190);
  std::vector<Vec> rows;
  for (int i = 0; i < 200; ++i) rows.push_back(rng.UniformVector(3, 0.0, 1.0));
  ThresholdAlgorithm ta(&rows);
  DominantGraph dg(rows);
  for (int trial = 0; trial < 10; ++trial) {
    Vec w = rng.UniformVector(3, 0.05, 1.0);  // strictly positive
    int k = 1 + static_cast<int>(rng.UniformInt(0, 9));
    auto scan = TopKScan(rows, nullptr, w, k);
    auto ta_result = ta.TopK(w, k);
    ASSERT_TRUE(ta_result.ok());
    auto dg_result = dg.TopK(w, k);
    ASSERT_EQ(scan.size(), ta_result->size());
    ASSERT_EQ(scan.size(), dg_result.size());
    for (size_t i = 0; i < scan.size(); ++i) {
      EXPECT_EQ(scan[i].id, (*ta_result)[i].id);
      EXPECT_EQ(scan[i].id, dg_result[i].first);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKEngineAgreement,
                         testing::Range<uint64_t>(1, 6));

TEST(RtaOrderTest, LocalityOrderIsAPermutation) {
  Rng rng(200);
  std::vector<Vec> ws;
  for (int i = 0; i < 100; ++i) ws.push_back(rng.UniformVector(3, 0.0, 1.0));
  std::vector<int> order = Rta::LocalityOrder(ws);
  ASSERT_EQ(order.size(), 100u);
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(RtaOrderTest, HitsIndependentOfProcessingOrder) {
  // The pruning buffer changes with the order; the answer must not.
  Rng rng(201);
  std::vector<Vec> rows;
  for (int i = 0; i < 120; ++i) rows.push_back(rng.UniformVector(3, 0, 1));
  std::vector<Vec> ws;
  std::vector<int> ks;
  for (int q = 0; q < 60; ++q) {
    ws.push_back(rng.UniformVector(3, 0.0, 1.0));
    ks.push_back(1 + static_cast<int>(rng.UniformInt(0, 5)));
  }
  Vec candidate = rng.UniformVector(3, 0.0, 0.6);

  Rta rta1(&rows, nullptr, 0);
  auto locality = Rta::LocalityOrder(ws);
  int h1 = rta1.CountHits(candidate, ws, ks, &locality);

  Rta rta2(&rows, nullptr, 0);
  int h2 = rta2.CountHits(candidate, ws, ks, nullptr);  // natural order

  std::vector<int> reversed(locality.rbegin(), locality.rend());
  Rta rta3(&rows, nullptr, 0);
  int h3 = rta3.CountHits(candidate, ws, ks, &reversed);

  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1, h3);
}

}  // namespace
}  // namespace iq
