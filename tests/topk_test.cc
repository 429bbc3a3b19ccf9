#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "topk/rta.h"
#include "topk/threshold_algorithm.h"
#include "topk/topk.h"
#include "util/random.h"

namespace iq {
namespace {

std::vector<Vec> RandomRows(int n, int dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> out;
  for (int i = 0; i < n; ++i) out.push_back(rng.UniformVector(dim, 0.0, 1.0));
  return out;
}

TEST(TopKScanTest, OrdersByScoreThenId) {
  std::vector<Vec> rows = {{1.0}, {0.5}, {0.5}, {2.0}};
  auto top = TopKScan(rows, nullptr, {1.0}, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, 1);
  EXPECT_EQ(top[1].id, 2);  // tie broken by id
  EXPECT_EQ(top[2].id, 0);
}

TEST(TopKScanTest, RespectsActiveMaskAndExclude) {
  std::vector<Vec> rows = {{0.1}, {0.2}, {0.3}, {0.4}};
  std::vector<bool> active = {true, false, true, true};
  auto top = TopKScan(rows, &active, {1.0}, 2, /*exclude=*/0);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 2);
  EXPECT_EQ(top[1].id, 3);
}

TEST(TopKScanTest, KLargerThanN) {
  std::vector<Vec> rows = {{0.1}, {0.2}};
  EXPECT_EQ(TopKScan(rows, nullptr, {1.0}, 10).size(), 2u);
}

TEST(KthBestScoreTest, MatchesSortedRank) {
  auto rows = RandomRows(100, 3, 6);
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    Vec w = rng.UniformVector(3, 0.0, 1.0);
    int k = 1 + static_cast<int>(rng.UniformInt(0, 20));
    std::vector<double> scores;
    for (const Vec& r : rows) scores.push_back(Dot(r, w));
    std::sort(scores.begin(), scores.end());
    EXPECT_DOUBLE_EQ(KthBestScore(rows, nullptr, w, k),
                     scores[static_cast<size_t>(k - 1)]);
  }
}

TEST(KthBestScoreTest, InfinityWhenTooFew) {
  std::vector<Vec> rows = {{0.1}, {0.2}};
  EXPECT_TRUE(std::isinf(KthBestScore(rows, nullptr, {1.0}, 3)));
  EXPECT_TRUE(std::isinf(KthBestScore(rows, nullptr, {1.0}, 2, /*exclude=*/0)));
}

TEST(HitRuleTest, StrictInequality) {
  EXPECT_TRUE(HitByThreshold(0.5, 0.6));
  EXPECT_FALSE(HitByThreshold(0.6, 0.6));
  EXPECT_FALSE(HitByThreshold(0.7, 0.6));
  EXPECT_TRUE(HitByThreshold(0.7, std::numeric_limits<double>::infinity()));
}

// gtest names each case after the raw bytes of its parameter, so the struct
// must have no padding: padding bytes are uninitialized and would make the
// test names change from build to build.
struct RtaCase {
  int n;
  int m;
  int64_t dim;
  uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<RtaCase>);

class RtaSweep : public testing::TestWithParam<RtaCase> {};

TEST_P(RtaSweep, CountHitsMatchesBruteForce) {
  const auto& param = GetParam();
  const int dim = static_cast<int>(param.dim);
  auto rows = RandomRows(param.n, dim, param.seed);
  Rng rng(param.seed + 100);
  std::vector<Vec> ws;
  std::vector<int> ks;
  for (int q = 0; q < param.m; ++q) {
    ws.push_back(rng.UniformVector(dim, 0.0, 1.0));
    ks.push_back(1 + static_cast<int>(rng.UniformInt(0, 9)));
  }
  const int target = 0;

  for (int trial = 0; trial < 5; ++trial) {
    // A random candidate around the target's row.
    Vec c = rows[0];
    for (auto& v : c) v += rng.UniformDouble(-0.3, 0.3);

    int expected = 0;
    std::vector<int> expected_ids;
    for (int q = 0; q < param.m; ++q) {
      double kth = KthBestScore(rows, nullptr, ws[static_cast<size_t>(q)],
                                ks[static_cast<size_t>(q)], target);
      if (HitByThreshold(Dot(c, ws[static_cast<size_t>(q)]), kth)) {
        ++expected;
        expected_ids.push_back(q);
      }
    }

    Rta rta(&rows, nullptr, target);
    auto order = Rta::LocalityOrder(ws);
    std::vector<int> hit_ids;
    int got = rta.CountHits(c, ws, ks, &order, &hit_ids);
    EXPECT_EQ(got, expected);
    std::sort(hit_ids.begin(), hit_ids.end());
    EXPECT_EQ(hit_ids, expected_ids);
    // Pruning must actually fire on clustered weights.
    EXPECT_EQ(rta.full_evaluations() + rta.pruned(),
              static_cast<size_t>(param.m));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RtaSweep,
    testing::Values(RtaCase{50, 30, 2, 1}, RtaCase{200, 100, 3, 2},
                    RtaCase{100, 50, 4, 3}, RtaCase{400, 60, 3, 4},
                    RtaCase{30, 200, 2, 5}));

TEST(RtaTest, PruningFiresForFarCandidate) {
  auto rows = RandomRows(200, 3, 9);
  Rng rng(10);
  std::vector<Vec> ws;
  std::vector<int> ks;
  for (int q = 0; q < 100; ++q) {
    ws.push_back(rng.UniformVector(3, 0.2, 1.0));
    ks.push_back(1);
  }
  // A hopeless candidate (worst corner) should be pruned almost everywhere.
  Vec c = {5.0, 5.0, 5.0};
  Rta rta(&rows, nullptr, -1);
  auto order = Rta::LocalityOrder(ws);
  EXPECT_EQ(rta.CountHits(c, ws, ks, &order), 0);
  EXPECT_GT(rta.pruned(), 50u);
}

class TaSweep : public testing::TestWithParam<int> {};

TEST_P(TaSweep, MatchesScan) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  auto rows = RandomRows(150, 3, seed);
  ThresholdAlgorithm ta(&rows);
  Rng rng(seed + 50);
  for (int trial = 0; trial < 10; ++trial) {
    Vec w = rng.UniformVector(3, 0.0, 1.0);
    int k = 1 + static_cast<int>(rng.UniformInt(0, 12));
    auto got = ta.TopK(w, k);
    ASSERT_TRUE(got.ok());
    auto expected = TopKScan(rows, nullptr, w, k);
    ASSERT_EQ(got->size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*got)[i].id, expected[i].id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaSweep, testing::Range(0, 6));

TEST(TaTest, StopsEarlyOnSortedFriendlyData) {
  // Strongly correlated rows: TA should stop well before scanning all.
  Rng rng(11);
  std::vector<Vec> rows;
  for (int i = 0; i < 2000; ++i) {
    double b = rng.UniformDouble();
    rows.push_back({b, b + rng.Gaussian(0, 0.01)});
  }
  ThresholdAlgorithm ta(&rows);
  auto got = ta.TopK({0.5, 0.5}, 5);
  ASSERT_TRUE(got.ok());
  EXPECT_LT(ta.last_accesses(), 2000u);
}

TEST(TaTest, RejectsNegativeWeights) {
  std::vector<Vec> rows = {{0.1, 0.2}};
  ThresholdAlgorithm ta(&rows);
  EXPECT_FALSE(ta.TopK({-0.1, 0.5}, 1).ok());
}

TEST(TaTest, HonorsExcludeAndMask) {
  std::vector<Vec> rows = {{0.1, 0.1}, {0.2, 0.2}, {0.3, 0.3}};
  ThresholdAlgorithm ta(&rows);
  std::vector<bool> active = {true, true, false};
  auto got = ta.TopK({1.0, 1.0}, 2, &active, /*exclude=*/0);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 1u);
  EXPECT_EQ((*got)[0].id, 1);
}

}  // namespace
}  // namespace iq
