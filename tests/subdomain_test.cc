#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/subdomain_bsp.h"
#include "tests/test_world.h"
#include "topk/topk.h"
#include "util/random.h"

namespace iq {
namespace {

std::vector<bool> Mask(const Dataset& data) {
  std::vector<bool> mask(static_cast<size_t>(data.size()));
  for (int i = 0; i < data.size(); ++i) {
    mask[static_cast<size_t>(i)] = data.is_active(i);
  }
  return mask;
}

TEST(SubdomainIndexTest, BuildBasics) {
  TestWorld w = TestWorld::Linear(100, 60, 3, 1);
  EXPECT_EQ(w.index->kappa(), w.queries->max_k() + 1);
  EXPECT_GT(w.index->num_subdomains(), 0);
  EXPECT_LE(w.index->num_subdomains(), 60);
  EXPECT_EQ(w.index->rtree().size(), 60u);
  EXPECT_GT(w.index->MemoryBytes(), 0u);
  for (int q = 0; q < 60; ++q) {
    int sd = w.index->subdomain_of(q);
    ASSERT_GE(sd, 0);
    const auto& sig = w.index->signature(sd);
    EXPECT_EQ(static_cast<int>(sig.size()),
              std::min(w.index->kappa(), 100));
    const auto& members = w.index->subdomain_queries(sd);
    EXPECT_NE(std::find(members.begin(), members.end(), q), members.end());
  }
}

TEST(SubdomainIndexTest, SignatureIsTheOrderedTopKappa) {
  TestWorld w = TestWorld::Linear(80, 40, 3, 2);
  std::vector<bool> mask = Mask(*w.data);
  for (int q = 0; q < 40; ++q) {
    const Vec& weights = w.index->aug_weights(q);
    auto top = TopKScan(w.view->rows(), &mask, weights, w.index->kappa());
    const auto& sig = w.index->signature(w.index->subdomain_of(q));
    ASSERT_EQ(sig.size(), top.size());
    for (size_t i = 0; i < sig.size(); ++i) EXPECT_EQ(sig[i], top[i].id);
  }
}

// Fact 1 corollary: queries in one subdomain share every top-k result with
// k <= max_k.
TEST(SubdomainIndexTest, SameSubdomainSameRanking) {
  TestWorld w = TestWorld::Linear(60, 80, 2, 3);
  std::vector<bool> mask = Mask(*w.data);
  for (int sd = 0; sd < static_cast<int>(w.index->num_subdomains()); ++sd) {
    // Find the queries of some subdomain via the accessor of each query.
  }
  for (int q1 = 0; q1 < 80; ++q1) {
    for (int q2 = q1 + 1; q2 < 80; ++q2) {
      if (w.index->subdomain_of(q1) != w.index->subdomain_of(q2)) continue;
      int k = std::min(w.queries->query(q1).k, w.queries->query(q2).k);
      auto t1 = TopKScan(w.view->rows(), &mask, w.index->aug_weights(q1), k);
      auto t2 = TopKScan(w.view->rows(), &mask, w.index->aug_weights(q2), k);
      for (int i = 0; i < k; ++i) {
        EXPECT_EQ(t1[static_cast<size_t>(i)].id, t2[static_cast<size_t>(i)].id);
      }
    }
  }
}

TEST(SubdomainIndexTest, ThresholdsMatchBruteForce) {
  TestWorld w = TestWorld::Linear(70, 50, 3, 4);
  std::vector<bool> mask = Mask(*w.data);
  for (int target : {0, 7, 33}) {
    std::vector<double> t = w.index->HitThresholds(target);
    for (int q = 0; q < 50; ++q) {
      double expected =
          KthBestScore(w.view->rows(), &mask, w.index->aug_weights(q),
                       w.queries->query(q).k, target);
      EXPECT_NEAR(t[static_cast<size_t>(q)], expected, 1e-12)
          << "target " << target << " query " << q;
    }
  }
}

TEST(SubdomainIndexTest, HitCountMatchesBruteForce) {
  TestWorld w = TestWorld::Linear(50, 60, 3, 5);
  std::vector<bool> mask = Mask(*w.data);
  for (int target = 0; target < 50; target += 7) {
    int expected = 0;
    for (int q = 0; q < 60; ++q) {
      double kth = KthBestScore(w.view->rows(), &mask,
                                w.index->aug_weights(q),
                                w.queries->query(q).k, target);
      double score = w.view->Score(target, w.index->aug_weights(q));
      if (HitByThreshold(score, kth)) ++expected;
    }
    EXPECT_EQ(w.index->HitCount(target), expected);
    EXPECT_EQ(static_cast<int>(w.index->HitSet(target).size()), expected);
  }
}

TEST(SubdomainIndexTest, SignatureMembersCoverAllSignatures) {
  TestWorld w = TestWorld::Linear(90, 40, 3, 6);
  std::vector<int> members = w.index->SignatureMembers();
  std::vector<bool> is_member(90, false);
  for (int id : members) is_member[static_cast<size_t>(id)] = true;
  for (int q = 0; q < 40; ++q) {
    for (int obj : w.index->signature(w.index->subdomain_of(q))) {
      EXPECT_TRUE(is_member[static_cast<size_t>(obj)]);
    }
  }
}

TEST(SubdomainIndexTest, RejectsWeightMismatch) {
  Dataset data = MakeIndependent(10, 3, 1);
  FunctionView view(&data, LinearForm::Identity(3));
  QuerySet queries(2);  // wrong arity
  EXPECT_FALSE(SubdomainIndex::Build(&view, &queries).ok());
  EXPECT_FALSE(SubdomainIndex::Build(nullptr, &queries).ok());
}

TEST(SubdomainIndexTest, ExplicitKappaMustExceedMaxK) {
  // A prefix of κ <= k ranks cannot answer a top-k query: KthScoreExcluding
  // would run out of signature and call every object a hit.
  TestWorld w = TestWorld::Linear(30, 20, 2, 9);
  const int max_k = w.queries->max_k();
  ASSERT_GE(max_k, 2);
  for (int kappa : {1, max_k - 1, max_k}) {
    SubdomainIndexOptions opts;
    opts.kappa = kappa;
    auto index = SubdomainIndex::Build(w.view.get(), w.queries.get(), opts);
    ASSERT_FALSE(index.ok()) << "kappa " << kappa;
    EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);
  }
  SubdomainIndexOptions opts;
  opts.kappa = max_k + 1;
  auto index = SubdomainIndex::Build(w.view.get(), w.queries.get(), opts);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->kappa(), max_k + 1);
  for (int i = 0; i < w.data->size(); ++i) {
    EXPECT_EQ(index->HitCount(i), w.index->HitCount(i)) << "object " << i;
  }
}

// ---- Algorithm 1 (BSP) equivalence ----

struct BspCase {
  int n;
  int m;
  int dim;
  uint64_t seed;
};

class BspSweep : public testing::TestWithParam<BspCase> {};

// With kappa = n the signature partition must coincide with the literal
// Algorithm 1 partition: both group queries by the full ranking order.
TEST_P(BspSweep, SignaturePartitionEqualsBspPartition) {
  const auto& p = GetParam();
  TestWorld w = TestWorld::Linear(p.n, p.m, p.dim, p.seed);
  // Rebuild with full-depth signatures.
  SubdomainIndexOptions opts;
  opts.kappa = p.n;
  auto full = SubdomainIndex::Build(w.view.get(), w.queries.get(), opts);
  ASSERT_TRUE(full.ok());

  std::vector<Vec> points;
  for (int q = 0; q < p.m; ++q) points.push_back(full->aug_weights(q));
  auto bsp = FindSubdomainsBsp(*w.view, points);
  auto sig = PartitionBySignature(*full);
  EXPECT_EQ(bsp, sig);
}

INSTANTIATE_TEST_SUITE_P(
    SmallWorlds, BspSweep,
    testing::Values(BspCase{8, 30, 2, 1}, BspCase{12, 40, 2, 2},
                    BspCase{10, 25, 3, 3}, BspCase{6, 50, 4, 4},
                    BspCase{15, 20, 2, 5}, BspCase{9, 35, 3, 6}));

// The truncated (kappa = max_k + 1) partition must be a coarsening of the
// full partition: queries in one full-order cell always share a signature.
TEST(SubdomainIndexTest, TruncatedPartitionCoarsensFullPartition) {
  TestWorld w = TestWorld::Linear(12, 60, 2, 7);
  SubdomainIndexOptions opts;
  opts.kappa = 12;
  auto full = SubdomainIndex::Build(w.view.get(), w.queries.get(), opts);
  ASSERT_TRUE(full.ok());
  for (int q1 = 0; q1 < 60; ++q1) {
    for (int q2 = q1 + 1; q2 < 60; ++q2) {
      if (full->subdomain_of(q1) == full->subdomain_of(q2)) {
        EXPECT_EQ(w.index->subdomain_of(q1), w.index->subdomain_of(q2));
      }
    }
  }
}

}  // namespace
}  // namespace iq
