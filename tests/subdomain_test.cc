#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

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
      EXPECT_EQ(t[static_cast<size_t>(q)], expected)
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
  // A prefix of κ <= k ranks cannot answer a top-k query: HitThresholds
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

// ---- The stored k-th entries, against brute force through every hook ----

/// A world whose rows and queries the test draws itself.
struct EntryWorld {
  const char* name;
  int distinct;  // distinct rows
  int copies;    // copies of each row: exact ties at every rank
  int m;
  int dim;
  int k_max;     // k from [1, k_max]; k_max >= distinct * copies gives
                 // signatures shorter than k
  double w_lo;   // weights from [w_lo, 1]; w_lo < 0 mixes signs
  uint64_t seed;
};

TestWorld MakeEntryWorld(const EntryWorld& p) {
  Rng rng(p.seed);
  TestWorld w;
  w.data = std::make_unique<Dataset>(p.dim);
  std::vector<Vec> rows;
  for (int i = 0; i < p.distinct; ++i) {
    rows.push_back(rng.UniformVector(p.dim, 0.0, 1.0));
  }
  for (int c = 0; c < p.copies; ++c) {
    for (const Vec& row : rows) w.data->Add(row);
  }
  w.queries = std::make_unique<QuerySet>(p.dim);
  for (int j = 0; j < p.m; ++j) {
    TopKQuery q;
    q.k = 1 + static_cast<int>(rng.UniformInt(0, p.k_max - 1));
    q.weights = rng.UniformVector(p.dim, p.w_lo, 1.0);
    IQ_CHECK(w.queries->Add(std::move(q)).ok());
  }
  // A zero query: every object ties with every other.
  IQ_CHECK(w.queries->Add({2, Vec(static_cast<size_t>(p.dim), 0.0)}).ok());
  w.view = std::make_unique<FunctionView>(w.data.get(),
                                          LinearForm::Identity(p.dim));
  w.RebuildIndex();
  return w;
}

/// For every object id, tombstoned ones included, and the ids just outside
/// the dataset: HitThresholds equals KthBestScore bit for bit (NaN on
/// inactive query slots), and HitSet and HitCount equal a brute-force hit
/// test (an id outside the dataset hits nothing).
void ExpectEntriesMatchBruteForce(const TestWorld& w, const std::string& step) {
  SCOPED_TRACE(step);
  const Status st = w.index->CheckInvariants();
  ASSERT_TRUE(st.ok()) << st.ToString();
  const std::vector<bool> mask = Mask(*w.data);
  for (int target = -1; target <= w.data->size(); ++target) {
    const bool in_range = target >= 0 && target < w.data->size();
    const std::vector<double> t = w.index->HitThresholds(target);
    ASSERT_EQ(t.size(), static_cast<size_t>(w.queries->size()));
    std::vector<int> hits;
    for (int q = 0; q < w.queries->size(); ++q) {
      const double got = t[static_cast<size_t>(q)];
      if (!w.queries->is_active(q)) {
        EXPECT_TRUE(std::isnan(got)) << "target " << target << " query " << q;
        continue;
      }
      const Vec& weights = w.index->aug_weights(q);
      const double kth = KthBestScore(w.view->rows(), &mask, weights,
                                      w.queries->query(q).k, target);
      EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(kth))
          << "target " << target << " query " << q << ": " << got << " vs "
          << kth;
      if (in_range && HitByThreshold(w.view->Score(target, weights), kth)) {
        hits.push_back(q);
      }
    }
    EXPECT_EQ(w.index->HitSet(target), hits) << "target " << target;
    EXPECT_EQ(w.index->HitCount(target), static_cast<int>(hits.size()))
        << "target " << target;
  }
}

class KthEntryTest : public testing::TestWithParam<EntryWorld> {};

TEST_P(KthEntryTest, MatchBruteForceThroughEveryHook) {
  const EntryWorld& p = GetParam();
  TestWorld w = MakeEntryWorld(p);
  Rng rng(p.seed + 1000);
  ExpectEntriesMatchBruteForce(w, "build");

  // OnObjectAdded: a copy of query 0's top object, which ties with it
  // wherever it ranks, then a fresh row.
  const int top0 = w.index->signature(w.index->subdomain_of(0)).front();
  for (Vec row : {w.data->attrs(top0), rng.UniformVector(p.dim, 0.0, 1.0)}) {
    const int id = w.data->Add(std::move(row));
    w.view->AppendRow(id);
    ASSERT_TRUE(w.index->OnObjectAdded(id).ok());
    ExpectEntriesMatchBruteForce(w, "OnObjectAdded " + std::to_string(id));
  }

  // OnObjectRemoved: query 1's k-th entry, so its cell re-ranks; it stays
  // tombstoned, a target that no signature holds.
  const std::vector<int>& sig1 = w.index->signature(w.index->subdomain_of(1));
  const size_t k1 = static_cast<size_t>(w.queries->query(1).k);
  const int removed = sig1[std::min(k1, sig1.size()) - 1];
  ASSERT_TRUE(w.data->Remove(removed).ok());
  ASSERT_TRUE(w.index->OnObjectRemoved(removed).ok());
  ExpectEntriesMatchBruteForce(w, "OnObjectRemoved " +
                                      std::to_string(removed));

  // IqEngine::ApplyStrategy's order on two signature members of query 2:
  // remove, new values, reactivate, re-add. The first moves by a step, the
  // second becomes a copy of query 0's top object.
  for (size_t rank : {0, 1}) {
    const std::vector<int>& sig2 =
        w.index->signature(w.index->subdomain_of(2));
    const int id = sig2[std::min(rank, sig2.size() - 1)];
    const Vec step(static_cast<size_t>(p.dim), 0.05);
    Vec attrs = rank == 0 ? Add(w.data->attrs(id), step)
                          : w.data->attrs(w.index->signature(
                                w.index->subdomain_of(0)).front());
    ASSERT_TRUE(w.data->Remove(id).ok());
    ASSERT_TRUE(w.index->OnObjectRemoved(id).ok());
    ASSERT_TRUE(w.data->SetAttrsIncludingInactive(id, std::move(attrs)).ok());
    ASSERT_TRUE(w.data->Reactivate(id).ok());
    w.view->RefreshRow(id);
    ASSERT_TRUE(w.index->OnObjectAdded(id).ok());
    ExpectEntriesMatchBruteForce(w, "ApplyStrategy order " +
                                        std::to_string(id));
  }

  // OnQueryAdded through the kNN shortcut: a copy of query 3 lands in its
  // cell.
  const size_t shortcuts = w.index->knn_shortcut_hits();
  auto copy = w.queries->Add(w.queries->query(3));
  ASSERT_TRUE(copy.ok());
  ASSERT_TRUE(w.index->OnQueryAdded(*copy).ok());
  EXPECT_EQ(w.index->knn_shortcut_hits(), shortcuts + 1);
  ExpectEntriesMatchBruteForce(w, "OnQueryAdded, kNN shortcut");

  // OnQueryAdded with k = κ: κ grows and every query regroups.
  const int kappa = w.index->kappa();
  auto deep = w.queries->Add({kappa, rng.UniformVector(p.dim, p.w_lo, 1.0)});
  ASSERT_TRUE(deep.ok());
  ASSERT_TRUE(w.index->OnQueryAdded(*deep).ok());
  EXPECT_EQ(w.index->kappa(), kappa + 1);
  ExpectEntriesMatchBruteForce(w, "OnQueryAdded, kappa growth");

  // OnQueryRemoved, then one more OnQueryAdded after it.
  ASSERT_TRUE(w.queries->Remove(3).ok());
  ASSERT_TRUE(w.index->OnQueryRemoved(3).ok());
  ExpectEntriesMatchBruteForce(w, "OnQueryRemoved");
  auto last = w.queries->Add({1, rng.UniformVector(p.dim, p.w_lo, 1.0)});
  ASSERT_TRUE(last.ok());
  ASSERT_TRUE(w.index->OnQueryAdded(*last).ok());
  ExpectEntriesMatchBruteForce(w, "OnQueryAdded");
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, KthEntryTest,
    testing::Values(EntryWorld{"duplicated_rows", 12, 3, 40, 3, 6, 0.0, 1},
                    EntryWorld{"mixed_sign", 20, 2, 40, 3, 5, -1.0, 2},
                    EntryWorld{"k_at_least_d", 3, 2, 20, 2, 9, -0.5, 3},
                    EntryWorld{"one_dimension", 6, 2, 24, 1, 4, -1.0, 4}),
    [](const testing::TestParamInfo<EntryWorld>& info) {
      return std::string(info.param.name);
    });

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
