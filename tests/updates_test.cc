#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.h"
#include "core/epoch.h"
#include "core/evaluator.h"
#include "tests/test_world.h"
#include "util/random.h"

namespace iq {
namespace {

// Compares the live-updated index with a from-scratch rebuild: the occupied
// partition, hit counts and thresholds must be identical.
void ExpectEquivalentToRebuild(const TestWorld& w) {
  auto rebuilt = SubdomainIndex::Build(w.view.get(), w.queries.get());
  ASSERT_TRUE(rebuilt.ok());
  for (int q = 0; q < w.queries->size(); ++q) {
    if (!w.queries->is_active(q)) continue;
    // Signatures (not subdomain ids, which are arbitrary) must match.
    const auto& live = w.index->signature(w.index->subdomain_of(q));
    const auto& fresh = rebuilt->signature(rebuilt->subdomain_of(q));
    EXPECT_EQ(live, fresh) << "query " << q;
  }
  for (int i = 0; i < w.data->size(); ++i) {
    if (!w.data->is_active(i)) continue;
    EXPECT_EQ(w.index->HitCount(i), rebuilt->HitCount(i)) << "object " << i;
  }
}

TEST(UpdatesTest, AddQueryMatchesRebuild) {
  TestWorld w = TestWorld::Linear(60, 40, 3, 51);
  Rng rng(52);
  for (int step = 0; step < 15; ++step) {
    TopKQuery q;
    q.k = 1 + static_cast<int>(rng.UniformInt(0, 4));
    q.weights = rng.UniformVector(3, 0.0, 1.0);
    auto id = w.queries->Add(std::move(q));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(w.index->OnQueryAdded(*id).ok());
  }
  EXPECT_EQ(w.index->rtree().size(), 55u);
  ExpectEquivalentToRebuild(w);
}

TEST(UpdatesTest, AddQueryWithLargerKMatchesBruteForce) {
  // κ is fixed at Build as max_k + 1. A query whose k reaches it grows κ to
  // k + 1 and regroups every active query, so the index still counts hits
  // exactly; with a κ-long signature it would call almost every object a
  // hit for the new query.
  const int n = 200;
  QueryGenOptions qopts;
  qopts.k_max = 5;
  auto engine = IqEngine::Create(MakeIndependent(n, 3, 71),
                                 LinearForm::Identity(3),
                                 MakeQueries(40, 3, 72, qopts));
  ASSERT_TRUE(engine.ok());
  const EpochHandle built = engine->Snapshot();
  const int kappa = built.index().kappa();
  const int cells = built.index().num_subdomains();
  ASSERT_LE(kappa, 6);

  TopKQuery wide;
  wide.k = 20;
  wide.weights = {0.3, 0.5, 0.2};
  ASSERT_TRUE(engine->AddQuery(wide).ok());
  EXPECT_TRUE(engine->CheckInvariants().ok());
  const EpochHandle now = engine->Snapshot();
  EXPECT_EQ(now.index().kappa(), 21);
  for (int target = 0; target < n; ++target) {
    BruteForceEvaluator brute(&now.view(), &now.queries(), target);
    EXPECT_EQ(engine->HitCount(target), brute.base_hits())
        << "target " << target;
  }

  // The regroup is Build's grouping: the same cells and signatures.
  auto rebuilt = SubdomainIndex::Build(&now.view(), &now.queries());
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_EQ(now.index().num_subdomains(), rebuilt->num_subdomains());
  for (int q = 0; q < now.queries().size(); ++q) {
    const int sd = now.index().subdomain_of(q);
    ASSERT_EQ(sd, rebuilt->subdomain_of(q)) << "query " << q;
    EXPECT_EQ(now.index().signature(sd), rebuilt->signature(sd));
  }
  // The build epoch kept its own cells.
  EXPECT_EQ(built.index().kappa(), kappa);
  EXPECT_EQ(built.index().num_subdomains(), cells);
  EXPECT_TRUE(built.index().CheckInvariants().ok());
}

TEST(UpdatesTest, KnnShortcutFiresForNearbyQueries) {
  TestWorld w = TestWorld::Linear(60, 80, 3, 53);
  // Duplicate existing query points: the kNN candidate must match.
  for (int q = 0; q < 10; ++q) {
    TopKQuery copy = w.queries->query(q);
    auto id = w.queries->Add(std::move(copy));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(w.index->OnQueryAdded(*id).ok());
  }
  EXPECT_GE(w.index->knn_shortcut_hits(), 8u);
  ExpectEquivalentToRebuild(w);
}

TEST(UpdatesTest, RemoveQueryMatchesRebuild) {
  TestWorld w = TestWorld::Linear(60, 40, 3, 54);
  Rng rng(55);
  for (int step = 0; step < 15; ++step) {
    int q = static_cast<int>(rng.UniformInt(0, 39));
    if (!w.queries->is_active(q)) continue;
    ASSERT_TRUE(w.queries->Remove(q).ok());
    ASSERT_TRUE(w.index->OnQueryRemoved(q).ok());
  }
  ExpectEquivalentToRebuild(w);
}

TEST(UpdatesTest, RemoveQueryTwiceFails) {
  TestWorld w = TestWorld::Linear(20, 10, 2, 56);
  ASSERT_TRUE(w.queries->Remove(3).ok());
  ASSERT_TRUE(w.index->OnQueryRemoved(3).ok());
  EXPECT_FALSE(w.index->OnQueryRemoved(3).ok());
  EXPECT_FALSE(w.queries->Remove(3).ok());
}

TEST(UpdatesTest, AddObjectMatchesRebuild) {
  TestWorld w = TestWorld::Linear(50, 40, 3, 57);
  Rng rng(58);
  for (int step = 0; step < 10; ++step) {
    // Half the inserts are strong objects that will enter many prefixes.
    Vec attrs = step % 2 == 0 ? rng.UniformVector(3, 0.0, 0.2)
                              : rng.UniformVector(3, 0.0, 1.0);
    int id = w.data->Add(std::move(attrs));
    w.view->AppendRow(id);
    ASSERT_TRUE(w.index->OnObjectAdded(id).ok());
  }
  ExpectEquivalentToRebuild(w);
}

TEST(UpdatesTest, RemoveObjectMatchesRebuild) {
  TestWorld w = TestWorld::Linear(50, 40, 3, 59);
  Rng rng(60);
  // Remove a few signature members (the interesting case) and some others.
  std::vector<int> members = w.index->SignatureMembers();
  for (int step = 0; step < 5 && step < static_cast<int>(members.size());
       ++step) {
    int id = members[static_cast<size_t>(step)];
    ASSERT_TRUE(w.data->Remove(id).ok());
    ASSERT_TRUE(w.index->OnObjectRemoved(id).ok());
  }
  for (int step = 0; step < 5; ++step) {
    int id = static_cast<int>(rng.UniformInt(0, 49));
    if (!w.data->is_active(id)) continue;
    ASSERT_TRUE(w.data->Remove(id).ok());
    ASSERT_TRUE(w.index->OnObjectRemoved(id).ok());
  }
  ExpectEquivalentToRebuild(w);
}

TEST(UpdatesTest, InterleavedChurnMatchesRebuild) {
  TestWorld w = TestWorld::Linear(40, 30, 2, 61);
  Rng rng(62);
  for (int step = 0; step < 40; ++step) {
    switch (rng.UniformInt(0, 3)) {
      case 0: {
        TopKQuery q;
        q.k = 1 + static_cast<int>(rng.UniformInt(0, 4));
        q.weights = rng.UniformVector(2, 0.0, 1.0);
        auto id = w.queries->Add(std::move(q));
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(w.index->OnQueryAdded(*id).ok());
        break;
      }
      case 1: {
        int q = static_cast<int>(
            rng.UniformInt(0, w.queries->size() - 1));
        if (w.queries->is_active(q) && w.queries->num_active() > 5) {
          ASSERT_TRUE(w.queries->Remove(q).ok());
          ASSERT_TRUE(w.index->OnQueryRemoved(q).ok());
        }
        break;
      }
      case 2: {
        int id = w.data->Add(rng.UniformVector(2, 0.0, 1.0));
        w.view->AppendRow(id);
        ASSERT_TRUE(w.index->OnObjectAdded(id).ok());
        break;
      }
      case 3: {
        int id = static_cast<int>(rng.UniformInt(0, w.data->size() - 1));
        if (w.data->is_active(id) && w.data->num_active() > 10) {
          ASSERT_TRUE(w.data->Remove(id).ok());
          ASSERT_TRUE(w.index->OnObjectRemoved(id).ok());
        }
        break;
      }
    }
  }
  ExpectEquivalentToRebuild(w);
}

TEST(UpdatesTest, ObjectChangedEqualsRemovePlusAdd) {
  TestWorld w = TestWorld::Linear(40, 30, 3, 63);
  Rng rng(64);
  for (int step = 0; step < 8; ++step) {
    int id = static_cast<int>(rng.UniformInt(0, 39));
    Vec attrs = rng.UniformVector(3, 0.0, 1.0);
    // The engine's protocol: deactivate, patch signatures, reactivate.
    ASSERT_TRUE(w.data->Remove(id).ok());
    ASSERT_TRUE(w.index->OnObjectRemoved(id).ok());
    ASSERT_TRUE(w.data->SetAttrsIncludingInactive(id, std::move(attrs)).ok());
    ASSERT_TRUE(w.data->Reactivate(id).ok());
    w.view->RefreshRow(id);
    ASSERT_TRUE(w.index->OnObjectAdded(id).ok());
  }
  ExpectEquivalentToRebuild(w);
}

}  // namespace
}  // namespace iq
