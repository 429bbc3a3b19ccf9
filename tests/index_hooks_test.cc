// Error-path coverage for the SubdomainIndex maintenance hooks (§4.3).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "obs/metrics.h"
#include "tests/test_world.h"
#include "util/random.h"

namespace iq {
namespace {

TEST(IndexHooksTest, OnQueryAddedRejectsBadIds) {
  TestWorld w = TestWorld::Linear(20, 10, 2, 211);
  // Not an active query id.
  EXPECT_FALSE(w.index->OnQueryAdded(99).ok());
  EXPECT_FALSE(w.index->OnQueryAdded(-1).ok());
  // Already indexed.
  auto st = w.index->OnQueryAdded(3);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
  // Tombstoned query cannot be (re-)indexed.
  ASSERT_TRUE(w.queries->Remove(4).ok());
  ASSERT_TRUE(w.index->OnQueryRemoved(4).ok());
  EXPECT_FALSE(w.index->OnQueryAdded(4).ok());
}

TEST(IndexHooksTest, OnObjectAddedRejectsBadIds) {
  TestWorld w = TestWorld::Linear(20, 10, 2, 212);
  EXPECT_FALSE(w.index->OnObjectAdded(99).ok());
  ASSERT_TRUE(w.data->Remove(5).ok());
  ASSERT_TRUE(w.index->OnObjectRemoved(5).ok());
  // Inactive object cannot be announced as added.
  EXPECT_FALSE(w.index->OnObjectAdded(5).ok());
}

TEST(IndexHooksTest, OnObjectRemovedOutOfRange) {
  TestWorld w = TestWorld::Linear(20, 10, 2, 213);
  EXPECT_FALSE(w.index->OnObjectRemoved(-1).ok());
  EXPECT_FALSE(w.index->OnObjectRemoved(999).ok());
}

TEST(IndexHooksTest, RemovingNonMemberObjectIsCheapNoOp) {
  TestWorld w = TestWorld::Linear(100, 20, 3, 214);
  // Find an object no signature references.
  std::vector<int> members = w.index->SignatureMembers();
  std::vector<bool> is_member(100, false);
  for (int id : members) is_member[static_cast<size_t>(id)] = true;
  int outsider = -1;
  for (int i = 0; i < 100; ++i) {
    if (!is_member[static_cast<size_t>(i)]) {
      outsider = i;
      break;
    }
  }
  ASSERT_GE(outsider, 0) << "all objects are signature members?";
  int subdomains_before = w.index->num_subdomains();
  Counter* visited =
      MetricsRegistry::Global().GetCounter("iq.index.cells_visited");
  const uint64_t visited_before = visited->value();
  const size_t reranks_before = w.index->maintenance_rerank_events();
  ASSERT_TRUE(w.data->Remove(outsider).ok());
  ASSERT_TRUE(w.index->OnObjectRemoved(outsider).ok());
  // Cheap: no cell scanned, no query re-ranked. Nothing regrouped.
  EXPECT_EQ(visited->value(), visited_before);
  EXPECT_EQ(w.index->maintenance_rerank_events(), reranks_before);
  EXPECT_EQ(w.index->num_subdomains(), subdomains_before);
  for (int q = 0; q < 20; ++q) {
    const auto& sig = w.index->signature(w.index->subdomain_of(q));
    EXPECT_EQ(std::count(sig.begin(), sig.end(), outsider), 0);
  }
}

/// The occupied cells whose signature holds `id`, and the queries in them,
/// counted from the index's public surface.
struct Holders {
  size_t cells = 0;
  size_t queries = 0;
};

std::set<int> OccupiedCells(const TestWorld& w) {
  std::set<int> cells;
  for (int q = 0; q < w.queries->size(); ++q) {
    if (w.queries->is_active(q)) cells.insert(w.index->subdomain_of(q));
  }
  return cells;
}

Holders CountHolders(const TestWorld& w, int id) {
  Holders h;
  for (int sd : OccupiedCells(w)) {
    const std::vector<int>& sig = w.index->signature(sd);
    if (std::find(sig.begin(), sig.end(), id) == sig.end()) continue;
    ++h.cells;
    h.queries += w.index->subdomain_queries(sd).size();
  }
  return h;
}

TEST(IndexHooksTest, ObjectRemovalReranksExactlyTheCellsThatHoldIt) {
  // Seeded churn on a standalone index. Objects are removed and re-added in
  // IqEngine::ApplyStrategy's order, and queries come and go, so released
  // cell ids return through the free list. Each removal must re-rank the
  // queries of exactly the occupied cells whose signature holds the object,
  // whether many cells hold it, one does or none does.
  TestWorld w = TestWorld::Linear(60, 40, 3, 216);
  Rng rng(217);
  Counter* visited =
      MetricsRegistry::Global().GetCounter("iq.index.cells_visited");
  QueryGenOptions qopts;
  qopts.k_max = w.index->kappa() - 1;  // no κ growth: no full regroup
  // Targets by how many cells hold them: many, one, none.
  auto kind_of = [](size_t cells) {
    return cells > 1 ? 0 : cells == 1 ? 1 : 2;
  };
  int removals_of_kind[3] = {0, 0, 0};
  std::set<int> released;
  bool reused = false;
  for (int step = 0; step < 150; ++step) {
    const std::set<int> cells_before = OccupiedCells(w);
    if (step % 5 == 4) {
      // Query churn: drop an active query or add a fresh one.
      if (rng.Bernoulli(0.5)) {
        std::vector<int> active;
        for (int q = 0; q < w.queries->size(); ++q) {
          if (w.queries->is_active(q)) active.push_back(q);
        }
        const int q = active[rng.NextUint64(active.size())];
        ASSERT_TRUE(w.queries->Remove(q).ok());
        ASSERT_TRUE(w.index->OnQueryRemoved(q).ok());
      } else {
        auto q = w.queries->Add(
            MakeQueries(1, 3, rng.NextUint64(), qopts).front());
        ASSERT_TRUE(q.ok());
        ASSERT_TRUE(w.index->OnQueryAdded(*q).ok());
      }
    } else {
      // Rotate the target's kind; any object when none is of that kind.
      std::vector<int> by_kind[3];
      for (int i = 0; i < w.data->size(); ++i) {
        by_kind[kind_of(CountHolders(w, i).cells)].push_back(i);
      }
      const int id =
          by_kind[step % 3].empty()
              ? static_cast<int>(rng.NextUint64(w.data->size()))
              : by_kind[step % 3][rng.NextUint64(by_kind[step % 3].size())];
      const Holders holders = CountHolders(w, id);
      ++removals_of_kind[kind_of(holders.cells)];
      const size_t cells_counter = w.index->maintenance_affected_subdomains();
      const size_t reranks = w.index->maintenance_rerank_events();
      const uint64_t visited_before = visited->value();
      ASSERT_TRUE(w.data->Remove(id).ok());
      ASSERT_TRUE(w.index->OnObjectRemoved(id).ok());
      EXPECT_EQ(w.index->maintenance_affected_subdomains() - cells_counter,
                holders.cells)
          << "step " << step << ", object " << id;
      EXPECT_EQ(w.index->maintenance_rerank_events() - reranks,
                holders.queries)
          << "step " << step << ", object " << id;
      if (holders.cells == 0) {
        EXPECT_EQ(visited->value(), visited_before);
      }
      ASSERT_TRUE(w.index->CheckInvariants().ok()) << "step " << step;
      Vec moved = w.data->attrs(id);
      for (double& x : moved) {
        x = std::clamp(x + rng.Gaussian(0.0, 0.2), 0.0, 1.0);
      }
      ASSERT_TRUE(w.data->SetAttrsIncludingInactive(id, moved).ok());
      ASSERT_TRUE(w.data->Reactivate(id).ok());
      w.view->RefreshRow(id);
      ASSERT_TRUE(w.index->OnObjectAdded(id).ok());
    }
    const Status st = w.index->CheckInvariants();
    ASSERT_TRUE(st.ok()) << "step " << step << ": " << st.ToString();
    const std::set<int> cells_after = OccupiedCells(w);
    for (int sd : cells_after) {
      if (cells_before.count(sd) == 0 && released.count(sd) > 0) reused = true;
    }
    for (int sd : cells_before) {
      if (cells_after.count(sd) == 0) released.insert(sd);
    }
  }
  EXPECT_GT(removals_of_kind[0], 0) << "no object held by many cells";
  EXPECT_GT(removals_of_kind[1], 0) << "no object held by one cell";
  EXPECT_GT(removals_of_kind[2], 0) << "no object held by no cell";
  EXPECT_TRUE(reused) << "no released cell id came back";
}

TEST(IndexHooksTest, MemoryGrowsWithQueries) {
  TestWorld small = TestWorld::Linear(50, 10, 2, 215);
  TestWorld large = TestWorld::Linear(50, 200, 2, 215);
  EXPECT_GT(large.index->MemoryBytes(), small.index->MemoryBytes());
}

}  // namespace
}  // namespace iq
