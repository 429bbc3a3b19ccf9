// Differential kernel-equivalence suite (DESIGN.md §13).
//
// The SoA ScoreKernel promises BIT-IDENTICAL results to the scalar
// reference paths — not approximately equal: the per-row accumulation runs
// in the same slot order as Dot(), the top-κ comparator is TopKScan's, the
// hit predicate is HitByThreshold. These tests enforce the promise with a
// randomized differential sweep across dims 2-10: raw scores, top-κ
// signatures and hit counts diffed against the scalar reference loops;
// after every §4.3 maintenance hook, the block-patched kernels diffed
// byte for byte against a from-scratch pack and the subdomain structure
// against a from-scratch Build; plus the same searches across pools of
// 0/1/2/8 threads. CI runs the suite in Release and under ASan/UBSan and
// TSan — the assertions are exact equality in every build.
//
// The FP-order contract tests at the bottom pin down *why* exactness is
// required: with catastrophic-cancellation rows a reassociated sum gives a
// different hit answer, and with exact score ties the (score, id)
// comparator decides the signature — score comparisons, not raw float
// sums, define equality across code paths, and those comparisons only
// agree because the sums are bit-identical.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/evaluator.h"
#include "core/function_view.h"
#include "core/iq_algorithms.h"
#include "core/score_kernel.h"
#include "core/subdomain_index.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "tests/test_world.h"
#include "topk/topk.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace iq {
namespace {

// ---------------------------------------------------------------------------
// Raw kernel vs scalar reference: 600 lightweight random worlds
// ---------------------------------------------------------------------------

TEST(KernelEquivTest, KernelsBitIdenticalToScalarOnRandomWorlds) {
  Rng rng(20260808);
  for (int trial = 0; trial < 600; ++trial) {
    const int dim = 2 + trial % 9;  // dims 2..10
    const int n = static_cast<int>(rng.UniformInt(4, 48));
    const uint64_t seed = rng.NextUint64(1'000'000);
    SCOPED_TRACE(testing::Message()
                 << "trial " << trial << " n=" << n << " dim=" << dim);

    Dataset data = MakeIndependent(n, dim, seed);
    // Random tombstones so the kernel's dense packing is exercised.
    for (int i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.2) && data.num_active() > 2) {
        ASSERT_TRUE(data.Remove(i).ok());
      }
    }
    FunctionView view(&data, LinearForm::Identity(dim));
    const int slots = view.form().num_slots();
    std::vector<bool> mask(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) mask[static_cast<size_t>(i)] = data.is_active(i);

    ScoreKernel kernel = ScoreKernel::Build(view.rows(), &mask, slots);
    ASSERT_EQ(kernel.num_rows(), data.num_active());

    const Vec w = rng.UniformVector(slots, -2.0, 2.0);

    // (a) ScoreAll == Dot, bit for bit.
    std::vector<double> scores;
    kernel.ScoreAll(w, &scores);
    ASSERT_EQ(static_cast<int>(scores.size()), kernel.num_rows());
    const std::vector<int> ids = kernel.ids();
    for (int d = 0; d < kernel.num_rows(); ++d) {
      const int id = ids[static_cast<size_t>(d)];
      EXPECT_EQ(scores[static_cast<size_t>(d)],
                Dot(view.rows()[static_cast<size_t>(id)], w))
          << "dense row " << d << " (id " << id << ")";
    }

    // (b) TopKappaSignatures == TopKScan's id sequence, every κ.
    for (int kappa : {1, 2, kernel.num_rows(), kernel.num_rows() + 3}) {
      std::vector<int> sig = kernel.TopKappaSignatures({&w}, kappa)[0];
      std::vector<ScoredObject> top = TopKScan(view.rows(), &mask, w, kappa);
      ASSERT_EQ(sig.size(), top.size()) << "kappa " << kappa;
      for (size_t i = 0; i < sig.size(); ++i) {
        EXPECT_EQ(sig[i], top[i].id) << "kappa " << kappa << " rank " << i;
      }
    }

    // (c) CountHits == the scalar HitByThreshold loop, including NaN
    // thresholds (never hit) and exact-tie thresholds (strict <).
    std::vector<double> thresholds(static_cast<size_t>(kernel.num_rows()));
    int expected_hits = 0;
    for (int d = 0; d < kernel.num_rows(); ++d) {
      const double pick = rng.UniformDouble();
      double t;
      if (pick < 0.1) {
        t = std::numeric_limits<double>::quiet_NaN();
      } else if (pick < 0.3) {
        t = scores[static_cast<size_t>(d)];  // exact tie: must NOT hit
      } else {
        t = rng.UniformDouble(-3.0, 3.0);
      }
      thresholds[static_cast<size_t>(d)] = t;
      if (HitByThreshold(scores[static_cast<size_t>(d)], t)) ++expected_hits;
    }
    EXPECT_EQ(kernel.CountHits(w, thresholds), expected_hits);
  }
}

TEST(KernelEquivTest, EmptyAndDegenerateKernels) {
  Dataset data = MakeIndependent(3, 2, 7);
  FunctionView view(&data, LinearForm::Identity(2));
  std::vector<bool> none(3, false);
  ScoreKernel empty =
      ScoreKernel::Build(view.rows(), &none, view.form().num_slots());
  EXPECT_TRUE(empty.empty());
  std::vector<double> scores(5, 99.0);
  const Vec w = {1.0, 1.0, 1.0};
  empty.ScoreAll(w, &scores);
  EXPECT_TRUE(scores.empty());
  const std::vector<std::vector<int>> sigs =
      empty.TopKappaSignatures({&w, &w}, 4);
  ASSERT_EQ(sigs.size(), 2u);
  EXPECT_TRUE(sigs[0].empty());
  EXPECT_TRUE(sigs[1].empty());
  EXPECT_TRUE(empty.TopKappaSignatures({}, 4).empty());
  EXPECT_EQ(empty.CountHits(w, {}), 0);

  // Null active mask = every row.
  ScoreKernel all =
      ScoreKernel::Build(view.rows(), nullptr, view.form().num_slots());
  EXPECT_EQ(all.num_rows(), 3);
  EXPECT_GT(all.MemoryBytes(), sizeof(ScoreKernel));
}

// ---------------------------------------------------------------------------
// Tiled top-κ selection: many blocks, tiles of 1-17 queries, exact ties
// ---------------------------------------------------------------------------

TEST(KernelEquivTest, TiledSelectionMatchesTopKScanAcrossBlocksAndTies) {
  Rng rng(20261017);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(520, 1100));
    const int slots = 2 + trial % 3;
    const int tile = 1 + trial % 17;
    // Odd trials draw rows from a 5-point grid and weights from a grid of
    // halves, so every score is exact and ties are everywhere: at the κ-th
    // position, within blocks and across block boundaries.
    const bool grid = trial % 2 == 1;
    auto grid_vector = [&rng, slots](double lo, int steps, double step) {
      Vec v(static_cast<size_t>(slots));
      for (double& x : v) {
        x = lo + step * static_cast<double>(rng.UniformInt(0, steps));
      }
      return v;
    };
    SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n
                                    << " tile=" << tile << " grid=" << grid);

    std::vector<Vec> rows(static_cast<size_t>(n));
    for (Vec& row : rows) {
      row = grid ? grid_vector(0.0, 4, 0.25)
                 : rng.UniformVector(slots, 0.0, 1.0);
    }
    std::vector<bool> mask(static_cast<size_t>(n));
    for (size_t i = 0; i < mask.size(); ++i) mask[i] = !rng.Bernoulli(0.2);
    // Three exact duplicates: the last row of block 0, the first of block 1
    // and one in a later block. The zero row is the unique best under the
    // positive first query of each tile, so all three tie at rank 1 there
    // and only the id decides which of them a small κ keeps.
    const int block = static_cast<int>(kCowChunkRows);
    const int far = static_cast<int>(rng.UniformInt(2 * block, n - 1));
    for (int id : {block - 1, block, far}) {
      rows[static_cast<size_t>(id)] = Vec(static_cast<size_t>(slots), 0.0);
      mask[static_cast<size_t>(id)] = true;
    }
    ScoreKernel kernel = ScoreKernel::Build(rows, &mask, slots);
    ASSERT_GE(kernel.blocks().size(), 3u);
    const int n_active = kernel.num_rows();

    std::vector<Vec> ws(static_cast<size_t>(tile));
    for (size_t t = 0; t < ws.size(); ++t) {
      if (t == 0) {
        ws[t] = rng.UniformVector(slots, 0.25, 2.0);
      } else {
        ws[t] = grid ? grid_vector(-2.0, 8, 0.5)
                     : rng.UniformVector(slots, -2.0, 2.0);
      }
    }
    std::vector<const Vec*> tile_ws;
    for (const Vec& w : ws) tile_ws.push_back(&w);

    for (int kappa : {0, 1, 2, 51, n_active, n_active + 3}) {
      const std::vector<std::vector<int>> sigs =
          kernel.TopKappaSignatures(tile_ws, kappa);
      ASSERT_EQ(sigs.size(), ws.size()) << "kappa " << kappa;
      for (size_t t = 0; t < ws.size(); ++t) {
        const std::vector<ScoredObject> top =
            TopKScan(rows, &mask, ws[t], kappa);
        std::vector<int> expected;
        for (const ScoredObject& so : top) expected.push_back(so.id);
        EXPECT_EQ(sigs[t], expected) << "kappa " << kappa << " query " << t;
      }
      if (kappa == 2 && !grid) {
        // The duplicates tie for rank 1; the strict `<` keeps the far copy
        // out once the heap holds the two lower ids.
        EXPECT_EQ(sigs[0], (std::vector<int>{block - 1, block}));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel lifecycle: hook-patched blocks vs a from-scratch pack
// ---------------------------------------------------------------------------

/// Same blocks, same ids, bit-identical slot values, same MemoryBytes.
void ExpectSameKernel(const ScoreKernel& patched, const ScoreKernel& packed,
                      const char* what) {
  ASSERT_EQ(patched.num_rows(), packed.num_rows()) << what;
  ASSERT_EQ(patched.num_slots(), packed.num_slots()) << what;
  ASSERT_EQ(patched.blocks().size(), packed.blocks().size()) << what;
  for (size_t b = 0; b < packed.blocks().size(); ++b) {
    const ScoreKernel::Block& x = *patched.blocks()[b];
    const ScoreKernel::Block& y = *packed.blocks()[b];
    ASSERT_EQ(x.ids, y.ids) << what << " block " << b;
    ASSERT_EQ(x.data.size(), y.data.size()) << what << " block " << b;
    EXPECT_EQ(std::memcmp(x.data.data(), y.data.data(),
                          x.data.size() * sizeof(double)),
              0)
        << what << " block " << b;
  }
  EXPECT_EQ(patched.MemoryBytes(), packed.MemoryBytes()) << what;
}

/// The index's hook-patched kernels equal RebuildScoreKernels() over the
/// same owners (run on a CloneCow, so the patched index stays as it is).
void ExpectKernelsMatchRebuild(const TestWorld& w) {
  SubdomainIndex oracle =
      w.index->CloneCow(w.view.get(), w.queries.get(), w.index->epoch());
  oracle.RebuildScoreKernels();
  ExpectSameKernel(w.index->object_kernel(), oracle.object_kernel(),
                   "object kernel");
  ExpectSameKernel(w.index->query_kernel(), oracle.query_kernel(),
                   "query kernel");
  EXPECT_EQ(w.index->MemoryBytes(), oracle.MemoryBytes());
}

int PickActiveObject(const Dataset& data, Rng& rng) {
  for (;;) {
    const int id = static_cast<int>(rng.UniformInt(0, data.size() - 1));
    if (data.is_active(id)) return id;
  }
}

/// One seeded maintenance step through the §4.3 hooks: object remove,
/// re-add of a removed object with new attributes, object append, query
/// add or query remove.
void RandomHook(TestWorld& w, int dim, int max_k, Rng& rng) {
  const int roll = static_cast<int>(rng.UniformInt(0, 99));
  std::vector<int> removed;
  for (int i = 0; i < w.data->size(); ++i) {
    if (!w.data->is_active(i)) removed.push_back(i);
  }
  if (roll < 30 && w.data->num_active() > max_k + 2) {
    const int id = PickActiveObject(*w.data, rng);
    ASSERT_TRUE(w.data->Remove(id).ok());
    ASSERT_TRUE(w.index->OnObjectRemoved(id).ok());
  } else if (roll < 50 && !removed.empty()) {
    const int id = removed[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int>(removed.size()) - 1))];
    ASSERT_TRUE(w.data
                    ->SetAttrsIncludingInactive(
                        id, rng.UniformVector(dim, 0.0, 1.0))
                    .ok());
    ASSERT_TRUE(w.data->Reactivate(id).ok());
    w.view->RefreshRow(id);
    ASSERT_TRUE(w.index->OnObjectAdded(id).ok());
  } else if (roll < 70) {
    const int id = w.data->Add(rng.UniformVector(dim, 0.0, 1.0));
    w.view->AppendRow(id);
    ASSERT_TRUE(w.index->OnObjectAdded(id).ok());
  } else if (roll < 85 || w.queries->num_active() <= 2) {
    TopKQuery q;
    q.k = 1 + static_cast<int>(rng.UniformInt(0, max_k - 1));
    q.weights = rng.UniformVector(dim, 0.0, 1.0);
    auto id = w.queries->Add(std::move(q));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(w.index->OnQueryAdded(*id).ok());
  } else {
    int q;
    do {
      q = static_cast<int>(rng.UniformInt(0, w.queries->size() - 1));
    } while (!w.queries->is_active(q));
    ASSERT_TRUE(w.queries->Remove(q).ok());
    ASSERT_TRUE(w.index->OnQueryRemoved(q).ok());
  }
}

/// World sizes for the lifecycle tests: mostly one block, and every fifth
/// world just under a block boundary so appends open a new block and the
/// patched blocks sit behind untouched ones.
std::pair<int, int> LifecycleSizes(int trial, Rng& rng) {
  if (trial % 5 == 0) {
    const int blocks = 1 + trial / 5 % 2;
    return {blocks * 256 - static_cast<int>(rng.UniformInt(1, 4)),
            256 - static_cast<int>(rng.UniformInt(1, 3))};
  }
  return {static_cast<int>(rng.UniformInt(10, 40)),
          static_cast<int>(rng.UniformInt(6, 24))};
}

// After every hook the patched kernels equal a from-scratch pack, and the
// evaluator's kernel count equals the scalar Dot/HitByThreshold loop — the
// thresholds themselves checked against a full KthBestScore scan.
TEST(KernelEquivTest, EseKernelAndScalarPathsIdenticalOn200Worlds) {
  Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    const int dim = 2 + trial % 9;
    const auto [n, m] = LifecycleSizes(trial, rng);
    const uint64_t seed = rng.NextUint64(1'000'000);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n
                                    << " m=" << m << " dim=" << dim);
    TestWorld w = TestWorld::Linear(n, m, dim, seed);
    const int max_k = w.queries->max_k();
    ExpectKernelsMatchRebuild(w);

    for (int step = 0; step < 6; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      RandomHook(w, dim, max_k, rng);
      if (HasFatalFailure()) return;
      ExpectKernelsMatchRebuild(w);
      if (HasFatalFailure()) return;

      const int target = PickActiveObject(*w.data, rng);
      EseEvaluator ese(w.index.get(), target);
      std::vector<bool> mask(static_cast<size_t>(w.data->size()));
      for (int i = 0; i < w.data->size(); ++i) {
        mask[static_cast<size_t>(i)] = w.data->is_active(i);
      }
      for (int q = 0; q < w.queries->size(); ++q) {
        if (!w.queries->is_active(q)) continue;
        EXPECT_EQ(ese.thresholds()[static_cast<size_t>(q)],
                  KthBestScore(w.view->rows(), &mask, w.index->aug_weights(q),
                               w.queries->query(q).k, target))
            << "query " << q;
      }
      // Each call re-tests the queries within reach of the step (the prefix
      // rule) and reuses the rest: rescored + reused is every active query.
      size_t prefixes = 0;
      for (int probe = 0; probe < 4; ++probe) {
        const Vec s = rng.UniformVector(dim, -0.2, 0.2);
        const Vec c = w.view->CoefficientsFor(Add(w.data->attrs(target), s));
        EXPECT_EQ(ese.HitsForCoeffs(c), ScalarHits(*w.index, ese.thresholds(), c))
            << "probe " << probe;
        prefixes += EseReachPrefix(*w.index, ese.thresholds(), target, c);
      }
      EXPECT_EQ(ese.calls(), 4u);
      EXPECT_EQ(ese.queries_rescored() + ese.queries_reused(),
                4u * static_cast<size_t>(w.queries->num_active()));
      EXPECT_EQ(ese.queries_rescored(), prefixes);

      // The geometric wedge path (always scalar) agrees with the scan.
      const Vec s = rng.UniformVector(dim, -0.1, 0.1);
      const Vec c = w.view->CoefficientsFor(Add(w.data->attrs(target), s));
      EseEvaluator wedge(w.index.get(), target);
      EXPECT_EQ(wedge.HitsViaWedges(c), ese.HitsForCoeffs(c));
    }
  }
}

TEST(KernelEquivTest, SignatureRankingIdenticalAcrossLifecycle) {
  // Every maintenance re-rank scores against the hook-patched object
  // kernel; after a seeded hook sequence the subdomain structure must be
  // indistinguishable from a from-scratch Build over the same owners.
  Rng rng(5678);
  for (int trial = 0; trial < 50; ++trial) {
    const int dim = 2 + trial % 9;
    const auto [n, m] = LifecycleSizes(trial, rng);
    const uint64_t seed = rng.NextUint64(1'000'000);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n
                                    << " m=" << m << " dim=" << dim);
    TestWorld w = TestWorld::Linear(n, m, dim, seed);
    const int max_k = w.queries->max_k();
    for (int step = 0; step < 12; ++step) {
      RandomHook(w, dim, max_k, rng);
      if (HasFatalFailure()) return;
    }
    ExpectKernelsMatchRebuild(w);
    EXPECT_TRUE(w.index->CheckInvariants().ok());

    auto rebuilt = SubdomainIndex::Build(w.view.get(), w.queries.get(),
                                         {.kappa = w.index->kappa()});
    ASSERT_TRUE(rebuilt.ok());
    ExpectSameKernel(w.index->object_kernel(), rebuilt->object_kernel(),
                     "object kernel vs Build");
    ExpectSameKernel(w.index->query_kernel(), rebuilt->query_kernel(),
                     "query kernel vs Build");
    for (int q = 0; q < w.queries->size(); ++q) {
      const int sd_p = w.index->subdomain_of(q);
      const int sd_r = rebuilt->subdomain_of(q);
      ASSERT_EQ(sd_p >= 0, sd_r >= 0) << "query " << q;
      if (sd_p >= 0) {
        EXPECT_EQ(w.index->signature(sd_p), rebuilt->signature(sd_r))
            << "query " << q;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Full searches: kernel-backed ESE across thread counts 0/1/2/8
// ---------------------------------------------------------------------------

void ExpectIdenticalIqResults(const IqResult& a, const IqResult& b) {
  ASSERT_EQ(a.strategy.size(), b.strategy.size());
  for (size_t j = 0; j < a.strategy.size(); ++j) {
    EXPECT_EQ(a.strategy[j], b.strategy[j]) << "component " << j;
  }
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.hits_after, b.hits_after);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.breakdown.candidates_evaluated, b.breakdown.candidates_evaluated);
  EXPECT_EQ(a.breakdown.queries_rescored, b.breakdown.queries_rescored);
  EXPECT_EQ(a.breakdown.queries_reused, b.breakdown.queries_reused);
}

TEST(KernelEquivTest, SearchesOverKernelIdenticalAcrossThreadCounts) {
  Rng rng(9999);
  ThreadPool pool1(1), pool2(2), pool8(8);
  ThreadPool* pools[] = {nullptr, &pool1, &pool2, &pool8};
  for (int trial = 0; trial < 9; ++trial) {
    const int dim = 2 + trial % 9;
    const int n = static_cast<int>(rng.UniformInt(16, 48));
    const int m = static_cast<int>(rng.UniformInt(8, 24));
    const uint64_t seed = rng.NextUint64(1'000'000);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n
                                    << " m=" << m << " dim=" << dim);
    TestWorld w = TestWorld::Linear(n, m, dim, seed);
    ASSERT_FALSE(w.index->query_kernel().empty());
    const int target = static_cast<int>(rng.UniformInt(0, n - 1));
    const int tau = static_cast<int>(rng.UniformInt(1, m / 2 + 1));
    auto ctx = IqContext::FromIndex(w.index.get(), target);
    ASSERT_TRUE(ctx.ok());

    std::vector<IqResult> results;
    for (ThreadPool* pool : pools) {
      IqOptions options;
      options.pool = pool;
      EseEvaluator ese(w.index.get(), target);
      auto mc = MinCostIq(*ctx, &ese, tau, options);
      ASSERT_TRUE(mc.ok()) << mc.status().ToString();
      results.push_back(*std::move(mc));
    }
    for (size_t i = 1; i < results.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "variant " << i);
      ExpectIdenticalIqResults(results[0], results[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// FP-order contract
// ---------------------------------------------------------------------------

TEST(KernelEquivTest, FpOrderContractCatastrophicCancellation) {
  // Row engineered so the sum's value depends on evaluation order:
  //   1e16 + 1.0 - 1e16  ==  0.0   in index order (1.0 is absorbed),
  //   (1e16 - 1e16) + 1.0 ==  1.0  reassociated.
  // The kernel must produce the index-order answer, and the hit decision at
  // threshold 0.5 flips if it ever reassociates — this is the concrete
  // failure the "no horizontal reduction" rule in score_kernel.h prevents.
  std::vector<Vec> rows = {{1e16, 1.0, -1e16}, {0.25, 0.25, 0.25}};
  const Vec w = {1.0, 1.0, 1.0};
  ScoreKernel kernel = ScoreKernel::Build(rows, nullptr, 3);
  std::vector<double> scores;
  kernel.ScoreAll(w, &scores);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_EQ(scores[0], Dot(rows[0], w));
  EXPECT_EQ(scores[0], 0.0);  // the index-order sum, not the reassociated 1.0
  EXPECT_EQ(scores[1], 0.75);
  // Same comparison outcome as the scalar predicate.
  EXPECT_EQ(kernel.CountHits(w, {0.5, 0.5}), 1);
  EXPECT_EQ(HitByThreshold(Dot(rows[0], w), 0.5), true);
  EXPECT_EQ(HitByThreshold(Dot(rows[1], w), 0.5), false);
}

TEST(KernelEquivTest, FpOrderContractExactTiesBreakById) {
  // Duplicate rows score exactly equal; the signature order is then decided
  // purely by the (score, id) comparator. Kernel and scalar scan must agree
  // on the full order — equality across paths is defined by these
  // comparisons, which is only safe because the scores are bit-identical.
  // All values are exact binary fractions, so the duplicate rows sum to
  // exactly 1.0 and row 2 to exactly 0.75 — no rounding can perturb the tie.
  std::vector<Vec> rows = {{0.5, 0.5}, {0.5, 0.5}, {0.25, 0.5}, {0.5, 0.5}};
  const Vec w = {1.0, 1.0};
  ScoreKernel kernel = ScoreKernel::Build(rows, nullptr, 2);
  const std::vector<int> sig = kernel.TopKappaSignatures({&w}, 4)[0];
  std::vector<ScoredObject> top = TopKScan(rows, nullptr, w, 4);
  ASSERT_EQ(sig.size(), 4u);
  for (size_t i = 0; i < sig.size(); ++i) EXPECT_EQ(sig[i], top[i].id);
  // All three duplicates tie: ascending id among them.
  EXPECT_EQ(sig[0], 2);
  EXPECT_EQ(sig[1], 0);
  EXPECT_EQ(sig[2], 1);
  EXPECT_EQ(sig[3], 3);
}

}  // namespace
}  // namespace iq
