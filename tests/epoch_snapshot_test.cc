// Linearizability harness for the epoch-snapshot layer (DESIGN.md §12).
//
// The epoch contract says: a pinned EpochHandle is a frozen, internally
// consistent version of the engine's entire logical state, and every answer
// computed from it is *byte-identical* to the answer a from-scratch serial
// index over that epoch's logical dataset would give — no matter how many
// copy-on-write deltas produced the epoch, which cells still share storage
// with older epochs, or how many updates were published after the pin.
//
// The differential oracle below enforces that: it drives a seeded random
// op stream (ApplyStrategy, add/remove object, add/remove query) through an
// engine, pins epochs at random points while mirroring the logical state
// into a plain shadow copy, and at the end rebuilds a fresh serial index
// from each shadow and diffs everything observable — per-object hit
// counts/sets, top-k answers, and full MinCost/MaxHit solve results
// including the EvalBreakdown counters. The refcount tests then pin down
// the retirement protocol itself: no epoch is freed while pinned, every
// epoch is freed at shutdown.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/epoch.h"
#include "core/evaluator.h"
#include "core/iq_algorithms.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "topk/topk.h"
#include "util/check.h"
#include "util/cow_chunks.h"
#include "util/random.h"

namespace iq {
namespace {

// ---------------------------------------------------------------------------
// Shadow state: the logical dataset/workload an epoch is supposed to freeze
// ---------------------------------------------------------------------------

/// A plain mirror of the engine's logical state, maintained op-by-op
/// alongside the real engine. Tombstoned slots are kept (ids are stable).
struct Shadow {
  int dim = 0;
  std::vector<Vec> rows;
  std::vector<bool> row_active;
  std::vector<TopKQuery> queries;
  std::vector<bool> query_active;

  int NumActiveObjects() const {
    int n = 0;
    for (bool a : row_active) n += a ? 1 : 0;
    return n;
  }
  int NumActiveQueries() const {
    int n = 0;
    for (bool a : query_active) n += a ? 1 : 0;
    return n;
  }
};

/// A from-scratch serial world over one shadow: ids preserved via
/// add-then-tombstone, exactly how the engine's state evolved logically.
struct RebuiltWorld {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<QuerySet> queries;
  std::unique_ptr<FunctionView> view;
  std::unique_ptr<SubdomainIndex> index;

  static RebuiltWorld FromShadow(const Shadow& shadow) {
    RebuiltWorld w;
    w.data = std::make_unique<Dataset>(shadow.dim);
    for (size_t i = 0; i < shadow.rows.size(); ++i) {
      w.data->Add(shadow.rows[i]);
      if (!shadow.row_active[i]) {
        IQ_CHECK(w.data->Remove(static_cast<int>(i)).ok());
      }
    }
    w.queries = std::make_unique<QuerySet>(shadow.dim);
    for (size_t q = 0; q < shadow.queries.size(); ++q) {
      IQ_CHECK(w.queries->Add(shadow.queries[q]).ok());
      if (!shadow.query_active[q]) {
        IQ_CHECK(w.queries->Remove(static_cast<int>(q)).ok());
      }
    }
    w.view = std::make_unique<FunctionView>(
        w.data.get(), LinearForm::Identity(shadow.dim));
    auto index = SubdomainIndex::Build(w.view.get(), w.queries.get());
    IQ_CHECK(index.ok());
    w.index = std::make_unique<SubdomainIndex>(std::move(*index));
    return w;
  }
};

void ExpectIdenticalSolves(const IqResult& a, const IqResult& b,
                           const char* what) {
  ASSERT_EQ(a.strategy.size(), b.strategy.size()) << what;
  for (size_t j = 0; j < a.strategy.size(); ++j) {
    // Bit-identical, not approximately equal: the pinned epoch and the
    // rebuild must run the same floating-point operations in the same
    // order.
    EXPECT_EQ(a.strategy[j], b.strategy[j]) << what << " component " << j;
  }
  EXPECT_EQ(a.cost, b.cost) << what;
  EXPECT_EQ(a.hits_before, b.hits_before) << what;
  EXPECT_EQ(a.hits_after, b.hits_after) << what;
  EXPECT_EQ(a.reached_goal, b.reached_goal) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
}

/// Solves one improvement query serially against an arbitrary index (the
/// pinned epoch's or the rebuild's).
Result<IqResult> SolveSerially(const SubdomainIndex* index, int target,
                               bool min_cost, int tau, double beta) {
  auto ctx = IqContext::FromIndex(index, target);
  if (!ctx.ok()) return ctx.status();
  EseEvaluator ese(index, target);
  return min_cost ? MinCostIq(*ctx, &ese, tau, {})
                  : MaxHitIq(*ctx, &ese, beta, {});
}

/// The full differential check for one pinned epoch against its shadow.
void ExpectEpochMatchesShadow(const EpochHandle& pin, const Shadow& shadow,
                              Rng& rng) {
  ASSERT_TRUE(pin.valid());
  RebuiltWorld fresh = RebuiltWorld::FromShadow(shadow);

  // The pinned epoch's own structures validate, cells shared or not.
  ASSERT_TRUE(pin.index().CheckInvariants().ok());

  // The pinned dataset is the shadow, bit for bit.
  ASSERT_EQ(pin.dataset().size(), static_cast<int>(shadow.rows.size()));
  for (size_t i = 0; i < shadow.rows.size(); ++i) {
    const int id = static_cast<int>(i);
    ASSERT_EQ(pin.dataset().is_active(id), shadow.row_active[i]) << "id " << i;
    EXPECT_EQ(pin.dataset().attrs(id), shadow.rows[i]) << "id " << i;
  }
  ASSERT_EQ(pin.queries().size(), static_cast<int>(shadow.queries.size()));
  ASSERT_EQ(pin.queries().num_active(), shadow.NumActiveQueries());

  // Hit thresholds, bit for bit (NaN on inactive query slots), hit counts
  // and hit sets: every object, tombstoned ones included, against the
  // rebuild.
  for (size_t i = 0; i < shadow.rows.size(); ++i) {
    const int id = static_cast<int>(i);
    const std::vector<double> pinned = pin.index().HitThresholds(id);
    const std::vector<double> rebuilt = fresh.index->HitThresholds(id);
    ASSERT_EQ(pinned.size(), rebuilt.size()) << "object " << id;
    EXPECT_EQ(std::memcmp(pinned.data(), rebuilt.data(),
                          pinned.size() * sizeof(double)),
              0)
        << "object " << id;
    EXPECT_EQ(pin.index().HitCount(id), fresh.index->HitCount(id))
        << "object " << id;
    EXPECT_EQ(pin.index().HitSet(id), fresh.index->HitSet(id))
        << "object " << id;
  }

  // Top-k answers under a few random preference vectors.
  for (int probe = 0; probe < 3; ++probe) {
    Vec weights = rng.UniformVector(shadow.dim, 0.0, 1.0);
    const int k = 1 + static_cast<int>(rng.UniformInt(0, 3));
    std::vector<bool> mask(shadow.rows.size());
    for (size_t i = 0; i < shadow.rows.size(); ++i) {
      mask[i] = shadow.row_active[i];
    }
    Vec aug = pin.view().form().AugmentWeights(weights);
    auto pinned = TopKScan(pin.view().rows(), &mask, aug, k);
    auto rebuilt = TopKScan(fresh.view->rows(), &mask, aug, k);
    ASSERT_EQ(pinned.size(), rebuilt.size()) << "probe " << probe;
    for (size_t r = 0; r < pinned.size(); ++r) {
      EXPECT_EQ(pinned[r].id, rebuilt[r].id) << "probe " << probe;
      EXPECT_EQ(pinned[r].score, rebuilt[r].score) << "probe " << probe;
    }
  }

  // Full improvement-query solves on sampled active targets.
  int solves = 0;
  for (size_t i = 0; i < shadow.rows.size() && solves < 3; ++i) {
    if (!shadow.row_active[i]) continue;
    if (rng.UniformInt(0, 2) != 0) continue;
    ++solves;
    const int target = static_cast<int>(i);
    const int tau =
        1 + static_cast<int>(rng.UniformInt(0, shadow.NumActiveQueries() / 2));
    const double beta = rng.UniformDouble(0.05, 0.4);
    for (bool min_cost : {true, false}) {
      auto a = SolveSerially(pin.index_ptr(), target, min_cost, tau, beta);
      auto b = SolveSerially(fresh.index.get(), target, min_cost, tau, beta);
      ASSERT_EQ(a.ok(), b.ok()) << "target " << target;
      if (!a.ok()) continue;
      SCOPED_TRACE(testing::Message() << (min_cost ? "MinCost" : "MaxHit")
                                      << " target " << target);
      ExpectIdenticalSolves(*a, *b, "solve");
    }
  }
}

// ---------------------------------------------------------------------------
// The randomized op stream
// ---------------------------------------------------------------------------

constexpr int kInitialObjects = 40;
constexpr int kInitialQueries = 20;
constexpr int kDim = 3;
constexpr int kOps = 30;

struct TrialEngine {
  IqEngine engine;
  Shadow shadow;
};

Result<IqEngine> MakeEngine(const Shadow& shadow, int num_threads) {
  Dataset data(shadow.dim);
  for (const Vec& row : shadow.rows) data.Add(row);
  std::vector<TopKQuery> queries = shadow.queries;
  EngineOptions options;
  options.num_threads = num_threads;
  return IqEngine::Create(std::move(data), LinearForm::Identity(shadow.dim),
                          std::move(queries), options);
}

Shadow MakeInitialShadow(uint64_t seed, int objects = kInitialObjects,
                         int queries = kInitialQueries) {
  Shadow shadow;
  shadow.dim = kDim;
  Dataset data = MakeIndependent(objects, kDim, seed);
  for (int i = 0; i < data.size(); ++i) shadow.rows.push_back(data.attrs(i));
  shadow.row_active.assign(shadow.rows.size(), true);
  QueryGenOptions qopts;
  qopts.k_max = 5;
  shadow.queries = MakeQueries(queries, kDim, seed + 1, qopts);
  shadow.query_active.assign(shadow.queries.size(), true);
  return shadow;
}

int PickActive(const std::vector<bool>& active, Rng& rng) {
  for (;;) {
    const int id =
        static_cast<int>(rng.UniformInt(0, static_cast<int>(active.size()) - 1));
    if (active[static_cast<size_t>(id)]) return id;
  }
}

/// What a trial's op stream reached.
struct TrialCoverage {
  int duplicate_rows = 0;
  int mixed_sign_queries = 0;
  int rejected_writes = 0;
  /// Fewer active objects than some active query's k, at some epoch.
  bool objects_below_k = false;
  /// No active query left, at some epoch.
  bool no_queries = false;
};

/// One non-finite write: AddObject, ApplyStrategy or AddQuery with a NaN
/// or infinite component. It must fail as InvalidArgument and publish
/// nothing.
void RejectNonFiniteWrite(IqEngine& engine, const Shadow& shadow, Rng& rng) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  Vec v = rng.UniformVector(shadow.dim, 0.0, 1.0);
  v[static_cast<size_t>(rng.UniformInt(0, shadow.dim - 1))] =
      bad[rng.UniformInt(0, 2)];
  const uint64_t epoch = engine.Snapshot().epoch();
  const int kind = static_cast<int>(rng.UniformInt(0, 2));
  Status st;
  if (kind == 0) {
    st = engine.AddObject(v).status();
  } else if (kind == 1) {
    st = engine.ApplyStrategy(PickActive(shadow.row_active, rng), v);
  } else {
    st = engine.AddQuery({1, v}).status();
  }
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
      << "write kind " << kind << ": " << st.ToString();
  EXPECT_EQ(engine.Snapshot().epoch(), epoch) << "write kind " << kind;
}

/// Removes a random active object, down to a floor of one (ApplyStrategy
/// needs a target). Returns false at the floor.
bool RemoveRandomObject(IqEngine& engine, Shadow& shadow, Rng& rng) {
  if (shadow.NumActiveObjects() <= 1) return false;
  const int id = PickActive(shadow.row_active, rng);
  IQ_CHECK(engine.RemoveObject(id).ok());
  shadow.row_active[static_cast<size_t>(id)] = false;
  return true;
}

/// Removes a random active query, down to none. Returns false when none is
/// left.
bool RemoveRandomQuery(IqEngine& engine, Shadow& shadow, Rng& rng) {
  if (shadow.NumActiveQueries() == 0) return false;
  const int q = PickActive(shadow.query_active, rng);
  IQ_CHECK(engine.RemoveQuery(q).ok());
  shadow.query_active[static_cast<size_t>(q)] = false;
  return true;
}

/// Applies one random op to both the engine and the shadow: valid writes,
/// including duplicated rows (exact ties) and mixed-sign query weights, and
/// non-finite writes the engine must reject; with `shrink`, only removals.
/// Returns false when the op changed nothing (a rejected write, or a
/// population floor).
bool ApplyRandomOp(IqEngine& engine, Shadow& shadow, int max_query_k,
                   bool shrink, Rng& rng, TrialCoverage* coverage) {
  const int roll = static_cast<int>(rng.UniformInt(0, 99));
  if (shrink) {
    return roll < 50 ? RemoveRandomObject(engine, shadow, rng)
                     : RemoveRandomQuery(engine, shadow, rng);
  }
  if (roll < 45) {
    // ApplyStrategy on a random active target: the §4.3 remove-modify-
    // reactivate protocol, the heaviest COW path.
    const int target = PickActive(shadow.row_active, rng);
    Vec strategy = rng.UniformVector(shadow.dim, -0.05, 0.05);
    IQ_CHECK(engine.ApplyStrategy(target, strategy).ok());
    shadow.rows[static_cast<size_t>(target)] =
        Add(shadow.rows[static_cast<size_t>(target)], strategy);
    return true;
  }
  if (roll < 60) {
    // A fresh row, or a copy of an active one.
    const bool duplicate = roll >= 55;
    Vec attrs = duplicate
                    ? shadow.rows[static_cast<size_t>(
                          PickActive(shadow.row_active, rng))]
                    : rng.UniformVector(shadow.dim, 0.0, 1.0);
    coverage->duplicate_rows += duplicate ? 1 : 0;
    auto id = engine.AddObject(attrs);
    IQ_CHECK(id.ok());
    IQ_CHECK(*id == static_cast<int>(shadow.rows.size()));
    shadow.rows.push_back(std::move(attrs));
    shadow.row_active.push_back(true);
    return true;
  }
  if (roll < 72) return RemoveRandomObject(engine, shadow, rng);
  if (roll < 86) {
    TopKQuery q;
    q.k = 1 + static_cast<int>(rng.UniformInt(0, max_query_k + 7));
    // Every other added query mixes weight signs.
    const bool mixed = roll >= 79;
    q.weights = rng.UniformVector(shadow.dim, mixed ? -1.0 : 0.0, 1.0);
    coverage->mixed_sign_queries += mixed ? 1 : 0;
    auto id = engine.AddQuery(q);
    IQ_CHECK(id.ok());
    IQ_CHECK(*id == static_cast<int>(shadow.queries.size()));
    shadow.queries.push_back(std::move(q));
    shadow.query_active.push_back(true);
    return true;
  }
  if (roll >= 95) {
    RejectNonFiniteWrite(engine, shadow, rng);
    ++coverage->rejected_writes;
    return false;
  }
  return RemoveRandomQuery(engine, shadow, rng);
}

/// A trial's initial sizes and op count. Ops [shrink_begin, shrink_end)
/// only remove objects and queries.
struct TrialShape {
  int objects = kInitialObjects;
  int queries = kInitialQueries;
  int ops = kOps;
  int shrink_begin = 0;
  int shrink_end = 0;
};

/// The harness: random ops, random pins, then the differential check for
/// every pin — including the oldest epochs, whose cells are by then shared
/// with many newer ones.
TrialCoverage RunDifferentialTrial(int num_threads, uint64_t seed,
                                   const TrialShape& shape = {}) {
  TrialCoverage coverage;
  Rng rng(seed);
  Shadow shadow = MakeInitialShadow(seed, shape.objects, shape.queries);
  auto engine = MakeEngine(shadow, num_threads);
  EXPECT_TRUE(engine.ok());
  if (!engine.ok()) return coverage;
  // Added queries draw k up to 8 past the build's max_k, so some reach the
  // built κ and make OnQueryAdded grow it (DESIGN.md §2).
  const int max_query_k = engine->queries().max_k();
  EXPECT_GE(max_query_k, 1);

  std::vector<std::pair<EpochHandle, Shadow>> pins;
  pins.emplace_back(engine->Snapshot(), shadow);  // the build epoch
  for (int op = 0; op < shape.ops; ++op) {
    const bool shrink = op >= shape.shrink_begin && op < shape.shrink_end;
    if (!ApplyRandomOp(*engine, shadow, max_query_k, shrink, rng,
                       &coverage)) {
      continue;
    }
    coverage.objects_below_k |=
        shadow.NumActiveObjects() < engine->queries().max_k();
    coverage.no_queries |= shadow.NumActiveQueries() == 0;
    if (rng.UniformInt(0, 3) == 0) {
      pins.emplace_back(engine->Snapshot(), shadow);
    }
  }
  // Pin the final epoch too — unless the last op was already pinned, in
  // which case a second handle would alias the same epoch.
  EpochHandle final_pin = engine->Snapshot();
  if (final_pin.epoch() != pins.back().first.epoch()) {
    pins.emplace_back(std::move(final_pin), shadow);
  }

  uint64_t last_epoch = 0;
  for (size_t p = 0; p < pins.size(); ++p) {
    SCOPED_TRACE(testing::Message()
                 << "pin " << p << " epoch " << pins[p].first.epoch()
                 << " num_threads " << num_threads);
    // Engine epochs start at 1 and pins were taken in publish order.
    EXPECT_GT(pins[p].first.epoch(), last_epoch);
    last_epoch = pins[p].first.epoch();
    ExpectEpochMatchesShadow(pins[p].first, pins[p].second, rng);
  }
  return coverage;
}

TEST(EpochSnapshotTest, DifferentialOracleSerial) {
  RunDifferentialTrial(/*num_threads=*/0, /*seed=*/20260808);
}

TEST(EpochSnapshotTest, DifferentialOracleOneWorker) {
  RunDifferentialTrial(/*num_threads=*/1, /*seed=*/20260808);
}

TEST(EpochSnapshotTest, DifferentialOracleTwoWorkers) {
  RunDifferentialTrial(/*num_threads=*/2, /*seed=*/20260809);
}

TEST(EpochSnapshotTest, DifferentialOracleEightWorkers) {
  RunDifferentialTrial(/*num_threads=*/8, /*seed=*/20260810);
}

// A small world with a removal-only stretch down to the population floors:
// active objects fall below the largest k (signatures shorter than k,
// thresholds of +inf) and every query is removed, then the stream grows
// again from there. Duplicated rows, mixed-sign queries and rejected
// non-finite writes come from the random ops around it.
TEST(EpochSnapshotTest, DifferentialOracleSmallWorld) {
  TrialShape shape;
  shape.objects = 8;
  shape.queries = 4;
  shape.ops = 60;
  shape.shrink_begin = 20;
  shape.shrink_end = 44;
  const TrialCoverage coverage =
      RunDifferentialTrial(/*num_threads=*/2, /*seed=*/20260811, shape);
  EXPECT_GT(coverage.duplicate_rows, 0);
  EXPECT_GT(coverage.mixed_sign_queries, 0);
  EXPECT_GT(coverage.rejected_writes, 0);
  EXPECT_TRUE(coverage.objects_below_k);
  EXPECT_TRUE(coverage.no_queries);
}

// ---------------------------------------------------------------------------
// Refcounted retirement protocol
// ---------------------------------------------------------------------------

struct EpochCounters {
  int64_t live;
  uint64_t retired;

  static EpochCounters Read() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return {reg.GetGauge("iq.index.epochs_live")->value(),
            reg.GetCounter("iq.index.epochs_retired")->value()};
  }
};

TEST(EpochSnapshotTest, PinnedEpochSurvivesPublishAndRetiresOnRelease) {
  const EpochCounters before = EpochCounters::Read();
  Shadow shadow = MakeInitialShadow(7);
  auto engine = MakeEngine(shadow, 0);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(EpochCounters::Read().live, before.live + 1);

  EpochHandle pin = engine->Snapshot();
  ASSERT_EQ(pin.epoch(), 1u);
  const int pinned_hits = pin.index().HitCount(0);

  // Publish epochs 2 and 3 on top of the pin.
  ASSERT_TRUE(engine->ApplyStrategy(0, Vec(kDim, 0.02)).ok());
  ASSERT_TRUE(engine->RemoveObject(5).ok());
  ASSERT_EQ(engine->Snapshot().epoch(), 3u);

  // Epoch 2 had no pins, so it retired at the publish of epoch 3; epoch 1
  // is still pinned and must not have been freed: its answers still stand.
  EXPECT_EQ(EpochCounters::Read().live, before.live + 2);
  EXPECT_EQ(EpochCounters::Read().retired, before.retired + 1);
  EXPECT_EQ(pin.index().HitCount(0), pinned_hits);
  EXPECT_TRUE(pin.dataset().is_active(5));

  // Releasing the pin retires epoch 1.
  pin.reset();
  EXPECT_EQ(EpochCounters::Read().live, before.live + 1);
  EXPECT_EQ(EpochCounters::Read().retired, before.retired + 2);

  // Destroying the engine retires the published epoch 3: nothing leaks.
  engine = Status::InvalidArgument("released");
  EXPECT_EQ(EpochCounters::Read().live, before.live);
  EXPECT_EQ(EpochCounters::Read().retired, before.retired + 3);
}

TEST(EpochSnapshotTest, EveryEpochRetiredAtShutdown) {
  const EpochCounters before = EpochCounters::Read();
  {
    Shadow shadow = MakeInitialShadow(8);
    auto engine = MakeEngine(shadow, 2);
    ASSERT_TRUE(engine.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(engine->ApplyStrategy(i, Vec(kDim, 0.01)).ok());
    }
    ASSERT_EQ(engine->Snapshot().epoch(), 11u);
    // No pins held: only the published epoch is alive.
    EXPECT_EQ(EpochCounters::Read().live, before.live + 1);
  }
  // Engine gone: epochs 1..11 all retired, none leaked.
  EXPECT_EQ(EpochCounters::Read().live, before.live);
  EXPECT_EQ(EpochCounters::Read().retired, before.retired + 11);
}

TEST(EpochSnapshotTest, FailedUpdatePublishesNothing) {
  Shadow shadow = MakeInitialShadow(9);
  auto engine = MakeEngine(shadow, 0);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->RemoveObject(3).ok());
  const uint64_t epoch = engine->Snapshot().epoch();
  const EpochCounters before = EpochCounters::Read();

  // Invalid ops of every kind: the delta is discarded, no epoch appears.
  EXPECT_FALSE(engine->RemoveObject(3).ok());        // already tombstoned
  EXPECT_FALSE(engine->RemoveObject(9999).ok());     // out of range
  EXPECT_FALSE(engine->ApplyStrategy(3, Vec(kDim, 0.1)).ok());  // inactive
  EXPECT_FALSE(engine->ApplyStrategy(0, Vec(kDim + 2, 0.1)).ok());  // dim
  EXPECT_FALSE(engine->AddObject(Vec(kDim + 1, 0.5)).ok());
  EXPECT_FALSE(engine->RemoveQuery(12345).ok());
  // Non-finite input: NaN or inf would break the (score, id) order every
  // ranking relies on.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const int hits5 = engine->HitCount(5);
  EXPECT_FALSE(engine->AddObject({nan, 0.5, 0.5}).ok());
  EXPECT_FALSE(engine->ApplyStrategy(5, {-inf, 0.0, 0.0}).ok());
  EXPECT_FALSE(engine->AddQuery({1, {0.5, nan, 0.5}}).ok());
  EXPECT_EQ(engine->HitCount(5), hits5);

  EXPECT_EQ(engine->Snapshot().epoch(), epoch);
  EXPECT_EQ(EpochCounters::Read().live, before.live);
  // The discarded deltas' clones never became epochs; the engine still
  // validates and answers.
  EXPECT_TRUE(engine->CheckInvariants().ok());
  EXPECT_GE(engine->HitCount(0), 0);
}

TEST(EpochSnapshotTest, CowSharesUntouchedCellsAcrossEpochs) {
  Shadow shadow = MakeInitialShadow(10);
  auto engine = MakeEngine(shadow, 0);
  ASSERT_TRUE(engine.ok());
  Counter* cloned =
      MetricsRegistry::Global().GetCounter("iq.index.cow_cells_cloned");
  const uint64_t before = cloned->value();
  const int subdomains = engine->index().num_subdomains();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine->ApplyStrategy(i % 4, Vec(kDim, 0.005)).ok());
  }
  const uint64_t after = cloned->value();
  // COW must have cloned *some* cells (each apply touches the target's
  // affected subdomains) but far fewer than a full copy of every cell on
  // every publish would (8 epochs x all subdomains).
  EXPECT_GT(after, before);
  EXPECT_LT(after - before,
            static_cast<uint64_t>(8 * subdomains));

  // Row tables (DESIGN.md §12): a write clones only the chunks it touches.
  // Three-plus chunks of objects and of queries.
  const int n = 3 * static_cast<int>(kCowChunkRows) + 17;
  const int m = 3 * static_cast<int>(kCowChunkRows) + 5;
  QueryGenOptions qopts;
  qopts.k_max = 5;
  auto big = IqEngine::Create(MakeIndependent(n, kDim, 11),
                              LinearForm::Identity(kDim),
                              MakeQueries(m, kDim, 12, qopts));
  ASSERT_TRUE(big.ok());
  const auto same_chunk = [](int a, int b) {
    return static_cast<size_t>(a) / kCowChunkRows ==
           static_cast<size_t>(b) / kCowChunkRows;
  };

  EpochHandle first = big->Snapshot();
  const int t = static_cast<int>(kCowChunkRows) + 3;
  const Vec old_attrs = first.dataset().attrs(t);
  const Vec strategy(kDim, -0.01);
  ASSERT_TRUE(big->ApplyStrategy(t, strategy).ok());
  EpochHandle second = big->Snapshot();
  for (int i = 0; i < n; ++i) {
    const bool shared = !same_chunk(i, t);
    EXPECT_EQ(&second.dataset().attrs(i) == &first.dataset().attrs(i), shared)
        << "object " << i;
    EXPECT_EQ(&second.view().coeffs(i) == &first.view().coeffs(i), shared)
        << "object " << i;
  }
  for (int q = 0; q < m; ++q) {
    EXPECT_EQ(&second.index().aug_weights(q), &first.index().aug_weights(q))
        << "query " << q;
    EXPECT_EQ(&second.queries().query(q), &first.queries().query(q))
        << "query " << q;
  }
  // The still-pinned epoch reads the old attributes.
  EXPECT_EQ(first.dataset().attrs(t), old_attrs);
  EXPECT_EQ(second.dataset().attrs(t), Add(old_attrs, strategy));

  // A query write shares every object row and clones only the last query
  // chunk, which the new query lands in.
  TopKQuery extra;
  extra.k = 2;
  extra.weights = Vec(kDim, 0.3);
  auto q_new = big->AddQuery(extra);
  ASSERT_TRUE(q_new.ok());
  EpochHandle third = big->Snapshot();
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(&third.dataset().attrs(i), &second.dataset().attrs(i))
        << "object " << i;
  }
  for (int q = 0; q < m; ++q) {
    const bool shared = !same_chunk(q, *q_new);
    EXPECT_EQ(&third.index().aug_weights(q) == &second.index().aug_weights(q),
              shared)
        << "query " << q;
    EXPECT_EQ(&third.queries().query(q) == &second.queries().query(q), shared)
        << "query " << q;
  }
  EXPECT_TRUE(third.index().CheckInvariants().ok());
}

// ---------------------------------------------------------------------------
// Lock-free readers (DESIGN.md §12.1), read from mutex hold spans
// ---------------------------------------------------------------------------

/// The window `records` (ProfileSession::Stop) analyzed the way iq_trace
/// reads it.
ProfileAnalysis AnalyzeWindow(const std::string& records) {
  const TraceDump dump = ParseTracezDump(records);
  EXPECT_EQ(dump.windows.size(), 1u);
  return dump.windows.empty() ? ProfileAnalysis{}
                              : AnalyzeProfileWindow(dump.windows[0]);
}

/// IqEngine::mu_'s row of `window`; null when no hold of it was recorded.
const MutexSiteReport* EngineLock(const ProfileAnalysis& window) {
  for (const MutexSiteReport& m : window.mutexes) {
    if (m.label == "IqEngine::mu_") return &m;
  }
  return nullptr;
}

TEST(EpochSnapshotTest, ReadersNeverTakeTheEngineLock) {
  // Every reader entry point pins an epoch and never takes IqEngine::mu_:
  // four threads call each of them on a two-worker engine inside a profile
  // window, which records every mutex hold. A window holding one write
  // shows exactly one acquisition, so the capture does see the lock.
  Shadow shadow = MakeInitialShadow(12);
  auto engine = MakeEngine(shadow, 2);
  ASSERT_TRUE(engine.ok());
  std::vector<BatchItem> items(2);
  items[0].target = 1;
  items[1].kind = BatchItem::Kind::kMaxHit;
  items[1].target = 2;
  items[1].beta = 0.1;

  ProfileSession session;
  session.Start();
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&engine, &items, r] {
      EXPECT_TRUE(engine->MinCost(r, 2).ok());
      EXPECT_TRUE(engine->MaxHit(r, 0.1).ok());
      EXPECT_GE(engine->HitCount(r), 0);
      EXPECT_TRUE(engine->TopK(Vec(kDim, 0.5), 3).ok());
      EXPECT_TRUE(engine->RankUnderQuery(r, r).ok());
      EXPECT_TRUE(engine->SolveBatch(items).ok());
      EXPECT_TRUE(engine->CheckInvariants().ok());
    });
  }
  for (std::thread& t : readers) t.join();
  const ProfileAnalysis reads = AnalyzeWindow(session.Stop("readers"));
  EXPECT_EQ(reads.dropped_records, 0u);
  EXPECT_FALSE(reads.mutexes.empty());  // the pool's locks were captured
  EXPECT_EQ(EngineLock(reads), nullptr);

  session.Start();
  ASSERT_TRUE(engine->ApplyStrategy(0, Vec(kDim, 0.02)).ok());
  const ProfileAnalysis write = AnalyzeWindow(session.Stop("write"));
  TraceCollector::Global().Clear();
  EXPECT_EQ(write.dropped_records, 0u);
  const MutexSiteReport* lock = EngineLock(write);
  ASSERT_NE(lock, nullptr);
  EXPECT_EQ(lock->acquisitions, 1u);
}

}  // namespace
}  // namespace iq
