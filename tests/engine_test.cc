#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "obs/trace.h"

namespace iq {
namespace {

Result<IqEngine> MakeEngine(int n, int m, int dim, uint64_t seed,
                            EngineOptions options = {}) {
  Dataset data = MakeIndependent(n, dim, seed);
  QueryGenOptions qopts;
  qopts.k_max = 5;
  return IqEngine::Create(std::move(data), LinearForm::Identity(dim),
                          MakeQueries(m, dim, seed + 1, qopts), options);
}

TEST(EngineTest, CreateAndInspect) {
  auto engine = MakeEngine(50, 30, 3, 70);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->dataset().size(), 50);
  EXPECT_EQ(engine->queries().size(), 30);
  EXPECT_GT(engine->index().num_subdomains(), 0);
}

TEST(EngineTest, TopKMatchesHitSemantics) {
  auto engine = MakeEngine(50, 30, 3, 71);
  ASSERT_TRUE(engine.ok());
  const TopKQuery& q = engine->queries().query(0);
  auto top = engine->TopK(q.weights, q.k);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(static_cast<int>(top->size()), q.k);
  // Every member of the top-k must report query 0 in its hit set, except
  // possible boundary ties (strict rule); check the strictly-better ones.
  for (int i = 0; i + 1 < q.k; ++i) {
    std::vector<int> hits = engine->HitSet((*top)[static_cast<size_t>(i)].id);
    if ((*top)[static_cast<size_t>(i)].score <
        (*top)[static_cast<size_t>(q.k - 1)].score) {
      // strictly inside the top-k
      bool found = false;
      for (int h : hits) found = found || h == 0;
      EXPECT_TRUE(found);
    }
  }
  EXPECT_FALSE(engine->TopK({0.1}, 2).ok());  // wrong arity
}

TEST(EngineTest, SchemeDispatch) {
  auto engine = MakeEngine(60, 40, 3, 72);
  ASSERT_TRUE(engine.ok());
  for (IqScheme scheme : {IqScheme::kEfficient, IqScheme::kRta,
                          IqScheme::kGreedy, IqScheme::kRandom}) {
    auto r = engine->MinCost(1, 5, {}, scheme);
    ASSERT_TRUE(r.ok()) << IqSchemeName(scheme);
    auto mh = engine->MaxHit(1, 0.2, {}, scheme);
    ASSERT_TRUE(mh.ok()) << IqSchemeName(scheme);
    EXPECT_LE(mh->cost, 0.2 + 1e-9);
  }
}

TEST(EngineTest, ExhaustiveSchemeOnTinyEngine) {
  auto engine = MakeEngine(10, 6, 2, 73);
  ASSERT_TRUE(engine.ok());
  auto r = engine->MinCost(0, 2, {}, IqScheme::kExhaustive);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  if (r->reached_goal) {
    auto h = engine->MinCost(0, 2, {}, IqScheme::kEfficient);
    ASSERT_TRUE(h.ok());
    if (h->reached_goal) {
      EXPECT_LE(r->cost, h->cost + 1e-9);
    }
  }
}

TEST(EngineTest, ApplyStrategyUpdatesHits) {
  auto engine = MakeEngine(60, 40, 3, 74);
  ASSERT_TRUE(engine.ok());
  auto r = engine->MinCost(2, 8);
  ASSERT_TRUE(r.ok());
  if (!r->reached_goal) GTEST_SKIP() << "goal unreachable in this world";
  ASSERT_TRUE(engine->ApplyStrategy(2, r->strategy).ok());
  EXPECT_EQ(engine->HitCount(2), r->hits_after);
}

TEST(EngineTest, LiveMaintenance) {
  auto engine = MakeEngine(40, 25, 3, 75);
  ASSERT_TRUE(engine.ok());
  auto qid = engine->AddQuery({2, {0.5, 0.4, 0.1}});
  ASSERT_TRUE(qid.ok());
  EXPECT_EQ(engine->queries().num_active(), 26);
  ASSERT_TRUE(engine->RemoveQuery(*qid).ok());
  EXPECT_EQ(engine->queries().num_active(), 25);

  auto oid = engine->AddObject({0.01, 0.01, 0.01});
  ASSERT_TRUE(oid.ok());
  EXPECT_GT(engine->HitCount(*oid), 0);  // dominates nearly everything
  ASSERT_TRUE(engine->RemoveObject(*oid).ok());
  EXPECT_FALSE(engine->RemoveObject(*oid).ok());
  EXPECT_FALSE(engine->AddObject({0.1}).ok());  // wrong dim
}

TEST(EngineTest, MultiTargetThroughEngine) {
  auto engine = MakeEngine(60, 40, 3, 76);
  ASSERT_TRUE(engine.ok());
  auto r = engine->MultiMinCost({0, 1}, 10, {IqOptions{}});
  ASSERT_TRUE(r.ok());
  auto mh = engine->MultiMaxHit({0, 1}, 0.3, {IqOptions{}});
  ASSERT_TRUE(mh.ok());
  EXPECT_LE(mh->total_cost, 0.3 + 1e-9);
}

TEST(EngineTest, MalformedOptionsReturnInvalidArgument) {
  // Every scheme and both §5.1 calls check the options before any work: a
  // malformed field is an InvalidArgument, never an abort or a wrong answer.
  auto engine = MakeEngine(60, 40, 3, 78);
  ASSERT_TRUE(engine.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* what;
    IqOptions options;
  };
  std::vector<Case> cases;
  auto add = [&cases](const char* what, auto edit) {
    IqOptions options;
    edit(&options);
    cases.push_back({what, std::move(options)});
  };
  add("granularity of length 2",
      [](IqOptions* o) { o->granularity = {0.1, 0.1}; });
  add("NaN granularity", [=](IqOptions* o) { o->granularity = {0.1, nan, 0}; });
  add("infinite granularity",
      [=](IqOptions* o) { o->granularity = {inf, 0.1, 0}; });
  add("negative granularity",
      [](IqOptions* o) { o->granularity = {0.1, -0.1, 0}; });
  add("2-dim box", [](IqOptions* o) { o->box = AdjustBox::Unbounded(2); });
  add("WeightedL2 with 2 unit costs",
      [](IqOptions* o) { o->cost = CostFunction::WeightedL2({1, 1}); });
  add("WeightedL2 with a zero unit cost",
      [](IqOptions* o) { o->cost = CostFunction::WeightedL2({1, 0, 1}); });
  add("Quadratic with a NaN unit cost",
      [=](IqOptions* o) { o->cost = CostFunction::Quadratic({1, nan, 1}); });
  add("Quadratic with a negative unit cost",
      [](IqOptions* o) { o->cost = CostFunction::Quadratic({1, -2, 1}); });
  add("WeightedL1 with 2 unit costs",
      [](IqOptions* o) { o->cost = CostFunction::WeightedL1({1, 1}); });
  add("WeightedL1 with an infinite unit cost",
      [=](IqOptions* o) { o->cost = CostFunction::WeightedL1({1, inf, 1}); });
  // Value ranges turn into bounds unchecked, so these reach the search.
  const Vec p = engine->dataset().attrs(1);
  add("box with a lower bound above its upper bound", [&p](IqOptions* o) {
    o->box = AdjustBox::FromValueRange(p, {0, 0.6, 0}, {1, 0.4, 1});
  });
  add("box with a NaN bound", [&p, nan](IqOptions* o) {
    o->box = AdjustBox::FromValueRange(p, {0, 0, 0}, {1, nan, 1});
  });
  const IqScheme schemes[] = {IqScheme::kEfficient, IqScheme::kRta,
                              IqScheme::kGreedy, IqScheme::kRandom,
                              IqScheme::kExhaustive};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    for (IqScheme scheme : schemes) {
      SCOPED_TRACE(IqSchemeName(scheme));
      EXPECT_EQ(engine->MinCost(1, 5, c.options, scheme).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(engine->MaxHit(1, 0.3, c.options, scheme).status().code(),
                StatusCode::kInvalidArgument);
    }
    EXPECT_EQ(engine->MultiMinCost({1, 4}, 10, {c.options}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(engine->MultiMaxHit({1, 4}, 0.3, {c.options}).status().code(),
              StatusCode::kInvalidArgument);
    // A malformed entry for the second target only.
    EXPECT_EQ(engine->MultiMinCost({1, 4}, 10, {IqOptions{}, c.options})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  // A NaN budget is malformed too; +inf is an unbounded one.
  for (IqScheme scheme : schemes) {
    SCOPED_TRACE(IqSchemeName(scheme));
    EXPECT_EQ(engine->MaxHit(1, nan, {}, scheme).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(engine->MultiMaxHit({1, 4}, nan, {IqOptions{}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine->MaxHit(1, inf).ok());
  // A box that excludes the zero strategy is legal.
  IqOptions shifted;
  shifted.box = AdjustBox::FromValueRange(p, {0, 0, 0}, {1, 1, 1});
  shifted.box->SetRange(0, 0.05, 0.5);
  EXPECT_TRUE(engine->MinCost(1, 5, shifted).ok());
  // A weighted L1 cost may leave an attribute free.
  IqOptions free_axis;
  free_axis.cost = CostFunction::WeightedL1({1, 0, 1});
  EXPECT_TRUE(engine->MinCost(1, 5, free_axis).ok());
  // The exhaustive searches return continuous optima: no grid.
  auto tiny = MakeEngine(10, 6, 2, 73);
  ASSERT_TRUE(tiny.ok());
  IqOptions grid;
  grid.granularity = {0.1, 0.1};
  EXPECT_EQ(tiny->MinCost(0, 2, grid, IqScheme::kExhaustive).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tiny->MaxHit(0, 0.3, grid, IqScheme::kExhaustive).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, UnwritableDumpPathWarnsAndKeepsStatus) {
  auto reference = MakeEngine(20, 10, 2, 77);
  ASSERT_TRUE(reference.ok());
  EngineOptions options;
  const std::string path =
      ::testing::TempDir() + "/iq_no_such_dump_dir/error_dump.json";
  options.event_dump_path = path;
  auto engine = MakeEngine(20, 10, 2, 77, options);
  ASSERT_TRUE(engine.ok());
  const std::string want = reference->MinCost(-1, 1).status().ToString();

  ::testing::internal::CaptureStderr();
  auto r = engine->MinCost(-1, 1);
  const std::string err = ::testing::internal::GetCapturedStderr();
  // The caller gets the solve's own error, not the dump's.
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().ToString(), want);
  EXPECT_NE(err.find("WARN"), std::string::npos) << err;
  EXPECT_NE(err.find("dump-on-error to " + path + " failed"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("cannot open"), std::string::npos) << err;

  // The dump path switched span capture on process-wide; switch it off.
  TraceCollector& tc = TraceCollector::Global();
  tc.SetEnabled(false);
  tc.Clear();
  tc.ClearRetained();
}

TEST(EngineTest, SchemeNames) {
  EXPECT_STREQ(IqSchemeName(IqScheme::kEfficient), "Efficient-IQ");
  EXPECT_STREQ(IqSchemeName(IqScheme::kRta), "RTA-IQ");
  EXPECT_STREQ(IqSchemeName(IqScheme::kGreedy), "Greedy");
  EXPECT_STREQ(IqSchemeName(IqScheme::kRandom), "Random");
  EXPECT_STREQ(IqSchemeName(IqScheme::kExhaustive), "Exhaustive");
}

}  // namespace
}  // namespace iq
