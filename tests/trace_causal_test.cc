// Cross-thread causal tracing (DESIGN.md §11): the spans of one solve must
// form one tree under one trace id no matter how many workers executed its
// chunks. The tests force retention with a 1 ns slow-trace threshold, run
// SolveBatch across num_threads in {0, 1, 2, 8} (serial fallback, caller
// participation, multi-worker fan-out), and assert on the retained trace:
// every span carries the root trace id, parent links resolve into a tree
// rooted at the batch root, span intervals nest inside their parents, and a
// multi-threaded batch shows spans from at least two recording threads.
// Tail-capture policy (error retention, slow retention, bounded store)
// and the iq_trace analysis layer are covered on the same traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "tests/json_check.h"
#include "util/prof.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace_context.h"

#if defined(IQ_TRACING_ENABLED)

namespace iq {
namespace {

/// Retain-everything policy: every finished root is "slow".
TraceTailConfig RetainAll() {
  TraceTailConfig config;
  config.slow_trace_nanos = 1;
  return config;
}

/// Scoped collector reset: fresh rings, fresh store, tracing on with the
/// given policy; everything off again when the test ends so the flat-export
/// tests in obs_test.cc keep their expectations.
class ScopedTracing {
 public:
  explicit ScopedTracing(const TraceTailConfig& config) {
    TraceCollector& tc = TraceCollector::Global();
    tc.SetEnabled(false);
    tc.Clear();
    tc.ClearRetained();
    tc.ConfigureTailCapture(config);
    tc.SetEnabled(true);
  }
  ~ScopedTracing() {
    TraceCollector& tc = TraceCollector::Global();
    tc.SetEnabled(false);
    tc.Clear();
    tc.ClearRetained();
  }
};

/// Structural invariants of a retained trace: unique span ids, one root
/// whose span id is the trace id, every parent link resolving, no cycles,
/// and child intervals nested inside their parents'.
void ExpectWellFormedTree(const RetainedTrace& rt) {
  ASSERT_FALSE(rt.spans.empty());
  std::map<uint64_t, const TraceEvent*> by_id;
  for (const TraceEvent& s : rt.spans) {
    EXPECT_EQ(s.trace_id, rt.trace_id) << s.name;
    EXPECT_NE(s.span_id, 0u) << s.name;
    EXPECT_GT(s.tid, 0) << s.name;
    EXPECT_TRUE(by_id.emplace(s.span_id, &s).second)
        << "duplicate span id " << s.span_id;
  }
  const TraceEvent* root = nullptr;
  for (const TraceEvent& s : rt.spans) {
    if (s.parent_span_id == 0) {
      ASSERT_EQ(root, nullptr) << "second root span " << s.name;
      root = &s;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->span_id, rt.trace_id);
  for (const TraceEvent& s : rt.spans) {
    const TraceEvent* cur = &s;
    size_t steps = 0;
    while (cur->parent_span_id != 0) {
      auto it = by_id.find(cur->parent_span_id);
      ASSERT_NE(it, by_id.end())
          << cur->name << " parent " << cur->parent_span_id << " missing";
      const TraceEvent* parent = it->second;
      // Intervals nest: the parent opened before and closed after (the
      // steady clock is process-wide, and the parent's destructor runs
      // strictly after the child's).
      EXPECT_LE(parent->start_ns, cur->start_ns)
          << parent->name << " -> " << cur->name;
      EXPECT_GE(parent->start_ns + parent->dur_ns,
                cur->start_ns + cur->dur_ns)
          << parent->name << " -> " << cur->name;
      cur = parent;
      ASSERT_LE(++steps, rt.spans.size()) << "parent cycle at " << s.name;
    }
    EXPECT_EQ(cur->span_id, root->span_id);
  }
}

int CountSpansNamed(const RetainedTrace& rt, const std::string& name) {
  return static_cast<int>(std::count_if(
      rt.spans.begin(), rt.spans.end(),
      [&](const TraceEvent& s) { return name == s.name; }));
}

/// The chunk spans ParallelFor recorded for `site`: children of a
/// kParallelForSpanName call span, named by the site.
std::vector<TraceEvent> ChunkSpans(const RetainedTrace& rt,
                                   const std::string& site) {
  std::set<uint64_t> calls;
  for (const TraceEvent& s : rt.spans) {
    if (std::string(s.name) == kParallelForSpanName) calls.insert(s.span_id);
  }
  std::vector<TraceEvent> out;
  for (const TraceEvent& s : rt.spans) {
    if (site == s.name && calls.count(s.parent_span_id) > 0) out.push_back(s);
  }
  return out;
}

Result<IqEngine> MakeTracedEngine(int n, int m, int dim, uint64_t seed,
                                  int num_threads) {
  EngineOptions options;
  options.num_threads = num_threads;
  options.slow_trace_nanos = 1;  // everything is "slow": retain every root
  options.slow_trace_max_retained = 8;
  return IqEngine::Create(MakeIndependent(n, dim, seed),
                          LinearForm::Identity(dim),
                          MakeQueries(m, dim, seed + 1), options);
}

/// An engine whose only observability setting is the dump-on-error path.
Result<IqEngine> MakeDumpingEngine(const std::string& dump_path) {
  std::remove(dump_path.c_str());
  EngineOptions options;
  options.event_dump_path = dump_path;
  return IqEngine::Create(MakeIndependent(30, 3, 93), LinearForm::Identity(3),
                          MakeQueries(20, 3, 94), options);
}

/// The dump at `path`, parsed back; the file is removed after reading.
TraceDump ReadDump(const std::string& path) {
  Result<std::string> text = ReadFileToString(path);
  EXPECT_TRUE(text.ok()) << "expected a dump at " << path;
  std::remove(path.c_str());
  return text.ok() ? ParseTracezDump(*text) : TraceDump();
}

/// How many of the dump's traces erred in `op` with status text `error`.
int CountErred(const TraceDump& dump, const std::string& op,
               const std::string& error) {
  return static_cast<int>(std::count_if(
      dump.traces.begin(), dump.traces.end(), [&](const ParsedTrace& t) {
        return t.erred && t.op == op && t.error == error;
      }));
}

std::vector<BatchItem> MakeBatch(int n, int m) {
  std::vector<BatchItem> items;
  for (int t = 0; t < n; t += 2) {
    BatchItem item;
    item.target = t;
    if (t % 4 == 0) {
      item.kind = BatchItem::Kind::kMinCost;
      item.tau = 1 + t % (m / 2 + 1);
    } else {
      item.kind = BatchItem::Kind::kMaxHit;
      item.beta = 0.05 + 0.01 * static_cast<double>(t % 10);
    }
    items.push_back(item);
  }
  return items;
}

// ---------------------------------------------------------------------------
// Context propagation primitives
// ---------------------------------------------------------------------------

TEST(TraceCausalTest, NestedScopesFormOneTreeOnOneThread) {
  ScopedTracing tracing(RetainAll());
  {
    IQ_TRACE_ROOT_SCOPE(root, "test.root");
    EXPECT_TRUE(root.owns_trace());
    EXPECT_NE(root.trace_id(), 0u);
    IQ_TRACE_SCOPE("test.outer");
    { IQ_TRACE_SCOPE("test.inner"); }
  }
  std::vector<RetainedTrace> retained =
      TraceCollector::Global().RetainedTraces();
  ASSERT_EQ(retained.size(), 1u);
  const RetainedTrace& rt = retained[0];
  EXPECT_STREQ(rt.op, "test.root");
  EXPECT_FALSE(rt.erred);
  ASSERT_EQ(rt.spans.size(), 3u);
  ExpectWellFormedTree(rt);
  EXPECT_EQ(rt.NumThreads(), 1);
  // The context slot is clean again after the root closed.
  EXPECT_FALSE(CurrentTraceContext().active());
}

TEST(TraceCausalTest, ManualContextHandoffLinksAnotherThread) {
  // The propagation primitive in isolation: install the dispatching
  // context on a raw std::thread (exactly what ParallelFor's helper tasks
  // do) and the remote span must join the same trace under its parent.
  ScopedTracing tracing(RetainAll());
  uint64_t trace_id = 0;
  {
    IQ_TRACE_ROOT_SCOPE(root, "test.handoff");
    trace_id = root.trace_id();
    const TraceContext ctx = CurrentTraceContext();
    std::thread remote([ctx] {
      const TraceContext saved = ExchangeTraceContext(ctx);
      { IQ_TRACE_SCOPE("test.remote"); }
      SetTraceContext(saved);
    });
    remote.join();
  }
  std::vector<RetainedTrace> retained =
      TraceCollector::Global().RetainedTraces();
  ASSERT_EQ(retained.size(), 1u);
  const RetainedTrace& rt = retained[0];
  EXPECT_EQ(rt.trace_id, trace_id);
  ASSERT_EQ(rt.spans.size(), 2u);
  ExpectWellFormedTree(rt);
  // Root thread + remote thread: two distinct recording tids,
  // deterministically.
  EXPECT_EQ(rt.NumThreads(), 2);
  EXPECT_EQ(CountSpansNamed(rt, "test.remote"), 1);
}

TEST(TraceCausalTest, ParallelForChunksJoinTheDispatchersTrace) {
  // All four execution paths of ParallelFor carry the context: static
  // chunks, dynamic work-stealing claims, serial fallback (null pool), and
  // nested-inline (ParallelFor from inside a worker).
  ScopedTracing tracing(RetainAll());
  ThreadPool pool(4);
  constexpr int64_t kN = 64;
  for (ChunkPolicy policy : {ChunkPolicy::kStatic, ChunkPolicy::kDynamic}) {
    SCOPED_TRACE(policy == ChunkPolicy::kStatic ? "static" : "dynamic");
    TraceCollector::Global().ClearRetained();
    TraceCollector::Global().Clear();
    // Every chunk waits (bounded) until a helper has joined the fan-out, so
    // a busy scheduler cannot let the caller drain the range alone.
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> helper_joined{false};
    {
      IQ_TRACE_ROOT_SCOPE(root, "test.fanout");
      pool.ParallelFor(
          kN,
          [&](int64_t begin, int64_t end) {
            if (std::this_thread::get_id() != caller) helper_joined = true;
            for (WallTimer wait;
                 !helper_joined && wait.ElapsedNanos() < 500'000'000;) {
              std::this_thread::yield();
            }
            for (int64_t i = begin; i < end; ++i) {
              IQ_TRACE_SCOPE_ARG("test.chunk_item", i);
              // Enough work per item that several workers claim chunks.
              volatile uint64_t acc = static_cast<uint64_t>(i);
              for (int s = 0; s < 20'000; ++s) {
                acc = acc * 2862933555777941757ULL + 3037000493ULL;
              }
            }
          },
          "test.fanout_chunk", policy);
    }
    std::vector<RetainedTrace> retained =
        TraceCollector::Global().RetainedTraces();
    ASSERT_EQ(retained.size(), 1u);
    const RetainedTrace& rt = retained[0];
    // Root + one span per item + the ParallelFor call span + its chunks.
    const std::vector<TraceEvent> chunks =
        ChunkSpans(rt, "test.fanout_chunk");
    ASSERT_FALSE(chunks.empty());
    ASSERT_EQ(rt.spans.size(), static_cast<size_t>(kN) + 2 + chunks.size());
    ExpectWellFormedTree(rt);
    EXPECT_EQ(CountSpansNamed(rt, "test.chunk_item"), kN);
    EXPECT_EQ(CountSpansNamed(rt, kParallelForSpanName), 1);
    int64_t items = 0;
    for (const TraceEvent& c : chunks) items += c.arg0;
    EXPECT_EQ(items, kN);
    EXPECT_GE(rt.NumThreads(), 2) << "fan-out never left the caller thread";
  }

  // Serial fallback: same tree shape, one thread.
  TraceCollector::Global().ClearRetained();
  {
    IQ_TRACE_ROOT_SCOPE(root, "test.serial");
    ParallelForOrSerial(nullptr, 4, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        IQ_TRACE_SCOPE("test.serial_item");
      }
    });
  }
  std::vector<RetainedTrace> retained =
      TraceCollector::Global().RetainedTraces();
  ASSERT_EQ(retained.size(), 1u);
  ExpectWellFormedTree(retained[0]);
  EXPECT_EQ(retained[0].NumThreads(), 1);
}

// ---------------------------------------------------------------------------
// Engine-level: SolveBatch is one trace across workers
// ---------------------------------------------------------------------------

TEST(TraceCausalTest, SolveBatchRetainsOneCrossThreadTrace) {
  constexpr int kN = 32, kM = 16;
  const std::vector<BatchItem> items = MakeBatch(kN, kM);
  for (int num_threads : {0, 1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << "num_threads=" << num_threads);
    auto engine = MakeTracedEngine(kN, kM, 3, 2026, num_threads);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    TraceCollector& tc = TraceCollector::Global();

    // Whether helpers claim items before the caller drains a small batch
    // is up to the scheduler, so a pooled batch gets a few attempts — each
    // one a fully checked trace — to show its fan-out.
    int threads_seen = 0;
    for (int attempt = 0; attempt < 20 && threads_seen < 2; ++attempt) {
      tc.ClearRetained();
      tc.Clear();
      auto batch = engine->SolveBatch(items);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();

      // Exactly one retained trace: the per-item roots joined the batch
      // root instead of finishing traces of their own.
      std::vector<RetainedTrace> retained = tc.RetainedTraces();
      ASSERT_EQ(retained.size(), 1u);
      const RetainedTrace& rt = retained[0];
      EXPECT_STREQ(rt.op, "IqEngine::SolveBatch");
      EXPECT_FALSE(rt.erred);
      ExpectWellFormedTree(rt);
      EXPECT_EQ(CountSpansNamed(rt, "SolveBatch.item"),
                static_cast<int>(items.size()));
      threads_seen = num_threads >= 2 ? rt.NumThreads() : 2;
    }
    EXPECT_GE(threads_seen, 2)
        << "a " << num_threads << "-thread batch never left one thread";
    tc.SetEnabled(false);
    tc.Clear();
    tc.ClearRetained();
  }
}

TEST(TraceCausalTest, ErredSolveIsRetainedRegardlessOfLatency) {
  ScopedTracing tracing([] {
    TraceTailConfig config;
    config.slow_trace_nanos = INT64_MAX;  // nothing is slow
    return config;
  }());
  TraceCollector& tc = TraceCollector::Global();
  const uint64_t discarded_before = tc.discarded_total();

  EngineOptions options;  // tracing already on; engine knobs stay off
  auto engine = IqEngine::Create(MakeIndependent(16, 2, 7),
                                 LinearForm::Identity(2), MakeQueries(8, 2, 8),
                                 options);
  ASSERT_TRUE(engine.ok());

  // A fast, successful solve: discarded.
  ASSERT_TRUE(engine->MinCost(0, 1).ok());
  EXPECT_EQ(tc.RetainedTraces().size(), 0u);
  EXPECT_GT(tc.discarded_total(), discarded_before);

  // A failing solve: retained with the error flag, however fast.
  ASSERT_FALSE(engine->MinCost(9999, 1).ok());
  std::vector<RetainedTrace> retained = tc.RetainedTraces();
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_TRUE(retained[0].erred);
  EXPECT_STREQ(retained[0].op, "IqEngine::MinCost");
}

TEST(TraceCausalTest, ErrorDumpHoldsTheErredTraceAndItsRunUp) {
  ScopedTracing tracing(TraceTailConfig{});
  TraceCollector& tc = TraceCollector::Global();
  tc.SetEnabled(false);
  const std::string path = ::testing::TempDir() + "/iq_error_dump.json";
  auto engine = MakeDumpingEngine(path);
  ASSERT_TRUE(engine.ok());
  // The dump path alone switches span capture on.
  EXPECT_TRUE(tc.enabled());

  // A successful solve is discarded (nothing is slow) and writes nothing,
  // but its spans stay in the rings as run-up.
  ASSERT_TRUE(engine->MinCost(0, 1).ok());
  EXPECT_EQ(tc.RetainedTraces().size(), 0u);
  EXPECT_FALSE(ReadFileToString(path).ok());

  auto r = engine->MinCost(-1, 3);
  ASSERT_FALSE(r.ok());
  const std::string error = r.status().ToString();
  const TraceDump dump = ReadDump(path);
  ASSERT_EQ(dump.traces.size(), 1u);
  EXPECT_EQ(CountErred(dump, "IqEngine::MinCost", error), 1);

  // One window: every span still in the rings — the engine's index build
  // and both solves' roots included.
  ASSERT_EQ(dump.windows.size(), 1u);
  const ParsedProfileWindow& window = dump.windows[0];
  EXPECT_EQ(window.label, "error_dump");
  int roots = 0, builds = 0;
  for (const ParsedSpan& s : window.spans) {
    roots += s.name == "IqEngine::MinCost" && s.parent_span_id == 0;
    builds += s.name == "SubdomainIndex::Build";
  }
  EXPECT_EQ(roots, 2);
  EXPECT_EQ(builds, 1);

  // iq_trace's analysis reads the erred trace and names its error.
  const TraceAnalysis analysis = AnalyzeTrace(dump.traces[0]);
  ASSERT_FALSE(analysis.critical_path.empty());
  EXPECT_EQ(analysis.critical_path.front().name, "IqEngine::MinCost");
  EXPECT_EQ(analysis.error, error);
  EXPECT_NE(TraceVerdict(analysis).find(error), std::string::npos);
  EXPECT_TRUE(IsStructurallyValidJson(TraceReportJson(dump)));
}

TEST(TraceCausalTest, FailedWritesDumpTheirOwnRootSpans) {
  ScopedTracing tracing(TraceTailConfig{});
  const std::string path = ::testing::TempDir() + "/iq_write_dump.json";
  auto engine = MakeDumpingEngine(path);
  ASSERT_TRUE(engine.ok());

  const Status removed = engine->RemoveQuery(9999);
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(CountErred(ReadDump(path), "IqEngine::RemoveQuery",
                       removed.ToString()),
            1);

  const Result<int> added = engine->AddObject({0.5});  // wrong dimension
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(CountErred(ReadDump(path), "IqEngine::AddObject",
                       added.status().ToString()),
            1);
}

TEST(TraceCausalTest, BoundedStoreDropsOldestFirst) {
  TraceTailConfig two = RetainAll();
  two.max_retained = 2;
  ScopedTracing tracing(two);
  TraceCollector& tc = TraceCollector::Global();
  uint64_t first_id = 0, last_id = 0;
  for (int i = 0; i < 4; ++i) {
    IQ_TRACE_ROOT_SCOPE(root, "test.rolling");
    if (i == 0) first_id = root.trace_id();
    last_id = root.trace_id();
  }
  std::vector<RetainedTrace> retained = tc.RetainedTraces();
  ASSERT_EQ(retained.size(), 2u);
  EXPECT_EQ(retained.back().trace_id, last_id);
  for (const RetainedTrace& rt : retained) {
    EXPECT_NE(rt.trace_id, first_id);
  }
}

TEST(TraceCausalTest, MetricsMirrorRetentionCounters) {
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  ScopedTracing tracing(RetainAll());
  TraceCollector& tc = TraceCollector::Global();
  { IQ_TRACE_ROOT_SCOPE(root, "test.mirrored"); }
  TraceTailConfig none;
  none.slow_trace_nanos = INT64_MAX;
  tc.ConfigureTailCapture(none);
  { IQ_TRACE_ROOT_SCOPE(root, "test.discarded"); }
  MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  EXPECT_GE(after.CounterValue("iq.trace.slow_retained"),
            before.CounterValue("iq.trace.slow_retained") + 1);
  EXPECT_GE(after.CounterValue("iq.trace.discarded"),
            before.CounterValue("iq.trace.discarded") + 1);
}

TEST(TraceCausalTest, SolveBatchChunkSpansCarryClaimsAndSteals) {
  // A forced-slow batch at 2 threads: the engine.solve_batch chunks are
  // spans of the retained trace, carrying (items, claims, steals) args,
  // and the tree stays well formed with them in it.
  constexpr int kN = 32, kM = 16;
  const std::vector<BatchItem> items = MakeBatch(kN, kM);
  auto engine = MakeTracedEngine(kN, kM, 3, 77, 2);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  TraceCollector& tc = TraceCollector::Global();
  tc.ClearRetained();
  tc.Clear();
  ASSERT_TRUE(engine->SolveBatch(items).ok());

  std::vector<RetainedTrace> retained = tc.RetainedTraces();
  ASSERT_EQ(retained.size(), 1u);
  const RetainedTrace& rt = retained[0];
  ExpectWellFormedTree(rt);
  const std::vector<TraceEvent> chunks = ChunkSpans(rt, "engine.solve_batch");
  ASSERT_FALSE(chunks.empty());
  int64_t chunk_items = 0;
  int64_t claims = 0;
  for (const TraceEvent& c : chunks) {
    ASSERT_NE(c.arg0, TraceEvent::kNoArg);
    ASSERT_NE(c.arg1, TraceEvent::kNoArg);
    ASSERT_NE(c.arg2, TraceEvent::kNoArg);
    EXPECT_GE(c.arg1, 1);
    EXPECT_GE(c.arg2, 0);
    EXPECT_LE(c.arg2, c.arg1);
    chunk_items += c.arg0;
    claims += c.arg1;
  }
  EXPECT_EQ(chunk_items, static_cast<int64_t>(items.size()));
  // The engine's default policy claims items one at a time.
  EXPECT_EQ(claims, static_cast<int64_t>(items.size()));

  tc.SetEnabled(false);
  tc.Clear();
  tc.ClearRetained();
}

// ---------------------------------------------------------------------------
// /tracez payload + iq_trace analysis over a real batch trace
// ---------------------------------------------------------------------------

TEST(TraceCausalTest, TracezRoundTripsThroughAnalysis) {
  constexpr int kN = 24, kM = 12;
  auto engine = MakeTracedEngine(kN, kM, 3, 99, 4);
  ASSERT_TRUE(engine.ok());
  TraceCollector& tc = TraceCollector::Global();
  tc.ClearRetained();
  tc.Clear();
  auto batch = engine->SolveBatch(MakeBatch(kN, kM));
  ASSERT_TRUE(batch.ok());
  std::vector<RetainedTrace> retained = tc.RetainedTraces();
  ASSERT_EQ(retained.size(), 1u);

  const std::string payload = tc.TracezJson();
  TraceDump dump = ParseTracezDump(payload);
  EXPECT_EQ(dump.config.slow_trace_nanos, 1);
  ASSERT_EQ(dump.traces.size(), 1u);
  const ParsedTrace& trace = dump.traces[0];
  EXPECT_EQ(trace.trace_id, retained[0].trace_id);
  EXPECT_EQ(trace.spans.size(), retained[0].spans.size());
  EXPECT_EQ(trace.num_threads, retained[0].NumThreads());

  TraceAnalysis analysis = AnalyzeTrace(trace);
  EXPECT_EQ(analysis.trace_id, trace.trace_id);
  ASSERT_FALSE(analysis.critical_path.empty());
  EXPECT_EQ(analysis.critical_path.front().name, "IqEngine::SolveBatch");
  // The telescoping self-time decomposition accounts for (essentially all
  // of) the root's wall clock — the iq_trace acceptance bar is 90%.
  EXPECT_GE(analysis.accounted_fraction, 0.9);
  EXPECT_FALSE(analysis.self_time.empty());
  EXPECT_NE(TraceVerdict(analysis).find("critical path"), std::string::npos);

  const std::string report = FormatTraceReport(dump, 5);
  EXPECT_NE(report.find("IqEngine::SolveBatch"), std::string::npos);
  const std::string json = TraceReportJson(dump);
  EXPECT_NE(json.find("\"iq_trace\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_analysis\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\""), std::string::npos);

  tc.SetEnabled(false);
  tc.Clear();
  tc.ClearRetained();
}

TEST(TraceCausalTest, PerfettoExportCarriesTidsAndFlows) {
  constexpr int kN = 24, kM = 12;
  auto engine = MakeTracedEngine(kN, kM, 3, 1234, 4);
  ASSERT_TRUE(engine.ok());
  TraceCollector& tc = TraceCollector::Global();
  tc.ClearRetained();
  tc.Clear();
  ASSERT_TRUE(engine->SolveBatch(MakeBatch(kN, kM)).ok());
  std::vector<RetainedTrace> retained = tc.RetainedTraces();
  ASSERT_EQ(retained.size(), 1u);

  const std::string json = tc.TraceJson(retained[0].trace_id);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.find("{\"traceEvents\": ["), 0u);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  if (retained[0].NumThreads() >= 2) {
    // Cross-thread parent/child pairs get flow arrows.
    EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  }
  EXPECT_TRUE(IsStructurallyValidJson(json));

  // Unknown ids export nothing.
  EXPECT_TRUE(tc.TraceJson(0xdeadbeef).empty());

  tc.SetEnabled(false);
  tc.Clear();
  tc.ClearRetained();
}

// ---------------------------------------------------------------------------
// Mutex hold capture (util/prof.h) stays out of retained traces
// ---------------------------------------------------------------------------

using TraceShape = std::map<std::pair<std::string, std::string>, int>;

/// How many spans of each name sit under each parent name: a retained
/// trace's structure, free of ids and timing. A hold span (span id 0) must
/// never be in a retained trace.
TraceShape ShapeOf(const RetainedTrace& rt) {
  std::map<uint64_t, std::string> names;
  for (const TraceEvent& s : rt.spans) {
    EXPECT_NE(s.span_id, 0u) << "hold span " << s.name << " was retained";
    names[s.span_id] = s.name;
  }
  TraceShape shape;
  for (const TraceEvent& s : rt.spans) {
    auto parent = names.find(s.parent_span_id);
    ++shape[{s.name, parent == names.end() ? "" : parent->second}];
  }
  return shape;
}

/// Runs `call` once with hold capture off and once on, each time into fresh
/// rings and an empty store, and returns the shape of the one trace each
/// run retained. The on run must have recorded holds into the rings.
template <typename Call>
std::vector<TraceShape> ShapesWithHoldCaptureOffAndOn(const Call& call) {
  TraceCollector& tc = TraceCollector::Global();
  std::vector<TraceShape> shapes;
  for (bool capture : {false, true}) {
    tc.ClearRetained();
    tc.Clear();
    prof::SetEnabled(capture);
    call();
    prof::SetEnabled(false);
    const std::vector<TraceEvent> ring = tc.SpansInWindow(0, TraceNowNanos());
    const bool held = std::any_of(ring.begin(), ring.end(),
                                  [](const TraceEvent& e) {
                                    return e.span_id == 0;
                                  });
    EXPECT_EQ(held, capture);
    const std::vector<RetainedTrace> retained = tc.RetainedTraces();
    EXPECT_EQ(retained.size(), 1u);
    if (retained.empty()) return {};
    ExpectWellFormedTree(retained[0]);
    shapes.push_back(ShapeOf(retained[0]));
  }
  return shapes;
}

TEST(TraceCausalTest, HoldCaptureLeavesSolveBatchTraceUnchanged) {
  // A hold is a flat span with ids 0: never the current span, so it cannot
  // parent anything, and never part of a trace. A forced-slow SolveBatch
  // retains the same span names under the same parents with capture on.
  // On a pool, how many chunk spans a site records depends on scheduling,
  // so only the serial engine compares counts too.
  constexpr int kN = 24, kM = 12;
  const std::vector<BatchItem> items = MakeBatch(kN, kM);
  for (int num_threads : {0, 2}) {
    SCOPED_TRACE(testing::Message() << "num_threads=" << num_threads);
    auto engine = MakeTracedEngine(kN, kM, 3, 77, num_threads);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const std::vector<TraceShape> shapes = ShapesWithHoldCaptureOffAndOn(
        [&engine, &items] { ASSERT_TRUE(engine->SolveBatch(items).ok()); });
    ASSERT_EQ(shapes.size(), 2u);
    EXPECT_EQ(shapes[0].at({"SolveBatch.item", "engine.solve_batch"}),
              static_cast<int>(items.size()));
    if (num_threads == 0) {
      EXPECT_EQ(shapes[0], shapes[1]);
      continue;
    }
    for (const TraceShape& shape : shapes) {
      EXPECT_EQ(shape.at({"SolveBatch.item", "engine.solve_batch"}),
                static_cast<int>(items.size()));
    }
    std::set<std::pair<std::string, std::string>> off, on;
    for (const auto& [edge, count] : shapes[0]) off.insert(edge);
    for (const auto& [edge, count] : shapes[1]) on.insert(edge);
    EXPECT_EQ(off, on);
  }
  TraceCollector::Global().SetEnabled(false);
  TraceCollector::Global().Clear();
  TraceCollector::Global().ClearRetained();
}

TEST(TraceCausalTest, HoldCaptureLeavesFailedWriteTraceUnchanged) {
  // A write that fails after taking IqEngine::mu_ (a NaN strategy is
  // rejected on the delta) is retained as erred, with the same span names
  // under the same parents whether its holds are captured or not.
  auto engine = MakeTracedEngine(16, 8, 3, 78, 2);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Vec nan_step(3, std::numeric_limits<double>::quiet_NaN());
  const std::vector<TraceShape> shapes =
      ShapesWithHoldCaptureOffAndOn([&engine, &nan_step] {
        EXPECT_FALSE(engine->ApplyStrategy(0, nan_step).ok());
        const std::vector<RetainedTrace> retained =
            TraceCollector::Global().RetainedTraces();
        ASSERT_EQ(retained.size(), 1u);
        EXPECT_TRUE(retained[0].erred);
        EXPECT_STREQ(retained[0].op, "IqEngine::ApplyStrategy");
      });
  ASSERT_EQ(shapes.size(), 2u);
  EXPECT_EQ(shapes[0], shapes[1]);
  EXPECT_EQ(shapes[0].at({"IqEngine::ApplyStrategy", ""}), 1);
  TraceCollector::Global().SetEnabled(false);
  TraceCollector::Global().Clear();
  TraceCollector::Global().ClearRetained();
}

}  // namespace
}  // namespace iq

#endif  // IQ_TRACING_ENABLED
