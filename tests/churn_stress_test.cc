// Concurrency stress for the epoch-snapshot layer (DESIGN.md §12), written
// to run under -fsanitize=thread (the `tsan` preset; see CMakePresets.json
// and the CI sanitizer lane): writer threads publish epochs through
// ApplyStrategy while reader threads pin snapshots and solve on them with
// no lock at all. TSan must stay silent, every pinned epoch must be frozen
// (repeated reads through one pin agree), invariants must hold on any
// published epoch, and the span rings must balance — one root span per
// engine solve, one ApplyStrategy root per publish, maintenance-hook epochs
// strictly increasing.
//
// Op counts are fixed (not wall-clock driven) so the total span volume
// stays below the per-thread ring capacity; the balance assertions would be
// meaningless once a ring starts overwriting.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/epoch.h"
#include "core/evaluator.h"
#include "core/iq_algorithms.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "geom/vec.h"
#include "obs/trace.h"
#include "util/random.h"

namespace iq {
namespace {

constexpr int kN = 32;
constexpr int kM = 16;
constexpr int kDim = 3;
constexpr int kWriters = 2;
constexpr int kAppliesPerWriter = 30;
constexpr int kReaders = 4;
constexpr int kReadsPerReader = 40;

Result<IqEngine> MakeEngine(EngineOptions options = {}) {
  Dataset data = MakeIndependent(kN, kDim, 314);
  QueryGenOptions qopts;
  qopts.k_max = 5;
  return IqEngine::Create(std::move(data), LinearForm::Identity(kDim),
                          MakeQueries(kM, kDim, 315, qopts), options);
}

/// One serial improvement-query solve against a pinned epoch (no engine
/// entry point, no root span — pure epoch read).
bool SolveOnPin(const EpochHandle& pin, int target) {
  auto ctx = IqContext::FromIndex(pin.index_ptr(), target);
  if (!ctx.ok()) return false;
  EseEvaluator ese(pin.index_ptr(), target);
  return MinCostIq(*ctx, &ese, /*tau=*/2, {}).ok();
}

TEST(ChurnStressTest, WritersPublishWhilePinnedReadersSolve) {
  // Span capture on for the whole storm; nothing is slow enough to retain,
  // so every span stays in the per-thread rings for the balance check.
  TraceCollector& tc = TraceCollector::Global();
  tc.SetEnabled(false);
  tc.Clear();
  EngineOptions options;
  options.slow_trace_nanos = std::numeric_limits<int64_t>::max();
  auto engine = MakeEngine(options);
  ASSERT_TRUE(engine.ok());

  // The strategies each writer will apply are fixed up front. Addition
  // commutes, so the *final* attribute matrix is independent of how the
  // writer publishes interleave — giving a deterministic end-state oracle
  // for a nondeterministic schedule.
  std::vector<std::vector<std::pair<int, Vec>>> plans(kWriters);
  Rng rng(316);
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kAppliesPerWriter; ++i) {
      const int target = static_cast<int>(rng.UniformInt(0, kN - 1));
      plans[w].emplace_back(target,
                            rng.UniformVector(kDim, -0.02, 0.02));
    }
  }
  std::vector<Vec> expected;
  for (int i = 0; i < kN; ++i) expected.push_back(engine->dataset().attrs(i));
  for (const auto& plan : plans) {
    for (const auto& [target, strategy] : plan) {
      expected[static_cast<size_t>(target)] =
          Add(expected[static_cast<size_t>(target)], strategy);
    }
  }

  std::atomic<int> apply_failures{0};
  std::atomic<int> read_failures{0};
  std::atomic<int> frozen_violations{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const auto& [target, strategy] : plans[w]) {
        if (!engine->ApplyStrategy(target, strategy).ok()) {
          apply_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        const int target = (r * 7 + i) % kN;
        // Pin once, read many: everything observed through one pin must be
        // mutually consistent no matter how many epochs land meanwhile.
        EpochHandle pin = engine->Snapshot();
        const int hits_first = pin.index().HitCount(target);
        if (!SolveOnPin(pin, target)) {
          read_failures.fetch_add(1, std::memory_order_relaxed);
        }
        if (pin.index().HitCount(target) != hits_first) {
          frozen_violations.fetch_add(1, std::memory_order_relaxed);
        }
        // The engine-level solve pins its own epoch and opens a root span
        // for the balance check below.
        if (!engine->MinCost(target, /*tau=*/1).ok()) {
          read_failures.fetch_add(1, std::memory_order_relaxed);
        }
        // Deep validation of a freshly published epoch, concurrent with
        // the writers COWing cells shared with it.
        if (i % 10 == 0 && !engine->CheckInvariants().ok()) {
          read_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (std::thread& t : writers) t.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(apply_failures.load(), 0);
  EXPECT_EQ(read_failures.load(), 0);
  EXPECT_EQ(frozen_violations.load(), 0);

  // Every write published exactly one epoch, serialized on the writer lock.
  constexpr uint64_t kApplies =
      static_cast<uint64_t>(kWriters) * kAppliesPerWriter;
  EXPECT_EQ(engine->Snapshot().epoch(), 1 + kApplies);
  EXPECT_TRUE(engine->CheckInvariants().ok());

  // Deterministic end state: the final dataset equals initial + the sum of
  // every strategy, regardless of publish interleaving.
  for (int i = 0; i < kN; ++i) {
    const Vec& got = engine->dataset().attrs(i);
    const Vec& want = expected[static_cast<size_t>(i)];
    ASSERT_EQ(got.size(), want.size());
    for (size_t d = 0; d < want.size(); ++d) {
      EXPECT_NEAR(got[d], want[d], 1e-12) << "object " << i << " dim " << d;
    }
  }

#if defined(IQ_TRACING_ENABLED)
  // Span balance over the whole storm, read from the rings in start order.
  uint64_t solves = 0, applies = 0, hooks = 0;
  int64_t last_hook_epoch = 1;
  for (const TraceEvent& e :
       tc.SpansInWindow(0, std::numeric_limits<uint64_t>::max())) {
    const std::string name = e.name;
    if (name == "IqEngine::MinCost" && e.parent_span_id == 0) {
      ++solves;
    } else if (name == "IqEngine::ApplyStrategy") {
      ++applies;
    } else if (name == "SubdomainIndex::OnObjectAdded") {
      ++hooks;
      // Publishes are serialized on the writer lock: the epoch each hook
      // ran for (arg1) is unique and strictly increasing in start order.
      EXPECT_GT(e.arg1, last_hook_epoch);
      last_hook_epoch = e.arg1;
    }
  }
  EXPECT_EQ(solves, static_cast<uint64_t>(kReaders) * kReadsPerReader);
  EXPECT_EQ(applies, kApplies);
  EXPECT_EQ(hooks, kApplies);
  EXPECT_EQ(last_hook_epoch, static_cast<int64_t>(1 + kApplies));
  // Nothing was overwritten out of the rings, so the balance above saw the
  // complete record (the fixed op counts are sized for this).
  EXPECT_EQ(tc.DroppedCount(), 0u);
#endif  // IQ_TRACING_ENABLED
  tc.SetEnabled(false);
  tc.Clear();
  tc.ConfigureTailCapture({});
}

TEST(ChurnStressTest, ConcurrentPinReleaseRacesRetirement) {
  // Hammer the retirement edge: readers pin and immediately drop epochs
  // while a writer publishes, so the "last reference" frequently flips
  // between the engine's publish pointer and a reader's dying handle. The
  // shared_ptr control block must make exactly one thread run retirement
  // (TSan verifies the destructor ordering).
  auto engine = MakeEngine();
  ASSERT_TRUE(engine.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> spinners;
  for (int r = 0; r < 3; ++r) {
    spinners.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        EpochHandle pin = engine->Snapshot();
        if (!pin.valid() || pin.index().num_subdomains() <= 0) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine->ApplyStrategy(i % kN, Vec(kDim, 0.001)).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : spinners) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine->Snapshot().epoch(), 51u);
}

}  // namespace
}  // namespace iq
