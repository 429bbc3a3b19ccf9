// Tests for the contention / critical-path profiler over the one span
// model: mutex wait attribution by rank under injected contention, with
// every hold recorded as a span (util/prof.h) and CondVar waits excluded
// from held time, ParallelFor chunks captured as trace spans through the
// pool and the serial fallback, the profile-window dump round-trip through
// the tools/iq_trace scanner, the /profilez endpoint shape, and escaping of
// every string in the iq_trace JSON report. Chunk spans exist only when
// tracing is compiled in, so their assertions are guarded; mutex
// attribution is not.
// This suite also runs under the TSan CI lane ("Prof" is in the lane's test
// regex): holds are recorded from many threads, and a released mutex may
// be destroyed by the thread it wakes.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporter.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "tests/json_check.h"
#include "util/annotations.h"
#include "util/prof.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace iq {
namespace {

/// Burns wall-clock without yielding, so a mutex held across it stays held
/// long enough for another thread to pile up on Lock().
void SpinFor(uint64_t nanos) {
  WallTimer timer;
  while (timer.ElapsedNanos() < nanos) {
  }
}

/// Re-notifies `cv` until the waiter reports its wake-up: a notification
/// sent before the waiter parks would otherwise be lost.
void NotifyUntilWoken(CondVar& cv, const std::atomic<bool>& woke) {
  while (!woke.load()) {
    cv.NotifyAll();
    std::this_thread::yield();
  }
}

/// RAII guard: every test that profiles must leave hold capture and
/// tracing off and the rings empty, whatever its assertions do.
struct ProfilingScope {
  ProfilingScope() { Off(); }
  ~ProfilingScope() { Off(); }
  static void Off() {
    prof::SetEnabled(false);
    TraceCollector::Global().SetEnabled(false);
    TraceCollector::Global().Clear();
  }
};

/// Parses a one-window dump and analyzes the window.
ProfileAnalysis AnalyzeOnlyWindow(const std::string& records) {
  const TraceDump dump = ParseTracezDump(records);
  EXPECT_EQ(dump.windows.size(), 1u);
  return dump.windows.empty() ? ProfileAnalysis{}
                              : AnalyzeProfileWindow(dump.windows[0]);
}

/// The body of an exporter response.
std::string Body(const std::string& response) {
  const size_t at = response.find("\r\n\r\n");
  EXPECT_NE(at, std::string::npos);
  return at == std::string::npos ? "" : response.substr(at + 4);
}

const MutexSiteReport* FindMutex(const ProfileAnalysis& r,
                                 const std::string& label) {
  for (const MutexSiteReport& m : r.mutexes) {
    if (m.label == label) return &m;
  }
  return nullptr;
}

// Unused when tracing is compiled out: chunk spans then never exist.
[[maybe_unused]] const ParallelSiteReport* FindSite(const ProfileAnalysis& r,
                                                    const std::string& site) {
  for (const ParallelSiteReport& p : r.parallel_sites) {
    if (p.site == site) return &p;
  }
  return nullptr;
}

TEST(ProfileTest, ContentionAttributionByRank) {
  ProfilingScope scope;
  Mutex hot(LockRank::kEngine, "ProfileTest::hot");
  Mutex cold(LockRank::kLeaf, "ProfileTest::cold");
  ProfileSession session;
  session.Start();

  // Two threads fight over `hot`, each holding it for a spin long enough
  // that the other almost always blocks; `cold` is locked 500 times from
  // this thread only and can never contend.
  // Whoever locks first holds its first acquisition until the other
  // thread is running (bounded) and a millisecond more, so the loops overlap
  // even when a busy scheduler would otherwise run them back to back.
  constexpr int kIters = 150;
  constexpr uint64_t kHoldNanos = 30'000;
  std::atomic<int> started{0};
  auto hammer = [&hot, &started] {
    started.fetch_add(1);
    for (int i = 0; i < kIters; ++i) {
      MutexLock lock(&hot);
      for (WallTimer wait; i == 0 && started.load() < 2 &&
                           wait.ElapsedNanos() < 500'000'000;) {
        std::this_thread::yield();
      }
      SpinFor(i == 0 ? 1'000'000 : kHoldNanos);
    }
  };
  std::thread a(hammer);
  std::thread b(hammer);
  for (int i = 0; i < 500; ++i) {
    MutexLock lock(&cold);
  }
  a.join();
  b.join();

  const ProfileAnalysis report = AnalyzeOnlyWindow(session.Stop("contention"));
  const MutexSiteReport* hot_site = FindMutex(report, "ProfileTest::hot");
  const MutexSiteReport* cold_site = FindMutex(report, "ProfileTest::cold");
  ASSERT_NE(hot_site, nullptr);
  ASSERT_NE(cold_site, nullptr);

  EXPECT_EQ(hot_site->rank, "kEngine");
  EXPECT_EQ(hot_site->acquisitions, static_cast<uint64_t>(2 * kIters));
  EXPECT_GT(hot_site->contended, 0u);
  EXPECT_GT(hot_site->wait_nanos, 0u);
  // Wall-clock bounds on one-core CI boxes are untrustworthy (the waiter
  // can be rescheduled almost immediately); assert structure, not duration.
  EXPECT_GT(hot_site->max_wait_nanos, 0u);
  EXPECT_LE(hot_site->max_wait_nanos, hot_site->wait_nanos);
  // Held time must cover the deliberate spins (both threads, every
  // iteration), not just the lock handshake.
  EXPECT_GE(hot_site->held_nanos, 2ull * kIters * kHoldNanos);

  EXPECT_EQ(cold_site->rank, "kLeaf");
  EXPECT_EQ(cold_site->acquisitions, 500u);
  EXPECT_EQ(cold_site->contended, 0u);
  EXPECT_EQ(cold_site->wait_nanos, 0u);

  // The attribution requirement: at least 90% of all recorded wait belongs
  // to the mutex that was actually fought over.
  ASSERT_GT(report.total_wait_nanos, 0u);
  EXPECT_GE(static_cast<double>(hot_site->wait_nanos),
            0.9 * static_cast<double>(report.total_wait_nanos));
}

TEST(ProfileTest, CondVarWaitExcludesParkedTimeFromOneAcquisition) {
  // One hold that parks in CondVar::Wait for ~100 ms: it counts one
  // acquisition, and its held time covers only the time around the wait.
  // The notifier never takes the mutex — it re-notifies until the waiter
  // reports the wake-up — so the waiter's hold is the mutex's only one.
  ProfilingScope scope;
  Mutex mu(LockRank::kLeaf, "ProfileTest::parked");
  CondVar cv;
  std::atomic<bool> ready{false};
  std::atomic<bool> woke{false};
  constexpr uint64_t kParkNanos = 100'000'000;
  ProfileSession session;
  session.Start();
  std::thread notifier([&] {
    SpinFor(kParkNanos);
    ready.store(true);
    NotifyUntilWoken(cv, woke);
  });
  {
    MutexLock lock(&mu);
    while (!ready.load()) cv.Wait(mu);
    woke.store(true);
  }
  notifier.join();

  const ProfileAnalysis report = AnalyzeOnlyWindow(session.Stop("parked"));
  const MutexSiteReport* site = FindMutex(report, "ProfileTest::parked");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->acquisitions, 1u);
  EXPECT_EQ(site->contended, 0u);
  EXPECT_LT(site->held_nanos, kParkNanos / 2);
}

TEST(ProfileTest, HoldPickedUpAtWakeUpAddsHeldTimeButNoAcquisition) {
  // A waiter parks before the window opens, so its acquisition is not
  // profiled. Woken inside the window, it picks the hold up: the window
  // gains the held time after the wake-up, but no acquisition and no wait.
  ProfilingScope scope;
  Mutex mu(LockRank::kLeaf, "ProfileTest::pickup");
  CondVar cv;
  bool parked = false;  // written holding mu
  std::atomic<bool> ready{false};
  std::atomic<bool> woke{false};
  constexpr uint64_t kHoldNanos = 1'000'000;
  std::thread waiter([&] {
    MutexLock lock(&mu);
    parked = true;
    while (!ready.load()) cv.Wait(mu);
    woke.store(true);
    SpinFor(kHoldNanos);
  });
  // The waiter set `parked` holding mu, and only its wait releases mu.
  for (bool seen = false; !seen;) {
    MutexLock lock(&mu);
    seen = parked;
  }
  ProfileSession session;
  session.Start();
  ready.store(true);
  NotifyUntilWoken(cv, woke);
  waiter.join();

  const ProfileAnalysis report = AnalyzeOnlyWindow(session.Stop("pickup"));
  const MutexSiteReport* site = FindMutex(report, "ProfileTest::pickup");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->acquisitions, 0u);
  EXPECT_EQ(site->wait_nanos, 0u);
  EXPECT_GE(site->held_nanos, kHoldNanos);
}

TEST(ProfileTest, OnlyProfiledAcquisitionsAreRecorded) {
  // The waiter acquires with capture on, parks, and capture goes off. This
  // thread then locks and unlocks the mutex unprofiled: the parked hold's
  // clock went with the waiter, so those releases record nothing. The
  // waiter's own hold, profiled at acquisition, is still recorded.
  ProfilingScope scope;
  Mutex mu(LockRank::kLeaf, "ProfileTest::profiled_only");
  CondVar cv;
  bool parked = false;  // written holding mu
  std::atomic<bool> acquired{false};
  std::atomic<bool> ready{false};
  std::atomic<bool> woke{false};
  ProfileSession session;
  session.Start();
  std::thread waiter([&] {
    MutexLock lock(&mu);
    acquired.store(true);
    parked = true;
    while (!ready.load()) cv.Wait(mu);
    woke.store(true);
  });
  while (!acquired.load()) std::this_thread::yield();
  prof::SetEnabled(false);
  for (bool seen = false; !seen;) {
    MutexLock lock(&mu);
    seen = parked;
  }
  ready.store(true);
  NotifyUntilWoken(cv, woke);
  waiter.join();

  const ProfileAnalysis report =
      AnalyzeOnlyWindow(session.Stop("profiled_only"));
  const MutexSiteReport* site = FindMutex(report, "ProfileTest::profiled_only");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->acquisitions, 1u);
}

TEST(ProfileTest, ClearedRingsLeaveNoMutexRows) {
  // Holds live only in the rings: once a window's spans are cleared, no
  // later dump reports its acquisitions.
  ProfilingScope scope;
  Mutex mu(LockRank::kLeaf, "ProfileTest::cleared");
  ProfileSession session;
  session.Start();
  for (int i = 0; i < 7; ++i) {
    MutexLock lock(&mu);
  }
  const ProfileAnalysis window = AnalyzeOnlyWindow(session.Stop("cleared"));
  const MutexSiteReport* site = FindMutex(window, "ProfileTest::cleared");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->acquisitions, 7u);

  TraceCollector::Global().Clear();
  const TraceDump dump = ParseTracezDump(ErrorDumpJson());
  ASSERT_EQ(dump.windows.size(), 1u);
  EXPECT_EQ(FindMutex(AnalyzeProfileWindow(dump.windows[0]),
                      "ProfileTest::cleared"),
            nullptr);
}

#if defined(IQ_TRACING_ENABLED)

TEST(ProfileTest, ChunkSpansThroughPoolAndSerialFallback) {
  ProfilingScope scope;
  ThreadPool pool(2);
  ProfileSession session;
  session.Start();

  constexpr int64_t kItems = 512;
  std::atomic<int64_t> touched{0};
  pool.ParallelFor(
      kItems,
      [&touched](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          touched.fetch_add(1, std::memory_order_relaxed);
        }
        SpinFor(20'000);
      },
      "profile_test.pooled");
  ParallelForOrSerial(
      nullptr, 64,
      [](int64_t, int64_t) { SpinFor(50'000); }, "profile_test.serial");

  const ProfileAnalysis report = AnalyzeOnlyWindow(session.Stop("spans"));
  EXPECT_EQ(touched.load(), kItems);

  const ParallelSiteReport* pooled = FindSite(report, "profile_test.pooled");
  ASSERT_NE(pooled, nullptr);
  EXPECT_EQ(pooled->calls, 1u);
  EXPECT_GT(pooled->chunks, 1u);  // over-decomposed: several chunks even @2
  EXPECT_EQ(pooled->items, kItems);  // every chunk executed exactly once
  EXPECT_GT(pooled->busy_nanos, 0u);
  EXPECT_GE(pooled->max_chunk_nanos, pooled->median_chunk_nanos);
  EXPECT_GE(pooled->imbalance, 1.0);

  // The serial fallback records one covering span, so serial runs still
  // measure the Amdahl ceiling.
  const ParallelSiteReport* serial = FindSite(report, "profile_test.serial");
  ASSERT_NE(serial, nullptr);
  EXPECT_EQ(serial->calls, 1u);
  EXPECT_EQ(serial->chunks, 1u);
  EXPECT_EQ(serial->items, 64);
  EXPECT_GE(serial->busy_nanos, 50'000u);

  // Both regions ran, so parallel coverage is nonzero and the serial
  // fraction strictly below 1; dropped must be zero at this scale.
  EXPECT_GT(report.coverage_nanos, 0u);
  EXPECT_LT(report.serial_fraction, 1.0);
  EXPECT_EQ(report.dropped_records, 0u);
  EXPECT_GT(report.ProjectedSpeedup(8), 1.0);
}

TEST(ProfileTest, ChunkImbalanceCollapsesUnderDynamicPolicy) {
  // Contention-injection differential for work stealing: the same
  // heavy-tailed workload (16 items spinning ~20ms, 176 items ~2us — the
  // shape once measured on greedy.candidate_eval at ~140x) is profiled
  // under both chunk policies. Static chunking must report a pathological
  // max/median chunk ratio (the whole heavy head lands in the first fixed
  // chunk) while dynamic claiming collapses it: heavy items become
  // standalone spans and cheap items aggregate into spans of comparable
  // duration (thread_pool.cc's 200us span target), so max ~= median.
  // Heavy items are 20ms, not smaller, so that on an oversubscribed box
  // (5 spinning participants on 1 core) the worst-case rescheduling delay a
  // span can absorb after its spin deadline (~a round of peer timeslices,
  // ~16ms observed) stays well under the 4x dynamic-imbalance bound.
  ProfilingScope scope;
  ThreadPool pool(4);
  constexpr int64_t kItems = 192;
  auto heavy_tailed = [](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      SpinFor(i < 16 ? 20'000'000 : 2'000);
    }
  };

  ProfileSession session;
  session.Start();
  pool.ParallelFor(kItems, heavy_tailed, "profile_test.static_tail",
                   ChunkPolicy::kStatic);
  pool.ParallelFor(kItems, heavy_tailed, "profile_test.dynamic_tail",
                   ChunkPolicy::kDynamic);
  const TraceDump dump = ParseTracezDump(session.Stop("chunk-policy"));
  ASSERT_EQ(dump.windows.size(), 1u);
  const ProfileAnalysis report = AnalyzeProfileWindow(dump.windows[0]);
  const ParallelSiteReport* stat =
      FindSite(report, "profile_test.static_tail");
  const ParallelSiteReport* dyn =
      FindSite(report, "profile_test.dynamic_tail");
  ASSERT_NE(stat, nullptr);
  ASSERT_NE(dyn, nullptr);

  EXPECT_EQ(stat->items, kItems);
  EXPECT_EQ(dyn->items, kItems);
  // Static: one claim per fixed chunk, never beyond the fair share.
  EXPECT_EQ(stat->claims, stat->chunks);
  EXPECT_EQ(stat->steals, 0u);
  // Dynamic: one claim per item, and the fast participants must have
  // claimed beyond their fair share ((192+4)/5 = 39 items) to cover for
  // the stragglers stuck on the heavy head.
  EXPECT_EQ(dyn->claims, static_cast<uint64_t>(kItems));
  EXPECT_GT(dyn->steals, 0u);
  EXPECT_LT(dyn->steals, dyn->claims);

  // The headline assertion: imbalance >50x static, <4x dynamic.
  EXPECT_GT(stat->imbalance, 50.0)
      << "static max " << stat->max_chunk_nanos << " median "
      << stat->median_chunk_nanos;
  EXPECT_LT(dyn->imbalance, 4.0)
      << "dynamic max " << dyn->max_chunk_nanos << " median "
      << dyn->median_chunk_nanos;

  // The counters reach iq_trace's machine report and its text report.
  EXPECT_NE(TraceReportJson(dump).find(StrFormat(
                "\"claims\": %llu, \"steals\": %llu",
                static_cast<unsigned long long>(dyn->claims),
                static_cast<unsigned long long>(dyn->steals))),
            std::string::npos);
  EXPECT_NE(FormatTraceReport(dump, 4).find("claims stolen"),
            std::string::npos);
}

TEST(ProfileTest, StealCountersRoundTripThroughProfilezEndpoint) {
  ProfilingScope scope;
  ThreadPool pool(2);
  prof::SetEnabled(true);
  TraceCollector::Global().SetEnabled(true);
  pool.ParallelFor(
      64,
      [](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          SpinFor(i == 0 ? 400'000 : 2'000);
        }
      },
      "profile_test.profilez_steals", ChunkPolicy::kDynamic);
  const std::string body = Body(ExporterResponseForPath("/profilez", 0));

  const ProfileAnalysis report = AnalyzeOnlyWindow(body);
  const ParallelSiteReport* site =
      FindSite(report, "profile_test.profilez_steals");
  ASSERT_NE(site, nullptr);
  // One claim per item under dynamic claiming; the dump carries the
  // claim/steal args (steals may be zero on a one-core box, so assert
  // consistency rather than a positive count here).
  EXPECT_EQ(site->calls, 1u);
  EXPECT_EQ(site->items, 64);
  EXPECT_EQ(site->claims, 64u);
  EXPECT_LE(site->steals, site->claims);
  EXPECT_NE(body.find("\"arg2\":"), std::string::npos);
}

TEST(ProfileTest, WorkerTimelineRecordsPoolActivity) {
  // Per-thread busy/idle is derived from the union of each thread's chunk
  // spans: every thread that ran chunks is busy for part of the window,
  // and busy + idle is exactly the window.
  ProfilingScope scope;
  ThreadPool pool(2);
  ProfileSession session;
  session.Start();
  for (int round = 0; round < 4; ++round) {
    pool.ParallelFor(
        128, [](int64_t, int64_t) { SpinFor(5'000); },
        "profile_test.timeline");
  }
  const ProfileAnalysis report = AnalyzeOnlyWindow(session.Stop("timeline"));
  ASSERT_FALSE(report.threads.empty());
  for (const ThreadBusyReport& t : report.threads) {
    EXPECT_GT(t.tid, 0);
    EXPECT_GT(t.busy_nanos, 0u);
    EXPECT_EQ(t.busy_nanos + t.idle_nanos, report.window_nanos);
  }
}

#endif  // IQ_TRACING_ENABLED

TEST(ProfileTest, ReportJsonRoundTrip) {
  // A hand-written window: two ParallelFor calls at one site (chunks of
  // 100/100/400 us), a stray span that is not a chunk, three holds of one
  // mutex (one carrying 10 us held before a CondVar wait) and a hold picked
  // up at a wake-up (wait -1).
  const std::string window = R"(
{"profile_window": {"label": "threads=4", "enabled": true, "start_ns": 1000, "dur_ns": 1000000, "dropped_records": 7}},
{"span": {"trace_id": 0, "span_id": 1, "parent_span_id": 0, "name": "ParallelFor", "tid": 1, "start_ns": 1000, "dur_ns": 300000, "arg0": 40}},
{"span": {"trace_id": 0, "span_id": 2, "parent_span_id": 1, "name": "engine.solve_batch", "tid": 1, "start_ns": 1000, "dur_ns": 100000, "arg0": 20, "arg1": 20, "arg2": 0}},
{"span": {"trace_id": 0, "span_id": 3, "parent_span_id": 1, "name": "engine.solve_batch", "tid": 2, "start_ns": 1000, "dur_ns": 100000, "arg0": 20, "arg1": 20, "arg2": 3}},
{"span": {"trace_id": 0, "span_id": 4, "parent_span_id": 0, "name": "ParallelFor", "tid": 1, "start_ns": 501000, "dur_ns": 400000, "arg0": 1}},
{"span": {"trace_id": 0, "span_id": 5, "parent_span_id": 4, "name": "engine.solve_batch", "tid": 1, "start_ns": 501000, "dur_ns": 400000, "arg0": 1, "arg1": 1, "arg2": 0}},
{"span": {"trace_id": 0, "span_id": 6, "parent_span_id": 5, "name": "MinCostIq", "tid": 1, "start_ns": 502000, "dur_ns": 1000}},
{"span": {"trace_id": 0, "span_id": 0, "parent_span_id": 0, "name": "IqEngine::mu_", "tid": 1, "start_ns": 2000, "dur_ns": 40000, "arg0": 100, "arg1": 0, "arg2": 0}},
{"span": {"trace_id": 0, "span_id": 0, "parent_span_id": 0, "name": "IqEngine::mu_", "tid": 2, "start_ns": 50000, "dur_ns": 30000, "arg0": 100, "arg1": 900, "arg2": 0}},
{"span": {"trace_id": 0, "span_id": 0, "parent_span_id": 0, "name": "IqEngine::mu_", "tid": 2, "start_ns": 90000, "dur_ns": 8000, "arg0": 100, "arg1": 600, "arg2": 10000}},
{"span": {"trace_id": 0, "span_id": 0, "parent_span_id": 0, "name": "ThreadPool::mu_", "tid": 3, "start_ns": 95000, "dur_ns": 5000, "arg0": 200, "arg1": -1, "arg2": 0}})";
  const TraceDump dump = ParseTracezDump(window);
  ASSERT_EQ(dump.windows.size(), 1u);
  EXPECT_FALSE(dump.tracez());
  const ParsedProfileWindow& w = dump.windows[0];
  EXPECT_EQ(w.label, "threads=4");
  EXPECT_TRUE(w.enabled);
  EXPECT_EQ(w.start_ns, 1000u);
  EXPECT_EQ(w.dur_ns, 1000000u);
  EXPECT_EQ(w.dropped_records, 7u);
  ASSERT_EQ(w.spans.size(), 10u);
  EXPECT_EQ(w.spans[2].arg2, 3);
  EXPECT_EQ(w.spans[9].arg1, -1);

  const ProfileAnalysis a = AnalyzeProfileWindow(w);
  // The holds sum into one row per mutex, ranked by wait.
  ASSERT_EQ(a.mutexes.size(), 2u);
  const MutexSiteReport& engine = a.mutexes[0];
  EXPECT_EQ(engine.label, "IqEngine::mu_");
  EXPECT_EQ(engine.rank, "kEngine");
  EXPECT_EQ(engine.acquisitions, 3u);
  EXPECT_EQ(engine.contended, 2u);
  EXPECT_EQ(engine.wait_nanos, 1500u);
  EXPECT_EQ(engine.max_wait_nanos, 900u);
  EXPECT_EQ(engine.held_nanos, 88000u);  // 40 + 30 + 8 + 10 carried us
  const MutexSiteReport& pool = a.mutexes[1];
  EXPECT_EQ(pool.label, "ThreadPool::mu_");
  EXPECT_EQ(pool.rank, "kPoolQueue");
  EXPECT_EQ(pool.acquisitions, 0u);  // picked up at a wake-up
  EXPECT_EQ(pool.wait_nanos, 0u);
  EXPECT_EQ(pool.held_nanos, 5000u);
  EXPECT_EQ(a.total_wait_nanos, 1500u);
  ASSERT_EQ(a.parallel_sites.size(), 1u);
  const ParallelSiteReport& p = a.parallel_sites[0];
  EXPECT_EQ(p.site, "engine.solve_batch");
  EXPECT_EQ(p.calls, 2u);
  EXPECT_EQ(p.chunks, 3u);
  EXPECT_EQ(p.items, 41);
  EXPECT_EQ(p.busy_nanos, 600000u);
  EXPECT_EQ(p.coverage_nanos, 500000u);
  EXPECT_EQ(p.median_chunk_nanos, 100000u);
  EXPECT_EQ(p.max_chunk_nanos, 400000u);
  EXPECT_NEAR(p.imbalance, 4.0, 1e-9);
  EXPECT_EQ(p.claims, 41u);
  EXPECT_EQ(p.steals, 3u);
  EXPECT_EQ(a.coverage_nanos, 500000u);
  EXPECT_NEAR(a.serial_fraction, 0.5, 1e-9);
  EXPECT_NEAR(a.ProjectedSpeedup(2), 1.0 / 0.75, 1e-9);
  ASSERT_EQ(a.threads.size(), 2u);
  EXPECT_EQ(a.threads[0].tid, 1);
  EXPECT_EQ(a.threads[0].busy_nanos, 500000u);
  EXPECT_EQ(a.threads[1].busy_nanos, 100000u);
  EXPECT_EQ(a.threads[1].idle_nanos, 900000u);

  // A multi-window dump (the micro_parallel --profile= framing) parses
  // into one window per profile_window line, ignoring run metadata.
  const std::string dump_text =
      "{\"bench\":\"micro_parallel\",\"run\":{\"git_sha\": \"abc\", "
      "\"num_threads\": 1},\n\"profiles\": [" +
      window + "," + window + "\n]}\n";
  EXPECT_EQ(ParseTracezDump(dump_text).windows.size(), 2u);
}

TEST(ProfileTest, ProfilezEndpointShape) {
  ProfilingScope scope;
  // Disabled: a placeholder window, still labeled and valid.
  std::string response = ExporterResponseForPath("/profilez", 0);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_TRUE(IsStructurallyValidJson(Body(response)));
  TraceDump dump = ParseTracezDump(Body(response));
  ASSERT_EQ(dump.windows.size(), 1u);
  EXPECT_EQ(dump.windows[0].label, "live");
  EXPECT_FALSE(dump.windows[0].enabled);
  EXPECT_NE(ProfileVerdict(AnalyzeProfileWindow(dump.windows[0]))
                .find("no profile data"),
            std::string::npos);

  // Enabled: the live window carries the mutex's hold span and — with
  // tracing on — the serial fallback's chunk span.
  prof::SetEnabled(true);
  TraceCollector::Global().SetEnabled(true);
  Mutex mu(LockRank::kLeaf, "ProfileTest::profilez");
  { MutexLock lock(&mu); }
  ParallelForOrSerial(
      nullptr, 8, [](int64_t, int64_t) { SpinFor(10'000); },
      "profile_test.profilez");
  response = ExporterResponseForPath("/profilez", 0);
  EXPECT_TRUE(IsStructurallyValidJson(Body(response)));
  dump = ParseTracezDump(Body(response));
  ASSERT_EQ(dump.windows.size(), 1u);
  EXPECT_TRUE(dump.windows[0].enabled);
  const ProfileAnalysis a = AnalyzeProfileWindow(dump.windows[0]);
  EXPECT_NE(FindMutex(a, "ProfileTest::profilez"), nullptr);
#if defined(IQ_TRACING_ENABLED)
  EXPECT_NE(FindSite(a, "profile_test.profilez"), nullptr);
  EXPECT_LT(a.serial_fraction, 1.0);
#endif
}

TEST(ProfileTest, SerializationReportShape) {
  // One window: a single 300us chunk in a 1ms window (serial fraction 0.7)
  // and negligible lock wait -> the serial-fraction ceiling verdict.
  const TraceDump dump = ParseTracezDump(R"(
{"profile_window": {"label": "threads=8", "enabled": true, "start_ns": 0, "dur_ns": 1000000, "dropped_records": 0}},
{"span": {"trace_id": 0, "span_id": 0, "parent_span_id": 0, "name": "IqEngine::mu_", "tid": 1, "start_ns": 0, "dur_ns": 5000, "arg0": 100, "arg1": 1000, "arg2": 0}},
{"span": {"trace_id": 0, "span_id": 1, "parent_span_id": 0, "name": "ParallelFor", "tid": 1, "start_ns": 0, "dur_ns": 300000, "arg0": 64}},
{"span": {"trace_id": 0, "span_id": 2, "parent_span_id": 1, "name": "engine.solve_batch", "tid": 1, "start_ns": 0, "dur_ns": 300000, "arg0": 64, "arg1": 1, "arg2": 0}})");

  const std::string text = FormatTraceReport(dump, 5);
  EXPECT_NE(text.find("profile threads=8"), std::string::npos);
  EXPECT_NE(text.find("projected speedup"), std::string::npos);
  EXPECT_NE(text.find("IqEngine::mu_"), std::string::npos);
  EXPECT_NE(text.find("engine.solve_batch"), std::string::npos);
  EXPECT_NE(text.find("verdict:"), std::string::npos);
  EXPECT_NE(text.find("serial fraction 0.70 is the ceiling"),
            std::string::npos);
  // A profile-only dump renders no trace section.
  EXPECT_EQ(text.find("retained trace"), std::string::npos);

  const std::string json = TraceReportJson(dump);
  EXPECT_TRUE(IsStructurallyValidJson(json));
  EXPECT_NE(json.find("\"iq_trace\""), std::string::npos);
  EXPECT_NE(json.find("\"num_profiles\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"profile_verdict\": \"serial fraction 0.70"),
            std::string::npos);
  EXPECT_NE(json.find("\"profile_analysis\""), std::string::npos);

  EXPECT_NE(FormatTraceReport({}, 5).find("no retained traces or profile"),
            std::string::npos);
}

TEST(ProfileTest, VerdictPicksContentionWhenWaitDominates) {
  ProfileAnalysis r;
  r.label = "threads=4";
  r.window_nanos = 1000000;
  r.coverage_nanos = 900000;
  r.serial_fraction = 0.1;
  r.total_wait_nanos = 400000;  // 40% of the window blocked
  r.mutexes.push_back(
      {"IqEngine::mu_", "kEngine", 100, 80, 390000, 20000, 700000});
  r.mutexes.push_back({"MetricsRegistry::mu_", "kMetricsRegistry", 50, 1,
                       10000, 1000, 20000});
  const std::string verdict = ProfileVerdict(r);
  EXPECT_NE(verdict.find("lock contention"), std::string::npos);
  EXPECT_NE(verdict.find("IqEngine::mu_"), std::string::npos);
  EXPECT_NE(verdict.find("kEngine"), std::string::npos);
}

TEST(ProfileTest, ReportJsonEscapesHostileStrings) {
  // A hand-edited dump whose op, span name and error text carry a
  // backslash and a quote (JSON-escaped in the dump), plus a second trace
  // whose op ends in a lone backslash that escapes its closing quote. Every
  // string iq_trace writes back must be escaped, so the machine report
  // stays valid JSON.
  const std::string dump_text = R"({"tracez": {
"config": {"slow_trace_nanos": 1, "max_retained": 8},
"counters": {"dropped": 0, "slow_retained": 2, "discarded": 0},
"traces": [
{"trace_summary": {"trace_id": 7, "op": "evil\\op\"x\\", "start_ns": 0, "dur_ns": 100, "erred": true, "num_spans": 1, "num_threads": 1, "error": "Internal: \"q\" \\ done"}},
{"span": {"trace_id": 7, "span_id": 7, "parent_span_id": 0, "name": "evil\\op\"x\\", "tid": 1, "start_ns": 0, "dur_ns": 100}},
{"trace_summary": {"trace_id": 8, "op": "trailing\", "start_ns": 0, "dur_ns": 100, "erred": false, "num_spans": 0, "num_threads": 0}}
]
}})";
  const TraceDump dump = ParseTracezDump(dump_text);
  ASSERT_EQ(dump.traces.size(), 2u);
  EXPECT_EQ(dump.traces[0].op, "evil\\op\"x\\");
  ASSERT_EQ(dump.traces[0].spans.size(), 1u);
  EXPECT_EQ(dump.traces[0].spans[0].name, "evil\\op\"x\\");
  EXPECT_EQ(dump.traces[0].error, "Internal: \"q\" \\ done");

  const std::string json = TraceReportJson(dump);
  EXPECT_TRUE(IsStructurallyValidJson(json)) << json;
  EXPECT_NE(json.find(R"("op": "evil\\op\"x\\")"), std::string::npos);
  EXPECT_NE(json.find(R"("name": "evil\\op\"x\\")"), std::string::npos);
  EXPECT_NE(json.find(R"("error": "Internal: \"q\" \\ done")"),
            std::string::npos);
}

}  // namespace
}  // namespace iq
