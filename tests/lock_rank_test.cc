// Ranked-mutex deadlock detector tests (DESIGN.md §10). The detector only
// exists in Debug builds (NDEBUG compiles it down to plain std::mutex
// operations), so everything that asserts on the held stack or provokes an
// abort is gated on #ifndef NDEBUG; the structural tests (MutexLockPair
// semantics, CondVar wakeups) run in every build type.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/annotations.h"
#include "util/lock_rank.h"

namespace iq {
namespace {

TEST(LockRankTest, InOrderAcquisitionPasses) {
  Mutex outer(LockRank::kEngine);
  Mutex middle(LockRank::kPoolQueue);
  Mutex inner(LockRank::kMetricsRegistry);
  {
    MutexLock a(&outer);
    MutexLock b(&middle);
    MutexLock c(&inner);
#ifndef NDEBUG
    EXPECT_EQ(lock_rank_internal::HeldCount(), 3);
#endif
  }
#ifndef NDEBUG
  EXPECT_EQ(lock_rank_internal::HeldCount(), 0);
#endif
}

TEST(LockRankTest, RanksAreIndependentPerThread) {
  // A low-rank acquisition on another thread is fine even while this
  // thread holds a high rank — the discipline is per-thread.
  Mutex high(LockRank::kMetricsRegistry);
  Mutex low(LockRank::kEngine);
  MutexLock lock(&high);
  std::thread other([&low] {
    MutexLock inner(&low);
#ifndef NDEBUG
    EXPECT_EQ(lock_rank_internal::HeldCount(), 1);
#endif
  });
  other.join();
}

TEST(LockRankTest, TryLockTracksRank) {
  Mutex mu(LockRank::kLeaf);
  ASSERT_TRUE(mu.TryLock());
#ifndef NDEBUG
  EXPECT_EQ(lock_rank_internal::HeldCount(), 1);
#endif
  mu.Unlock();
#ifndef NDEBUG
  EXPECT_EQ(lock_rank_internal::HeldCount(), 0);
#endif
}

TEST(MutexLockPairTest, SameRankPairInEitherArgumentOrder) {
  Mutex a(LockRank::kEngine);
  Mutex b(LockRank::kEngine);
  {
    MutexLockPair pair(&a, &b);
#ifndef NDEBUG
    EXPECT_EQ(lock_rank_internal::HeldCount(), 2);
#endif
  }
  {
    // Argument order must not matter — the pair imposes address order.
    MutexLockPair pair(&b, &a);
#ifndef NDEBUG
    EXPECT_EQ(lock_rank_internal::HeldCount(), 2);
#endif
  }
#ifndef NDEBUG
  EXPECT_EQ(lock_rank_internal::HeldCount(), 0);
#endif
}

TEST(MutexLockPairTest, SelfPairLocksOnce) {
  // The a == b case is what engine self-move-assignment hits.
  Mutex mu(LockRank::kEngine);
  MutexLockPair pair(&mu, &mu);
#ifndef NDEBUG
  EXPECT_EQ(lock_rank_internal::HeldCount(), 1);
#endif
}

TEST(MutexLockPairTest, CrossThreadPairCannotDeadlock) {
  // Two threads pairing the same two same-rank mutexes in opposite
  // argument orders: without address ordering this interleaving deadlocks;
  // with it both threads serialize. Loop to give an actual interleaving a
  // chance to happen.
  Mutex a(LockRank::kEngine);
  Mutex b(LockRank::kEngine);
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) {
        MutexLockPair pair(t == 0 ? &a : &b, t == 0 ? &b : &a);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MutexLockPair check(&a, &b);
  EXPECT_EQ(counter, 2000);
}

TEST(CondVarTest, WaitReleasesAndReacquires) {
  Mutex mu(LockRank::kLeaf);
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(mu);
#ifndef NDEBUG
    EXPECT_EQ(lock_rank_internal::HeldCount(), 1);
#endif
    EXPECT_TRUE(ready);
  }
  waker.join();
}

#ifndef NDEBUG

using LockRankDeathTest = ::testing::Test;

TEST(LockRankDeathTest, OutOfOrderAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex inner(LockRank::kMetricsRegistry);
  Mutex outer(LockRank::kEngine);
  EXPECT_DEATH(
      {
        MutexLock a(&inner);
        MutexLock b(&outer);  // rank decreases: must abort
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, SameRankWithoutPairAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex a(LockRank::kEngine);
  Mutex b(LockRank::kEngine);
  EXPECT_DEATH(
      {
        MutexLock first(&a);
        MutexLock second(&b);  // same rank outside MutexLockPair: abort
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, ReacquireAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu(LockRank::kLeaf);
  EXPECT_DEATH(
      {
        mu.Lock();
        mu.Lock();  // self-deadlock: reported, not hung
      },
      "lock-rank violation: re-acquiring");
}

TEST(LockRankDeathTest, ViolationReportNamesBothRanks) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex inner(LockRank::kMetricsRegistry);
  Mutex outer(LockRank::kPoolQueue);
  // The report prints the offending rank and the held stack, outermost
  // first, so the fix (reorder or re-rank) is readable from the abort.
  EXPECT_DEATH(
      {
        MutexLock a(&inner);
        MutexLock b(&outer);
      },
      "kPoolQueue.*while holding(.|\n)*kMetricsRegistry");
}

#endif  // NDEBUG

}  // namespace
}  // namespace iq
