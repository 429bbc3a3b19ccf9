#ifndef IQ_UTIL_ANNOTATIONS_H_
#define IQ_UTIL_ANNOTATIONS_H_

#include <condition_variable>
#include <functional>
#include <mutex>

#include "util/lock_rank.h"
#include "util/prof.h"

// Clang -Wthread-safety annotations (no-ops on other compilers), plus the
// annotated iq::Mutex / iq::MutexLock wrappers the engine's mutable state is
// guarded with. Keeping the wrapper in-house (instead of raw std::mutex)
// lets the analysis see every acquire/release site — tools/iq_lint bans raw
// std::mutex outside src/util/ so nothing escapes it — and lets Debug
// builds run the ranked-mutex deadlock detector (util/lock_rank.h) on every
// acquisition in the tree.

#if defined(__clang__)
#define IQ_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define IQ_THREAD_ANNOTATION_(x)
#endif

#define IQ_CAPABILITY(x) IQ_THREAD_ANNOTATION_(capability(x))
#define IQ_SCOPED_CAPABILITY IQ_THREAD_ANNOTATION_(scoped_lockable)
#define IQ_GUARDED_BY(x) IQ_THREAD_ANNOTATION_(guarded_by(x))
#define IQ_PT_GUARDED_BY(x) IQ_THREAD_ANNOTATION_(pt_guarded_by(x))
#define IQ_ACQUIRED_BEFORE(...) \
  IQ_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define IQ_ACQUIRED_AFTER(...) \
  IQ_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define IQ_REQUIRES(...) \
  IQ_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define IQ_REQUIRES_SHARED(...) \
  IQ_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define IQ_ACQUIRE(...) \
  IQ_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define IQ_RELEASE(...) \
  IQ_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define IQ_TRY_ACQUIRE(...) \
  IQ_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define IQ_EXCLUDES(...) IQ_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define IQ_ASSERT_CAPABILITY(x) IQ_THREAD_ANNOTATION_(assert_capability(x))
#define IQ_RETURN_CAPABILITY(x) IQ_THREAD_ANNOTATION_(lock_returned(x))
#define IQ_NO_THREAD_SAFETY_ANALYSIS \
  IQ_THREAD_ANNOTATION_(no_thread_safety_analysis)

// Documentation-only marker for members of externally-synchronized classes:
// the guarding mutex lives in the *owner* (e.g. SubdomainIndex's state is
// guarded by IqEngine::mu_), so clang's analysis cannot name it from here.
// The marker keeps the locking contract grep-able at the member and
// satisfies tools/iq_lint's unguarded-member check the same way a real
// IQ_GUARDED_BY does. `what` is free-form prose naming the owner's mutex.
#define IQ_GUARDED_BY_CALLER(what)

namespace iq {

/// std::mutex with thread-safety-analysis annotations, a deadlock-detecting
/// lock rank (util/lock_rank.h) and optional hold profiling (util/prof.h).
/// In Debug builds every Lock() checks the calling thread's held-rank stack
/// *before* blocking and aborts on any non-increasing acquisition. Every
/// build carries the current hold's clock (prof::HoldClock): with profiling
/// off (the default) Lock() adds one relaxed atomic load and a predictable
/// branch over std::mutex::lock(), and Unlock() one test of the clock; with
/// profiling on, an uncontended Lock() is a try_lock plus a clock read, only
/// a genuinely contended Lock() pays for wait timing, and the release
/// records the hold as one span.
class IQ_CAPABILITY("mutex") Mutex {
 public:
  /// Mutexes outside the engine's documented acquisition order default to
  /// LockRank::kLeaf; everything inside the tree names its rank. `label`
  /// identifies the construction site in profile reports ("IqEngine::mu_");
  /// it must be a string literal / static string, and defaults to the rank
  /// name when omitted.
  Mutex() = default;
  explicit Mutex(LockRank rank, const char* label = nullptr)
      : rank_(rank), label_(label) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() IQ_ACQUIRE() {
#ifndef NDEBUG
    lock_rank_internal::OnAcquire(this, rank_);
#endif
    if (prof::Enabled()) {
      LockProfiled();
      return;
    }
    mu_.lock();
  }
  void Unlock() IQ_RELEASE() {
    // Only a hold whose acquisition was profiled is recorded, so this tests
    // the hold's clock, not the global switch.
    if (hold_.start_ns == 0) {
      mu_.unlock();
      PopRank();
      return;
    }
    // The span's fields are copied before the native unlock: once released,
    // the mutex may be gone (a woken ParallelFor dispatcher frees its stack
    // done_mu). The rank pops before recording, which takes the trace ring
    // lock — ranked below a kLeaf mutex.
    const prof::Hold hold = EndHold();
    mu_.unlock();
    PopRank();
    prof::RecordHold(hold);
  }
  bool TryLock() IQ_TRY_ACQUIRE(true) {
    // TryLock cannot deadlock, but a try-acquisition against rank order is
    // still a smell the detector reports (strictness keeps the rank table
    // honest; nothing in the tree try-locks out of order).
    bool ok = mu_.try_lock();
#ifndef NDEBUG
    if (ok) lock_rank_internal::OnAcquire(this, rank_);
#endif
    if (ok && prof::Enabled()) StartHold(/*wait_ns=*/0);
    return ok;
  }

  LockRank rank() const { return rank_; }

 private:
  friend class CondVar;
  friend class MutexLockPair;

  /// For CondVar's wait (which must release/reacquire the native handle
  /// without disturbing the rank bookkeeping — the waiter logically still
  /// owns the slot) and MutexLockPair's ordered double acquisition.
  std::mutex& native() { return mu_; }

  void PopRank() {
#ifndef NDEBUG
    lock_rank_internal::OnRelease(this);
#endif
  }

  // Cold profiled paths, out-of-line in util/prof.cc. Each runs with the
  // native mutex held.
  /// Lock() with profiling on: try_lock, else a timed wait; starts the hold.
  void LockProfiled();
  /// Starts the clock of a profiled hold (no-op under prof::Unprofiled).
  void StartHold(int64_t wait_ns);
  /// Stops the clock: the finished hold, with label and rank copied out.
  prof::Hold EndHold();
  /// CondVar::Wait's bracket: the clock parks with the waiter — another
  /// thread may hold the mutex meanwhile — and resumes at wake-up, or starts
  /// there as a picked-up hold when profiling came on during the wait.
  prof::HoldClock ParkHold();
  void ResumeHold(prof::HoldClock parked);

  std::mutex mu_;
  LockRank rank_ = LockRank::kLeaf;
  const char* label_ = nullptr;
  prof::HoldClock hold_;  // guarded by mu_ itself: only the holder touches it
};

/// RAII lock; the scoped capability makes lock scope visible to the
/// analysis.
class IQ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) IQ_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() IQ_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// RAII two-lock acquisition for same-rank mutex pairs (the IqEngine
/// move-assignment case: both engines' state moves, so both engine-rank
/// locks must be held). Acquisition is in address order — the classic
/// symmetric-deadlock fix — and the deadlock detector admits the second
/// same-rank acquisition only through this path, so ad-hoc hand-rolled
/// double locking elsewhere still aborts in Debug builds. `a` and `b` may
/// be the same mutex (self-move): it is then locked once.
class IQ_SCOPED_CAPABILITY MutexLockPair {
 public:
  // The bodies are IQ_NO_THREAD_SAFETY_ANALYSIS because the analysis cannot
  // alias the address-swapped first_/second_ back to the declared (a, b)
  // capabilities; the interface attributes still govern every call site.
  MutexLockPair(Mutex* a, Mutex* b) IQ_ACQUIRE(a, b)
      IQ_NO_THREAD_SAFETY_ANALYSIS : first_(a), second_(b) {
    if (first_ == second_) {
      second_ = nullptr;
    } else if (std::less<Mutex*>{}(second_, first_)) {
      std::swap(first_, second_);
    }
    first_->Lock();
    if (second_ != nullptr) {
#ifndef NDEBUG
      lock_rank_internal::OnAcquirePairSecond(second_, second_->rank(),
                                              first_);
#endif
      second_->native().lock();
    }
  }

  ~MutexLockPair() IQ_RELEASE() IQ_NO_THREAD_SAFETY_ANALYSIS {
    if (second_ != nullptr) {
      second_->native().unlock();
#ifndef NDEBUG
      lock_rank_internal::OnRelease(second_);
#endif
    }
    first_->Unlock();
  }

  MutexLockPair(const MutexLockPair&) = delete;
  MutexLockPair& operator=(const MutexLockPair&) = delete;

 private:
  Mutex* first_;   // lower address, locked first
  Mutex* second_;  // higher address; nullptr when a == b
};

/// Condition variable paired with iq::Mutex. No predicate overload on
/// purpose: callers loop `while (!cond) cv.Wait(mu);` inside a MutexLock
/// scope, which keeps the guarded reads of `cond` visible to the
/// thread-safety analysis without any suppression. While blocked in Wait
/// the calling thread keeps its rank-stack entry for `mu` — conservative,
/// and exactly right for the re-acquisition on wake-up.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks; re-acquires before returning.
  /// Spurious wake-ups happen — always re-test the condition in a loop.
  /// A profiled hold excludes the blocked interval from its held time (the
  /// waiter does not hold the lock while parked, and an idle pool worker
  /// must not read as a lock hog). Wait records nothing: it holds `mu` at
  /// both ends, and a ring lock taken under a kLeaf `mu` would invert rank
  /// order.
  void Wait(Mutex& mu) IQ_REQUIRES(mu) {
    const prof::HoldClock parked = mu.ParkHold();
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    cv_.wait(native);
    native.release();
    mu.ResumeHold(parked);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace iq

#endif  // IQ_UTIL_ANNOTATIONS_H_
