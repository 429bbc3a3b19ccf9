#ifndef IQ_UTIL_PROF_H_
#define IQ_UTIL_PROF_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/lock_rank.h"

// Mutex-contention capture (DESIGN.md §11): lock-free per-thread recording
// of mutex acquisition outcomes — wait time on contended Lock() calls and
// held time, keyed by (LockRank, construction-site label). This is the one
// thing trace spans cannot see; ParallelFor chunks are ordinary trace spans
// (util/thread_pool.h's span seam), and a profile window (obs/trace.h
// ProfileSession) joins both.
//
// It lives in util because iq::Mutex (util) is the instrumented object and
// util may not depend on obs.
//
// Cost discipline: everything here is behind one process-global flag.
// With profiling off (the default) the only residue on the hot path is a
// single relaxed atomic load + predictable branch in Mutex::Lock/Unlock
// (bench/micro_solver.cc BM_MutexProfileOverhead gates the regression at
// <2%). With profiling on, an *uncontended* Lock() is a try_lock plus one
// slot update; only a contended Lock() pays for a timer. Capture storage is
// fixed-size and lock-free (claimed with atomic counters), so recording
// never takes a lock and never allocates — a profiler that serializes the
// paths it measures would be useless here.

namespace iq {
namespace prof {

/// Process-global profiling switch. Zero-initialized before any dynamic
/// initializer runs, so mutexes constructed during static init see a
/// consistent "off".
extern std::atomic<bool> g_enabled;

inline bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

/// Turns capture on/off. Enabling bumps the capture epoch (stale per-thread
/// hold records from a previous window are discarded lazily) and stamps the
/// window start readable via EnabledSinceNanos().
void SetEnabled(bool on);

/// MonotonicNanos() of the most recent SetEnabled(true); 0 when profiling
/// was never enabled.
uint64_t EnabledSinceNanos();

/// Drops all captured mutex slots. Callers must ensure no capture is
/// concurrently active (disable first, or own every recording thread) — the
/// benches and ProfileSession do.
void Reset();

/// Accumulated outcomes for one mutex construction site, merged across
/// threads (safe to snapshot while capture is running).
struct MutexSiteStats {
  LockRank rank = LockRank::kLeaf;
  const char* label = nullptr;  // static string; never null in a snapshot
  uint64_t acquisitions = 0;    // profiled Lock()/TryLock() successes
  uint64_t contended = 0;       // of which blocked on another holder
  uint64_t wait_nanos = 0;      // total time blocked acquiring
  uint64_t max_wait_nanos = 0;  // worst single wait
  uint64_t held_nanos = 0;      // total time held (CondVar waits excluded)
};
std::vector<MutexSiteStats> SnapshotMutexSites();

/// Acquisitions that did not fit the fixed slot tables since the last Reset
/// (reported so a truncated profile cannot read as a complete one).
uint64_t DroppedRecords();

// ---- capture hooks (called by iq::Mutex / CondVar; not user API) ----

namespace internal {

/// Records a profiled acquisition: wait_nanos == 0 means the fast
/// uncontended try_lock path. Pushes a hold record for held-time tracking.
void OnAcquired(const void* mu, LockRank rank, const char* label,
                uint64_t wait_nanos);

/// Ends the hold record pushed by OnAcquired (no-op when the acquisition
/// was not profiled, e.g. profiling toggled on mid-hold).
void OnReleased(const void* mu);

/// CondVar::Wait bracket: the waiter releases the mutex for the duration,
/// so held-time accounting pauses at Begin and resumes at End.
void OnCondWaitBegin(const void* mu);
void OnCondWaitEnd(const void* mu, LockRank rank, const char* label);

}  // namespace internal
}  // namespace prof
}  // namespace iq

#endif  // IQ_UTIL_PROF_H_
