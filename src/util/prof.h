#ifndef IQ_UTIL_PROF_H_
#define IQ_UTIL_PROF_H_

#include <atomic>
#include <cstdint>

#include "util/lock_rank.h"

// Mutex-hold profiling (DESIGN.md §11.1). While the switch is on, every
// iq::Mutex hold becomes one flat trace span named by the mutex's label.
// A hold has one owner, so the holder keeps its clock in the mutex itself,
// and the release hands the finished hold to the recorder src/obs/trace.cc
// installs (util may not include obs: the ThreadPool::SetSpanRecorder
// seam pattern). With profiling off, Lock() pays one relaxed load and a
// branch, Unlock() one test of the hold's clock (bench/micro_solver.cc
// BM_MutexProfileOverhead gates both); on, an uncontended Lock() is a
// try_lock plus a clock read, and the release is one ring write.

namespace iq {
namespace prof {

/// Process-global profiling switch. Zero-initialized before any dynamic
/// initializer runs, so mutexes constructed during static init see a
/// consistent "off".
extern std::atomic<bool> g_enabled;

inline bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

/// Turns capture on/off; on stamps EnabledSinceNanos(). A hold is recorded
/// only if its acquisition, or its wake-up from a CondVar wait, saw it on.
void SetEnabled(bool on);

/// MonotonicNanos() of the most recent SetEnabled(true); 0 when profiling
/// was never enabled.
uint64_t EnabledSinceNanos();

/// The clock of the current hold, written only by the mutex's holder:
/// `start_ns` is its acquisition or its wake-up from the last CondVar wait
/// (0: the hold is not profiled), `wait_ns` the time blocked acquiring (-1:
/// picked up at a wake-up, which counts no acquisition), and `carried_ns`
/// the time held before the last CondVar wait (parked time excluded).
struct HoldClock {
  uint64_t start_ns = 0;
  int64_t wait_ns = 0;
  uint64_t carried_ns = 0;
};

/// One finished hold, as the release hands it to the recorder.
struct Hold {
  const char* label;  // construction-site label, or the rank name
  LockRank rank;
  uint64_t end_ns;
  HoldClock clock;
};

/// Installs the hold recorder (nullptr detaches). RecordHold hands it a
/// finished hold; Mutex::Unlock calls it last, after the native unlock and
/// the Debug rank-stack pop.
using HoldRecorder = void (*)(const Hold& hold);
void SetHoldRecorder(HoldRecorder recorder);
void RecordHold(const Hold& hold);

/// While one is alive, the calling thread's iq::Mutex acquisitions are not
/// profiled. The trace collector takes its own locks under one: a hold is
/// recorded under those very locks.
class Unprofiled {
 public:
  Unprofiled() { ++depth_; }
  ~Unprofiled() { --depth_; }
  static bool active() { return depth_ > 0; }

 private:
  static inline thread_local int depth_ = 0;
};

}  // namespace prof
}  // namespace iq

#endif  // IQ_UTIL_PROF_H_
