#include "util/prof.h"

#include "util/annotations.h"
#include "util/timer.h"

namespace iq {
namespace prof {
namespace {

std::atomic<uint64_t> g_enabled_since_ns{0};
std::atomic<HoldRecorder> g_hold_recorder{nullptr};

}  // namespace

std::atomic<bool> g_enabled{false};

void SetEnabled(bool on) {
  if (on) {
    g_enabled_since_ns.store(MonotonicNanos(), std::memory_order_relaxed);
  }
  g_enabled.store(on, std::memory_order_relaxed);
}

uint64_t EnabledSinceNanos() {
  return g_enabled_since_ns.load(std::memory_order_relaxed);
}

void SetHoldRecorder(HoldRecorder recorder) {
  g_hold_recorder.store(recorder, std::memory_order_relaxed);
}

void RecordHold(const Hold& hold) {
  const HoldRecorder recorder = g_hold_recorder.load(std::memory_order_relaxed);
  if (recorder != nullptr) recorder(hold);
}

}  // namespace prof

// iq::Mutex's profiled lock paths (util/annotations.h), kept out of line.

void Mutex::StartHold(int64_t wait_ns) {
  if (prof::Unprofiled::active()) return;
  hold_ = prof::HoldClock{MonotonicNanos(), wait_ns, 0};
}

void Mutex::LockProfiled() {
  uint64_t wait_ns = 0;  // uncontended: the try_lock won
  if (!mu_.try_lock()) {
    const uint64_t t0 = MonotonicNanos();
    mu_.lock();
    wait_ns = MonotonicNanos() - t0;
  }
  StartHold(static_cast<int64_t>(wait_ns));
}

prof::Hold Mutex::EndHold() {
  const prof::Hold hold{label_ != nullptr ? label_ : LockRankName(rank_),
                        rank_, MonotonicNanos(), hold_};
  hold_.start_ns = 0;
  return hold;
}

prof::HoldClock Mutex::ParkHold() {
  prof::HoldClock parked = hold_;
  if (parked.start_ns != 0) {
    parked.carried_ns += MonotonicNanos() - parked.start_ns;
    hold_.start_ns = 0;
  }
  return parked;
}

void Mutex::ResumeHold(prof::HoldClock parked) {
  if (parked.start_ns != 0) {
    parked.start_ns = MonotonicNanos();
    hold_ = parked;
  } else if (prof::Enabled()) {
    StartHold(/*wait_ns=*/-1);  // picked up at a wake-up: no acquisition
  }
}

}  // namespace iq
