#ifndef IQ_UTIL_TIMER_H_
#define IQ_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace iq {

/// Nanoseconds on the process-wide monotonic clock. The one timestamp base
/// of every trace span (obs/trace.h), mutex holds (util/prof.h) included,
/// so a profile window can be clipped against span timestamps.
inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonic wall-clock stopwatch used by the benchmark harness and the
/// observability layer. This header (plus src/obs/) is the only sanctioned
/// direct user of std::chrono::steady_clock — tools/lint.sh enforces it.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

  /// Integer nanoseconds — the unit the obs::Histogram latency metrics use.
  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace iq

#endif  // IQ_UTIL_TIMER_H_
