#include "util/lock_rank.h"

#include <cstdio>
#include <cstdlib>
#include <functional>

namespace iq {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kEngine:
      return "kEngine";
    case LockRank::kPoolQueue:
      return "kPoolQueue";
    case LockRank::kPoolError:
      return "kPoolError";
    case LockRank::kPoolDone:
      return "kPoolDone";
    case LockRank::kExporter:
      return "kExporter";
    case LockRank::kMetricsRegistry:
      return "kMetricsRegistry";
    case LockRank::kTraceRegistry:
      return "kTraceRegistry";
    case LockRank::kTraceBuffer:
      return "kTraceBuffer";
    case LockRank::kTraceStore:
      return "kTraceStore";
    case LockRank::kLeaf:
      return "kLeaf";
  }
  return "?";
}

namespace lock_rank_internal {
namespace {

struct HeldLock {
  const void* mu;
  LockRank rank;
};

/// Per-thread stack of held (mutex, rank) pairs. A fixed array keeps the
/// thread_local trivially destructible — the detector may run from static
/// destructors. 64 simultaneous locks per thread is far beyond anything the
/// engine does (it peaks at 3).
struct HeldStack {
  static constexpr int kMax = 64;
  HeldLock entries[kMax];
  int size = 0;
};

thread_local HeldStack t_held;

[[noreturn]] void Violation(const char* what, const void* mu, LockRank rank) {
  const HeldStack& s = t_held;
  std::fprintf(stderr,
               "lock-rank violation: %s %s (rank %d, mutex %p) while "
               "holding, outermost first:\n",
               what, LockRankName(rank), static_cast<int>(rank), mu);
  for (int i = 0; i < s.size; ++i) {
    std::fprintf(stderr, "  [%d] %s (rank %d, mutex %p)\n", i,
                 LockRankName(s.entries[i].rank),
                 static_cast<int>(s.entries[i].rank), s.entries[i].mu);
  }
  std::fprintf(stderr,
               "lock-rank violation: acquisition order must strictly "
               "increase in rank (see util/lock_rank.h / DESIGN.md §10)\n");
  std::fflush(stderr);
  std::abort();
}

void Push(const void* mu, LockRank rank) {
  HeldStack& s = t_held;
  if (s.size >= HeldStack::kMax) Violation("overflow pushing", mu, rank);
  s.entries[s.size++] = HeldLock{mu, rank};
}

}  // namespace

void OnAcquire(const void* mu, LockRank rank) {
  HeldStack& s = t_held;
  if (s.size > 0) {
    const HeldLock& top = s.entries[s.size - 1];
    if (top.mu == mu) Violation("re-acquiring", mu, rank);
    if (rank <= top.rank) Violation("acquiring", mu, rank);
  }
  Push(mu, rank);
}

void OnAcquirePairSecond(const void* mu, LockRank rank, const void* first) {
  HeldStack& s = t_held;
  if (s.size > 0) {
    const HeldLock& top = s.entries[s.size - 1];
    const bool pair_ok = top.mu == first && rank == top.rank &&
                         std::less<const void*>{}(first, mu);
    if (!pair_ok && rank <= top.rank) {
      Violation("pair-acquiring", mu, rank);
    }
  }
  Push(mu, rank);
}

void OnRelease(const void* mu) {
  HeldStack& s = t_held;
  for (int i = s.size - 1; i >= 0; --i) {
    if (s.entries[i].mu != mu) continue;
    for (int j = i; j + 1 < s.size; ++j) s.entries[j] = s.entries[j + 1];
    --s.size;
    return;
  }
  // Releasing a lock this thread does not hold: either a cross-thread
  // unlock (never legal for std::mutex) or corrupted bookkeeping.
  Violation("releasing un-held", mu, LockRank::kLeaf);
}

int HeldCount() { return t_held.size; }

}  // namespace lock_rank_internal
}  // namespace iq

#if defined(__SANITIZE_THREAD__)
// libstdc++ 12's std::atomic<std::shared_ptr> (_Sp_atomic) guards its plain
// _M_ptr member with a spin-lock bit in the control-block word, but the
// load() path releases that bit with memory_order_relaxed. The lock bit
// gives real mutual exclusion (reads and writes of _M_ptr never overlap in
// time), yet the relaxed unlock leaves no happens-before edge in TSan's
// model, so every epoch-pointer load racing a publish is reported as a
// data race inside _Sp_atomic. The publish->pin direction does carry a
// release/acquire edge (store unlocks with release, load locks with
// acquire), so snapshot contents stay fully checked; only the library's
// own internal pointer word needs suppressing. This TU is pulled into
// every binary via the ranked-mutex runtime, so the suppression rides
// along with any TSan build.
extern "C" const char* __tsan_default_suppressions();
extern "C" const char* __tsan_default_suppressions() {
  return "race:_Sp_atomic\n";
}
#endif
