#ifndef IQ_UTIL_LOCK_RANK_H_
#define IQ_UTIL_LOCK_RANK_H_

// Compile-time lock ranks for the ranked-mutex deadlock detector
// (DESIGN.md §10). Every iq::Mutex in the tree carries a LockRank; in Debug
// builds a per-thread stack of held ranks is maintained and any acquisition
// that is not strictly increasing in rank aborts immediately with both
// ranks printed — turning a potential deadlock (which would hang a test or
// a production process) into a deterministic, attributable crash at the
// exact site of the ordering violation.
//
// The rank table is the codified global acquisition order. Lower ranks are
// outer locks (acquired first), higher ranks are leaves. A thread holding a
// lock of rank R may only acquire locks of rank > R; acquiring two locks of
// the *same* rank is legal only through iq::MutexLockPair, which imposes
// address order (the engine move-assignment case). Release order is free.
//
// Release builds compile the detector out entirely: Lock() is exactly
// std::mutex::lock(), so the wrapper costs nothing on the bench-gated hot
// paths.

namespace iq {

/// The global lock acquisition order. Keep the table in DESIGN.md §10 in
/// sync when adding a rank. Gaps are deliberate — new subsystems slot in
/// without renumbering.
enum class LockRank : int {
  /// IqEngine::mu_ — the outermost lock. Since the epoch-snapshot refactor
  /// (DESIGN.md §12) it serializes only the *writer* side — COW delta
  /// construction plus the publish swap of §4.3 maintenance and
  /// ApplyStrategy; readers pin epochs lock-free — but it can still hold
  /// every other lock inside (the maintenance hooks fan out over the pool
  /// and record spans/metrics).
  kEngine = 100,
  /// ThreadPool::mu_ — the task-queue lock, taken to enqueue helper tasks
  /// and by workers to dequeue (possibly while the dispatcher holds
  /// kEngine).
  kPoolQueue = 200,
  /// ThreadPool::ParallelFor per-call first-error latch.
  kPoolError = 210,
  /// ThreadPool::ParallelFor per-call completion latch (waited on while the
  /// caller may hold kEngine).
  kPoolDone = 220,
  /// MetricsExporter::mu_ — exporter lifecycle (Start/Stop) state.
  kExporter = 300,
  /// MetricsRegistry::mu_ — registration/snapshot lock; instrumented paths
  /// may register lazily while holding any of the locks above.
  kMetricsRegistry = 500,
  /// TraceCollector::mu_ — the buffer-registry lock; flushes hold it while
  /// visiting every per-thread buffer.
  kTraceRegistry = 600,
  /// TraceCollector per-thread ring-buffer locks. All buffers share the
  /// rank (a flush iterates them one at a time under kTraceRegistry);
  /// TraceScope destructors may take one while holding any lock above.
  kTraceBuffer = 650,
  /// TraceCollector slow-trace store (the bounded last-K retained traces,
  /// DESIGN.md §11). Taken with no trace lock held: a finishing root span
  /// collects its spans under kTraceRegistry/kTraceBuffer, releases them,
  /// then inserts the retained trace under this rank.
  kTraceStore = 660,
  /// Default for mutexes outside the engine's documented order (tests,
  /// ad-hoc tools). A leaf can be acquired while holding anything, but
  /// nothing ranked can be acquired while holding a leaf.
  kLeaf = 1000,
};

/// "kEngine", "kPoolQueue", ... (for the violation report and the docs).
const char* LockRankName(LockRank rank);

namespace lock_rank_internal {

/// Debug bookkeeping behind iq::Mutex. Checks `rank` strictly exceeds the
/// calling thread's highest held rank, then pushes (mu, rank). Aborts with
/// both ranks on violation. Called before blocking on the underlying
/// std::mutex, so an ordering bug reports instead of deadlocking.
void OnAcquire(const void* mu, LockRank rank);

/// Same-rank variant for the second lock of a MutexLockPair: additionally
/// permits rank == top-of-stack when the top entry is `first` and
/// `mu > first` in address order.
void OnAcquirePairSecond(const void* mu, LockRank rank, const void* first);

/// Pops the entry for `mu` (searched from the top — pair locks may release
/// out of stack order).
void OnRelease(const void* mu);

/// Number of locks the calling thread currently holds (test hook).
int HeldCount();

}  // namespace lock_rank_internal
}  // namespace iq

#endif  // IQ_UTIL_LOCK_RANK_H_
