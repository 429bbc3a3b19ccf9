#ifndef IQ_UTIL_THREAD_POOL_H_
#define IQ_UTIL_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.h"
#include "util/trace_context.h"

namespace iq {

/// Name of the per-call span that parents a ParallelFor's chunk spans.
inline constexpr char kParallelForSpanName[] = "ParallelFor";

/// How ParallelFor partitions [0, n) across participants (DESIGN.md §13).
///
///   kStatic  — fixed-size chunks (n and the worker count alone determine
///              the boundaries). Lowest claim overhead; heavy-tailed bodies
///              can strand one participant with the expensive chunk while
///              the rest idle (the ~140× chunk imbalance once measured on
///              the greedy's pooled candidate evaluation).
///   kDynamic — work-stealing via per-item claiming on a shared atomic
///              counter: every participant pulls one index at a time, so a
///              participant stuck on an expensive item simply stops
///              claiming and its remaining share is stolen by the others.
///              Claim/steal counts surface through the chunk-span profile.
///
/// Both policies satisfy the same determinism contract (below): bodies
/// write per-index slots, so results are bit-identical under any claim
/// order. Policy choice is purely a latency/imbalance trade.
enum class ChunkPolicy { kStatic, kDynamic };

/// Fixed-size worker pool backing the parallel execution layer (DESIGN.md
/// §8). Dependency-free: std::thread workers around a single locked task
/// queue. The pool is deliberately simple — the engine's parallel units
/// (candidate solving, signature ranking, batch IQ solving) are coarse
/// enough that queue contention is negligible next to the work itself.
///
/// Determinism contract: ParallelFor partitions [0, n) into chunks (or,
/// under ChunkPolicy::kDynamic, individually claimed indices) and callers
/// write results into per-index slots, so every reduction downstream of a
/// ParallelFor is independent of scheduling and of the chunk policy. The
/// serial fallback (a null pool, see ParallelForOrSerial) executes the
/// identical per-index code.
///
/// Nested parallelism: a ParallelFor issued from inside a pool worker runs
/// inline on that worker instead of re-entering the queue, so composed
/// parallel paths (e.g. IqEngine::SolveBatch items that themselves evaluate
/// candidates) can never deadlock waiting on their own pool.
///
/// Trace-context propagation (DESIGN.md §11): ParallelFor captures the
/// dispatching thread's util/trace_context.h slot and installs it around
/// every chunk body it hands to a worker (save/restore per helper task), so
/// spans opened inside chunks — static, dynamic work-stealing, the serial
/// fallback and the nested-inline path alike — carry the dispatching
/// solve's trace id and parent under the dispatching span. Observation
/// only: no body reads the context, so the determinism contract holds with
/// tracing on or off.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs body(begin, end) over disjoint chunks covering [0, n); the calling
  /// thread works alongside the pool and the call returns only when every
  /// chunk completed. The first exception thrown by any chunk is captured
  /// and rethrown on the caller (remaining chunks are drained, not run).
  /// Called from a pool worker, runs body(0, n) inline (see class comment).
  /// `site` names the chunk spans (see SpanRecorder) — a static
  /// string like "engine.solve_batch"; pass nullptr for unattributed
  /// call sites (tests). `policy` selects static chunking or per-item
  /// work-stealing claims (see ChunkPolicy); results are bit-identical
  /// either way.
  void ParallelFor(int64_t n,
                   const std::function<void(int64_t, int64_t)>& body,
                   const char* site = nullptr,
                   ChunkPolicy policy = ChunkPolicy::kStatic);

  /// True when the current thread is a worker of any ThreadPool.
  static bool InWorker();

  /// Process-wide task observer, invoked once per dequeued pool task with the
  /// task's queue-wait time. This is the layering seam that lets the
  /// observability module (which sits *above* util) count pool tasks without
  /// util depending on it: src/obs/metrics.cc installs a bridge at static
  /// initialization. Pass nullptr to detach. Must be a noexcept-ish plain
  /// function pointer — it runs on worker threads inside the dispatch path.
  using TaskObserver = void (*)(uint64_t queue_wait_nanos);
  static void SetTaskObserver(TaskObserver observer);

  /// Span seam (DESIGN.md §11), the same layering pattern as the task
  /// observer: while tracing is on, src/obs/trace.cc installs a recorder
  /// and every ParallelFor call becomes a kParallelForSpanName span whose
  /// children are the executed chunks — a static chunk, a dynamic run
  /// aggregated to ~200 µs, or the serial/inline covering run — each named
  /// by `site` with args (items, claims, steals). With no recorder
  /// installed a call costs one relaxed load.
  struct SpanRecorder {
    /// Opens a child of the calling thread's current span and makes it the
    /// thread's current span.
    OpenSpan (*open)();
    /// Records `span` as `name` with three integer args and restores its
    /// parent as the thread's current span.
    void (*close)(const OpenSpan& span, const char* name, int64_t arg0,
                  int64_t arg1, int64_t arg2);
  };
  /// Installs `recorder` (static storage; nullptr detaches).
  static void SetSpanRecorder(const SpanRecorder* recorder);

 private:
  void WorkerLoop();

  /// Task-queue lock. Dispatchers may already hold the engine lock
  /// (LockRank::kEngine < kPoolQueue); workers acquire it with nothing
  /// held.
  Mutex mu_{LockRank::kPoolQueue, "ThreadPool::mu_"};
  CondVar work_cv_;
  std::deque<std::function<void()>> queue_ IQ_GUARDED_BY(mu_);
  bool stopping_ IQ_GUARDED_BY(mu_) = false;
  /// Spawned in the constructor, joined in the destructor, never touched in
  /// between — immutable for the pool's concurrent lifetime.
  std::vector<std::thread> workers_;  // iq-lint: allow(unguarded-member)
};

/// Serial-fallback dispatch: runs `body` over [0, n) on the pool when one is
/// provided, inline on the caller otherwise. This is the single entry point
/// the engine's hot paths use, so `EngineOptions::num_threads == 0` (no
/// pool) preserves the exact pre-parallel code path. With tracing on, the
/// serial path records a single chunk span for `site` too, so a serial run's
/// profile still shows which wall-clock fraction the parallelizable regions
/// cover (the Amdahl ceiling, measurable even on one core).
void ParallelForOrSerial(ThreadPool* pool, int64_t n,
                         const std::function<void(int64_t, int64_t)>& body,
                         const char* site = nullptr,
                         ChunkPolicy policy = ChunkPolicy::kStatic);

}  // namespace iq

#endif  // IQ_UTIL_THREAD_POOL_H_
