#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

#include "util/check.h"
#include "util/timer.h"
#include "util/trace_context.h"

namespace iq {
namespace {

using Body = std::function<void(int64_t, int64_t)>;

/// Marks threads that belong to some pool, so nested ParallelFor calls run
/// inline instead of deadlocking on their own queue.
thread_local bool t_in_pool_worker = false;

std::atomic<ThreadPool::TaskObserver> g_task_observer{nullptr};
std::atomic<const ThreadPool::SpanRecorder*> g_span_recorder{nullptr};

/// The installed span recorder, loaded once per ParallelFor call so every
/// chunk of the call records (or not) through the same one. Relaxed is
/// enough: recorders are constant-initialized statics, so nothing is
/// published through the pointer.
const ThreadPool::SpanRecorder* LoadSpanRecorder() {
  return g_span_recorder.load(std::memory_order_relaxed);
}

/// "Unset" marker for span args (the obs layer's TraceEvent::kNoArg).
constexpr int64_t kNoSpanArg = INT64_MIN;

/// One span through `rec`, opened at construction and closed (recorded,
/// parent context restored) at scope exit — exceptions included. A no-op
/// when `rec` is null.
class RecordedSpan {
 public:
  RecordedSpan(const ThreadPool::SpanRecorder* rec, const char* name,
               int64_t arg0, int64_t arg1, int64_t arg2)
      : rec_(rec), name_(name), args_{arg0, arg1, arg2} {
    if (rec_ != nullptr) span_ = rec_->open();
  }
  ~RecordedSpan() {
    if (rec_ == nullptr) return;
    rec_->close(span_, name_, args_[0], args_[1], args_[2]);
  }
  RecordedSpan(const RecordedSpan&) = delete;
  RecordedSpan& operator=(const RecordedSpan&) = delete;

 private:
  const ThreadPool::SpanRecorder* rec_;
  const char* name_;
  int64_t args_[3];
  OpenSpan span_;
};

/// One static chunk (or covering run): a chunk span with one claim and no
/// steals around `body(begin, end)`.
inline void RunChunk(const ThreadPool::SpanRecorder* rec, const Body& body,
                     int64_t begin, int64_t end, const char* site) {
  RecordedSpan span(rec, site, end - begin, /*claims=*/1, /*steals=*/0);
  body(begin, end);
}

/// Runs all of [0, n) on the calling thread (serial fallback, nested or
/// trivial calls): one call span with one covering chunk span, so these
/// regions stay visible in a profile.
void RunCovering(const Body& body, int64_t n, const char* site) {
  const ThreadPool::SpanRecorder* rec = LoadSpanRecorder();
  RecordedSpan call(rec, kParallelForSpanName, n, kNoSpanArg, kNoSpanArg);
  RunChunk(rec, body, 0, n, site);
}

const char* SpanName(const char* site) {
  return site != nullptr ? site : "(unlabeled)";
}

}  // namespace

void ThreadPool::SetTaskObserver(TaskObserver observer) {
  g_task_observer.store(observer, std::memory_order_release);
}

void ThreadPool::SetSpanRecorder(const SpanRecorder* recorder) {
  g_span_recorder.store(recorder, std::memory_order_relaxed);
}

bool ThreadPool::InWorker() { return t_in_pool_worker; }

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && queue_.empty()) work_cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

/// Shared per-call coordination state for ParallelFor (both policies).
/// Every participant writes `next` once per claim; cache-line alignment
/// keeps that line off whatever the dispatcher's stack holds next to it,
/// which otherwise depends on the caller's frame depth (DESIGN.md §13.1).
struct alignas(64) CallState {
  std::atomic<int64_t> next{0};
  std::atomic<bool> failed{false};
  Mutex err_mu{LockRank::kPoolError, "ParallelFor::err_mu"};
  std::exception_ptr error IQ_GUARDED_BY(err_mu);  // first failure
  Mutex done_mu{LockRank::kPoolDone, "ParallelFor::done_mu"};
  CondVar done_cv;
  int pending IQ_GUARDED_BY(done_mu) = 0;  // outstanding pool tasks
};

void CaptureError(CallState* state) {
  MutexLock lock(&state->err_mu);
  if (!state->error) state->error = std::current_exception();
  state->failed.store(true, std::memory_order_release);
}

/// Recorded dynamic spans aggregate consecutive claimed items until the
/// span covers at least this much wall time. This keeps the profile's
/// span-duration distribution describing *scheduling* granularity rather
/// than per-item cost spread: a run of cheap items folds into one
/// target-sized span while an expensive item still stands alone, so
/// max/median chunk imbalance collapses exactly when stealing fixed the
/// straggler problem (tests/profile_test.cc asserts this).
constexpr uint64_t kDynamicSpanTargetNanos = 200 * 1000;  // 200 µs

/// The per-item work-stealing claim loop (ChunkPolicy::kDynamic). Every
/// participant pulls single indices off `state->next`; once a participant
/// has executed its fair share of the range, ceil(n / participants),
/// further claims are counted as steals — items a statically partitioned
/// run would have left to a (still busy) peer.
void RunDynamicClaims(CallState* state, const Body& body, int64_t n,
                      int64_t fair_share, const char* site,
                      const ThreadPool::SpanRecorder* rec) {
  int64_t executed = 0;
  // The current aggregated run (recorded only when `rec` is set): items
  // this participant claimed back-to-back since `run` opened.
  OpenSpan run;
  int64_t run_items = 0;
  int64_t run_steals = 0;
  auto close_run = [&] {
    rec->close(run, site, run_items, /*claims=*/run_items, run_steals);
    run_items = 0;
    run_steals = 0;
  };
  for (;;) {
    const int64_t i = state->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    if (state->failed.load(std::memory_order_acquire)) break;
    if (rec != nullptr && run_items == 0) run = rec->open();
    bool ok = true;
    try {
      body(i, i + 1);
    } catch (...) {
      CaptureError(state);
      ok = false;
    }
    ++run_items;
    if (executed++ >= fair_share) ++run_steals;
    if (rec != nullptr &&
        (!ok || MonotonicNanos() - run.start_ns >= kDynamicSpanTargetNanos)) {
      close_run();
    }
    if (!ok) break;
  }
  if (rec != nullptr && run_items > 0) close_run();
}

}  // namespace

void ThreadPool::ParallelFor(
    int64_t n, const std::function<void(int64_t, int64_t)>& body,
    const char* site, ChunkPolicy policy) {
  if (n <= 0) return;
  site = SpanName(site);
  if (t_in_pool_worker || n == 1) {
    // Nested or trivial: run inline on the current thread, still as one
    // chunk span — nested parallel regions must stay visible.
    RunCovering(body, n, site);
    return;
  }
  const int64_t workers = static_cast<int64_t>(workers_.size());
  // Deterministic partition: chunk size depends only on n and the worker
  // count. Over-decompose (4 chunks per participant) so an unlucky slow
  // chunk cannot serialize the whole call. Under kDynamic the claim unit is
  // a single index instead; `chunk` only sizes the static path.
  const int64_t chunk =
      std::max<int64_t>(1, n / (4 * (workers + 1)) + 1);
  // Steal threshold for kDynamic: a participant's fair share of the range.
  const int64_t fair_share = (n + workers) / (workers + 1);

  CallState state;

  const SpanRecorder* rec = LoadSpanRecorder();
  RecordedSpan call(rec, kParallelForSpanName, n, kNoSpanArg, kNoSpanArg);
  // Causal-trace propagation (DESIGN.md §11): the helper tasks below run on
  // workers whose thread-local TraceContext is whatever the previous task
  // left behind (zeroed by the save/restore here). Capture the dispatcher's
  // context now and install it around the chunk bodies, so every span a
  // chunk opens carries the dispatching solve's trace id and parents under
  // this call's span (a child of the span that issued the ParallelFor). The
  // caller's own participation, the serial fallback and the nested-inline
  // path all run on a thread that already holds the context, so only the
  // enqueued tasks need the handoff.
  const TraceContext dispatch_ctx = CurrentTraceContext();
  auto run_chunks = [&state, &body, n, chunk, fair_share, site, rec,
                     policy] {
    if (policy == ChunkPolicy::kDynamic) {
      RunDynamicClaims(&state, body, n, fair_share, site, rec);
      return;
    }
    for (;;) {
      int64_t begin = state.next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      if (state.failed.load(std::memory_order_acquire)) return;
      int64_t end = std::min<int64_t>(n, begin + chunk);
      try {
        RunChunk(rec, body, begin, end, site);
      } catch (...) {
        CaptureError(&state);
      }
    }
  };

  // One helper task per worker; each claims chunks (kStatic) or single
  // items (kDynamic) until the range drains.
  const int64_t claim_unit = policy == ChunkPolicy::kDynamic ? 1 : chunk;
  const int64_t helpers =
      std::min<int64_t>(workers, (n + claim_unit - 1) / claim_unit);
  {
    MutexLock done(&state.done_mu);
    state.pending = static_cast<int>(helpers);
  }
  {
    MutexLock lock(&mu_);
    for (int64_t i = 0; i < helpers; ++i) {
      queue_.emplace_back(
          [&state, &run_chunks, dispatch_ctx, timer = WallTimer()] {
            TaskObserver observer =
                g_task_observer.load(std::memory_order_acquire);
            if (observer != nullptr) observer(timer.ElapsedNanos());
            // run_chunks never throws (chunk exceptions are captured into
            // state.error), so the restore cannot be skipped.
            const TraceContext saved = ExchangeTraceContext(dispatch_ctx);
            run_chunks();
            SetTraceContext(saved);
            MutexLock done(&state.done_mu);
            if (--state.pending == 0) state.done_cv.NotifyOne();
          });
    }
  }
  work_cv_.NotifyAll();

  run_chunks();  // the caller participates
  {
    MutexLock done(&state.done_mu);
    while (state.pending != 0) state.done_cv.Wait(state.done_mu);
  }
  // pending == 0 above synchronized with every helper's final decrement, so
  // this read of `error` cannot race; the lock keeps the analysis exact.
  std::exception_ptr error;
  {
    MutexLock lock(&state.err_mu);
    error = state.error;
  }
  if (error) std::rethrow_exception(error);
}

void ParallelForOrSerial(ThreadPool* pool, int64_t n,
                         const std::function<void(int64_t, int64_t)>& body,
                         const char* site, ChunkPolicy policy) {
  if (n <= 0) return;
  if (pool == nullptr) {
    // Serial fallback records one covering span so a serial run's profile
    // still shows the parallelizable-region coverage (the Amdahl ceiling).
    RunCovering(body, n, SpanName(site));
    return;
  }
  pool->ParallelFor(n, body, site, policy);
}

}  // namespace iq
