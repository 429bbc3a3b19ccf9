#ifndef IQ_UTIL_TRACE_CONTEXT_H_
#define IQ_UTIL_TRACE_CONTEXT_H_

#include <cstdint>

// Request-scoped trace context (DESIGN.md §11). A solve entering the engine
// opens a *root span* (obs/trace.h), which installs a TraceContext — the
// 64-bit trace id of the request plus the id of the innermost open span —
// in a thread-local slot. Every span opened afterwards on that thread reads
// the slot to link itself (trace id + parent span id) and every
// ThreadPool::ParallelFor captures the dispatcher's context and installs it
// around the chunk bodies it runs on workers, so spans recorded from worker
// threads still belong to the solve that dispatched them.
//
// The carrier lives in util — not obs — because ThreadPool (util) must
// propagate it and util may not depend on obs. It is deliberately a dumb
// POD + thread-local accessors: all policy (id allocation, recording,
// tail-based retention) stays in obs/trace.h, which consumes this slot.
//
// Propagation is observation-only: nothing on a solve path reads the
// context to make a decision, so the PR 3/8 bit-identity contract is
// untouched (tests/parallel_diff_test.cc runs tracing on vs off).

namespace iq {

/// The ambient trace identity of the calling thread. `trace_id == 0` means
/// "no request in flight" (spans recorded then are flat, PR 2 style).
/// `span_id` is the innermost open span — the parent for new children.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  bool active() const { return trace_id != 0; }
};

/// A span opened on the calling thread and not yet recorded: the context it
/// restores when it closes, its own context, and its start time
/// (MonotonicNanos). obs/trace.h opens and closes these for every span kind.
struct OpenSpan {
  TraceContext parent;
  TraceContext self;
  uint64_t start_ns = 0;
};

/// The calling thread's current context ({0, 0} when none is installed).
TraceContext CurrentTraceContext();

/// Installs `ctx` as the calling thread's context.
void SetTraceContext(const TraceContext& ctx);

/// Installs `ctx` and returns the previous context, for save/restore around
/// a delegated task (ThreadPool helper tasks, scope destructors).
TraceContext ExchangeTraceContext(const TraceContext& ctx);

}  // namespace iq

#endif  // IQ_UTIL_TRACE_CONTEXT_H_
