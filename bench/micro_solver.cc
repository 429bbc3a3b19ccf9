// Micro-benchmarks (google-benchmark) for the optimization substrate:
// the closed-form single-halfspace solvers (Eq. 13-14), Dykstra projection,
// and the penalty solver.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "bench/common/micro_main.h"
#include "obs/trace.h"
#include "opt/dykstra.h"
#include "opt/hit_solver.h"
#include "util/annotations.h"
#include "util/prof.h"
#include "util/random.h"

namespace iq {
namespace {

void BM_HalfspaceL2(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  Rng rng(1);
  Vec a = rng.UniformVector(dim, 0.1, 1.0);
  AdjustBox box = AdjustBox::Unbounded(dim);
  for (auto _ : state) {
    auto sol = MinCostForHalfspace(a, -0.5, CostFunction::L2(), box);
    benchmark::DoNotOptimize(sol->cost);
  }
}
BENCHMARK(BM_HalfspaceL2)->Arg(3)->Arg(10)->Arg(50);

void BM_HalfspaceL2Boxed(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  Rng rng(2);
  Vec a = rng.UniformVector(dim, 0.1, 1.0);
  AdjustBox box = AdjustBox::Unbounded(dim);
  for (int j = 0; j < dim; j += 2) box.SetRange(j, -0.05, 0.05);
  for (auto _ : state) {
    auto sol = MinCostForHalfspace(a, -0.5, CostFunction::L2(), box);
    benchmark::DoNotOptimize(sol.ok());
  }
}
BENCHMARK(BM_HalfspaceL2Boxed)->Arg(3)->Arg(10)->Arg(50);

void BM_HalfspaceL1(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  Rng rng(3);
  Vec a = rng.UniformVector(dim, 0.1, 1.0);
  AdjustBox box = AdjustBox::Unbounded(dim);
  for (auto _ : state) {
    auto sol = MinCostForHalfspace(a, -0.5, CostFunction::L1(), box);
    benchmark::DoNotOptimize(sol->cost);
  }
}
BENCHMARK(BM_HalfspaceL1)->Arg(3)->Arg(10)->Arg(50);

void BM_DykstraProjection(benchmark::State& state) {
  const int constraints = static_cast<int>(state.range(0));
  Rng rng(4);
  const int dim = 3;
  std::vector<Vec> A;
  Vec b;
  for (int i = 0; i < constraints; ++i) {
    A.push_back(rng.UniformVector(dim, 0.1, 1.0));
    b.push_back(-rng.UniformDouble(0.1, 0.5));
  }
  AdjustBox box = AdjustBox::Unbounded(dim);
  for (auto _ : state) {
    auto p = DykstraProject(A, b, box, Zeros(dim));
    benchmark::DoNotOptimize(p.ok());
  }
}
BENCHMARK(BM_DykstraProjection)->Arg(2)->Arg(8)->Arg(32);

void BM_PenaltySolver(benchmark::State& state) {
  AdjustBox box = AdjustBox::Unbounded(3);
  for (auto _ : state) {
    auto sol = MinCostNonlinear(
        [](const Vec& s) {
          return (1.0 + s[0]) * (1.0 + s[0]) + s[1] * s[1] + s[2] - 0.25;
        },
        nullptr, CostFunction::L2(), box);
    benchmark::DoNotOptimize(sol.ok());
  }
}
BENCHMARK(BM_PenaltySolver);

// Overhead guard for the contention profiler (DESIGN.md §11): the
// profiling-off uncontended Lock/Unlock pair must stay within noise of a
// plain std::mutex — the only additions are one relaxed atomic load and a
// predictable branch in Lock, and one test of the hold's clock in Unlock. Tracked by tools/bench_regress.sh, so a
// regression on this path (which sits under every engine call) fails the
// bench gate even when the engine micros hide it in their noise.
void BM_MutexProfileOverhead(benchmark::State& state) {
  prof::SetEnabled(false);
  Mutex mu(LockRank::kLeaf, "BM_MutexProfileOverhead");
  int64_t x = 0;
  for (auto _ : state) {
    MutexLock lock(&mu);
    benchmark::DoNotOptimize(++x);
  }
}
BENCHMARK(BM_MutexProfileOverhead);

// The same pair with profiling *on*: documents the uncontended slow-path
// cost (try_lock, two clock reads and a hold span written to the ring)
// rather than gating it. Restores the global off state and empties the
// rings so later benchmarks in the binary are unaffected.
void BM_MutexProfileOverheadEnabled(benchmark::State& state) {
  prof::SetEnabled(true);
  Mutex mu(LockRank::kLeaf, "BM_MutexProfileOverheadEnabled");
  int64_t x = 0;
  for (auto _ : state) {
    MutexLock lock(&mu);
    benchmark::DoNotOptimize(++x);
  }
  prof::SetEnabled(false);
  TraceCollector::Global().Clear();
}
BENCHMARK(BM_MutexProfileOverheadEnabled);

// Overhead guards for causal tracing (DESIGN.md §11), same contract as the
// mutex-profiler pair above: the *disabled* scope — which sits inside every
// candidate evaluation once the macros are compiled in — must stay at one
// relaxed atomic load plus a predictable branch. Tracked by
// tools/bench_regress.sh; the enabled/slow-path variants document the cost
// of collection and retention rather than gating them.
void BM_TraceOverheadDisabled(benchmark::State& state) {
  TraceCollector& tc = TraceCollector::Global();
  tc.SetEnabled(false);
  int64_t x = 0;
  for (auto _ : state) {
    IQ_TRACE_SCOPE("bench.disabled");
    benchmark::DoNotOptimize(++x);
  }
}
BENCHMARK(BM_TraceOverheadDisabled);

// Enabled scope on the discard path: record into the ring, no retention
// (a root finishing under threshold costs one atomic add).
void BM_TraceOverheadEnabled(benchmark::State& state) {
  TraceCollector& tc = TraceCollector::Global();
  tc.Clear();
  TraceTailConfig config;
  config.slow_trace_nanos = INT64_MAX;  // nothing retained
  tc.ConfigureTailCapture(config);
  tc.SetEnabled(true);
  int64_t x = 0;
  for (auto _ : state) {
    IQ_TRACE_SCOPE("bench.enabled");
    benchmark::DoNotOptimize(++x);
  }
  tc.SetEnabled(false);
  tc.Clear();
}
BENCHMARK(BM_TraceOverheadEnabled);

// The retention slow path: a root over threshold, spans collected out of
// the rings into the bounded store every iteration. This is the cost a
// *slow* solve pays once — it must stay trivial next to the solve itself.
void BM_TraceOverheadSlowPath(benchmark::State& state) {
  TraceCollector& tc = TraceCollector::Global();
  tc.Clear();
  tc.ClearRetained();
  TraceTailConfig config;
  config.slow_trace_nanos = 1;  // everything retained
  config.max_retained = 4;
  tc.ConfigureTailCapture(config);
  tc.SetEnabled(true);
  for (auto _ : state) {
    IQ_TRACE_ROOT_SCOPE(root, "bench.slow_root");
    IQ_TRACE_SCOPE("bench.slow_child");
    benchmark::DoNotOptimize(root.trace_id());
  }
  tc.SetEnabled(false);
  tc.Clear();
  tc.ClearRetained();
}
BENCHMARK(BM_TraceOverheadSlowPath);

}  // namespace
}  // namespace iq

int main(int argc, char** argv) {
  return iq::bench::RunMicroBenchMain(argc, argv);
}
