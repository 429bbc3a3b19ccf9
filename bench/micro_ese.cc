// Micro-benchmarks (google-benchmark) for strategy evaluation and the
// subdomain index build.
//
// Beyond the standard google-benchmark flags, accepts the shared micro
// flags (--json=, --metrics-json=, --exporter-port=, --scrape-metrics=);
// see bench/common/micro_main.h.

#include <benchmark/benchmark.h>

#include "bench/common/harness.h"
#include "bench/common/micro_main.h"

namespace iq {
namespace bench {
namespace {

Workload& SharedWorkload(int n, int m) {
  static Workload* w = nullptr;
  static int cached_n = 0, cached_m = 0;
  if (w == nullptr || cached_n != n || cached_m != m) {
    delete w;
    w = new Workload(MakeLinearWorkload(SyntheticKind::kIndependent, n, m,
                                        PaperParams::kDim, 42));
    cached_n = n;
    cached_m = m;
  }
  return *w;
}

void BM_SubdomainBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  Dataset data = MakeIndependent(n, PaperParams::kDim, 7);
  QuerySet queries(PaperParams::kDim);
  QueryGenOptions qopts;
  qopts.k_max = 50;
  for (TopKQuery& q : MakeQueries(m, PaperParams::kDim, 8, qopts)) {
    benchmark::DoNotOptimize(queries.Add(std::move(q)).ok());
  }
  FunctionView view(&data, LinearForm::Identity(PaperParams::kDim));
  for (auto _ : state) {
    auto index = SubdomainIndex::Build(&view, &queries);
    benchmark::DoNotOptimize(index->num_subdomains());
  }
}
BENCHMARK(BM_SubdomainBuild)
    ->Args({10000, 1000})
    ->Args({20000, 1000})
    ->Args({10000, 2000});

void BM_EseScanEvaluate(benchmark::State& state) {
  Workload& w = SharedWorkload(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)));
  EseEvaluator ese(w.index.get(), 0);
  Rng rng(9);
  Vec s(static_cast<size_t>(PaperParams::kDim));
  for (auto& v : s) v = rng.UniformDouble(-0.05, 0.05);
  Vec c = w.view->CoefficientsFor(Add(w.data->attrs(0), s));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ese.HitsForCoeffs(c));
  }
  state.SetItemsProcessed(state.iterations() * w.queries->num_active());
}
BENCHMARK(BM_EseScanEvaluate)->Args({10000, 1000})->Args({10000, 4000});

void BM_EseWedgeEvaluate(benchmark::State& state) {
  Workload& w = SharedWorkload(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)));
  EseEvaluator ese(w.index.get(), 0);
  Rng rng(10);
  Vec s(static_cast<size_t>(PaperParams::kDim));
  for (auto& v : s) v = rng.UniformDouble(-0.05, 0.05);
  Vec c = w.view->CoefficientsFor(Add(w.data->attrs(0), s));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ese.HitsViaWedges(c));
  }
}
BENCHMARK(BM_EseWedgeEvaluate)->Args({10000, 1000})->Args({10000, 4000});

void BM_RtaEvaluate(benchmark::State& state) {
  Workload& w = SharedWorkload(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)));
  RtaStrategyEvaluator rta(w.view.get(), w.queries.get(), 0);
  Rng rng(11);
  Vec s(static_cast<size_t>(PaperParams::kDim));
  for (auto& v : s) v = rng.UniformDouble(-0.05, 0.05);
  Vec c = w.view->CoefficientsFor(Add(w.data->attrs(0), s));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rta.HitsForCoeffs(c));
  }
}
BENCHMARK(BM_RtaEvaluate)->Args({10000, 1000});

void BM_MinCostIqEndToEnd(benchmark::State& state) {
  Workload& w = SharedWorkload(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)));
  auto ctx = IqContext::FromIndex(w.index.get(), 0);
  for (auto _ : state) {
    EseEvaluator ese(w.index.get(), 0);
    auto r = MinCostIq(*ctx, &ese, 25);
    benchmark::DoNotOptimize(r->hits_after);
  }
}
BENCHMARK(BM_MinCostIqEndToEnd)->Args({10000, 1000});

// One target's hit thresholds, the fixed cost every solve's context pays
// (IqContext::FromIndex): IN data at the e2e solve_in sizes, the target
// rotating through the dataset so each call reads other signature rows.
void BM_HitThresholds(benchmark::State& state) {
  Workload& w = SharedWorkload(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)));
  const int n = w.data->size();
  int target = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.index->HitThresholds(target).data());
    target = (target + 7919) % n;
  }
  state.SetItemsProcessed(state.iterations() * w.queries->num_active());
}
BENCHMARK(BM_HitThresholds)->Args({20000, 2000});

}  // namespace
}  // namespace bench
}  // namespace iq

int main(int argc, char** argv) {
  return iq::bench::RunMicroBenchMain(argc, argv);
}
