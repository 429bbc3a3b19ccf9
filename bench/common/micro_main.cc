#include "bench/common/micro_main.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common/harness.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "util/string_util.h"

namespace iq {
namespace bench {

int RunMicroBenchMain(int argc, char** argv) {
  // Split off our own flags before google-benchmark sees (and rejects) them.
  std::string metrics_json, json_path, scrape_path;
  int exporter_port = -1;
  std::vector<std::string> storage;
  storage.reserve(static_cast<size_t>(argc) + 2);
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      std::string p(prefix);
      return arg.rfind(p, 0) == 0 ? arg.c_str() + p.size() : nullptr;
    };
    if (const char* v = value("--metrics-json=")) {
      metrics_json = v;
    } else if (const char* v = value("--json=")) {
      json_path = v;
    } else if (const char* v = value("--exporter-port=")) {
      exporter_port = std::stoi(v);
    } else if (const char* v = value("--scrape-metrics=")) {
      scrape_path = v;
    } else {
      storage.push_back(std::move(arg));
    }
  }
  if (!json_path.empty()) {
    storage.push_back("--benchmark_out=" + json_path);
    storage.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> bench_argv;
  bench_argv.reserve(storage.size());
  for (std::string& s : storage) bench_argv.push_back(s.data());
  int bench_argc = static_cast<int>(bench_argv.size());

  // The micros pin their RNG seeds in code, hence seed 0 ("fixed builtin").
  RunMetadata meta = CollectRunMetadata(/*seed=*/0);
  benchmark::AddCustomContext("git_sha", meta.git_sha);
  benchmark::AddCustomContext("build_type", meta.build_type);
  benchmark::AddCustomContext("num_threads", std::to_string(meta.num_threads));
  benchmark::AddCustomContext("seed", std::to_string(meta.seed));

  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }

  MetricsExporter exporter;
  if (exporter_port >= 0 || !scrape_path.empty()) {
    Status st = exporter.Start(exporter_port >= 0 ? exporter_port : 0);
    if (!st.ok()) {
      std::fprintf(stderr, "exporter: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "serving live metrics on http://127.0.0.1:%d/metrics\n",
                 exporter.port());
  }

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!scrape_path.empty()) {
    Result<std::string> body = HttpGetLocal(exporter.port(), "/metrics");
    if (!body.ok()) {
      std::fprintf(stderr, "scrape failed: %s\n",
                   body.status().ToString().c_str());
      return 1;
    }
    Status st = WriteStringToFile(scrape_path, *body);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "scraped /metrics written to %s\n",
                 scrape_path.c_str());
  }
  if (!metrics_json.empty()) {
    Status st = WriteStringToFile(metrics_json,
                          MetricsRegistry::Global().Snapshot().ToJson());
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics snapshot written to %s\n",
                 metrics_json.c_str());
  }
  return 0;
}

}  // namespace bench
}  // namespace iq
