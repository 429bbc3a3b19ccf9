// Churn micro-benchmark for the epoch-snapshot layer (DESIGN.md §12).
//
// The refactor's performance claim: readers pin an immutable epoch and
// never touch IqEngine::mu_, so solve latency is unaffected by a writer
// publishing copy-on-write epochs underneath them. Two measured windows
// test that claim directly:
//
//   churn        M reader threads solving MinCost on pinned snapshots
//                while one writer applies strategies as fast as it can
//                (every apply publishes a new epoch).
//   reader_only  the same readers with the writer silent. Mutex hold
//                capture (util/prof.h) runs over both windows, and the
//                binary *aborts* unless this one's spans hold exactly zero
//                IqEngine::mu_ acquisitions (the churn window must hold
//                one per apply) and the rings dropped no span — the
//                lock-free-reader claim is enforced, not just reported.
//
// The tracked regression keys (tools/bench_regress.sh → BENCH_5.json) are
// the churn-window p50s: micro_churn/solve_p50_nanos (reader latency under
// sustained publishes) and micro_churn/apply_p50_nanos (writer cost of a
// COW delta + publish). Both are latencies — larger is a regression.
//
// Flags:
//   --n=, --m=             workload size (default 1000 objects, 300 queries)
//   --readers=             reader thread count (default 4)
//   --applies=             writer publishes in the churn window (default 150)
//   --reads=               solves per reader per window (default 150)
//   --json=PATH            machine-readable report: per-window p50s, engine
//                          lock-site stats, epoch counters, plus the full
//                          iq.* metrics snapshot
//   --scrape-metrics=PATH  after the run, GET /metrics over loopback and
//                          write the payload to PATH (ephemeral exporter;
//                          CI feeds it to check_metrics.sh --epoch)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common/harness.h"
#include "core/engine.h"
#include "core/epoch.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "util/check.h"
#include "util/prof.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace iq {
namespace bench {
namespace {

struct Config {
  int n = 1000;
  int m = 300;
  int readers = 4;
  int applies = 150;
  int reads = 150;
};

struct WindowStats {
  std::string window;
  uint64_t solve_p50_nanos = 0;
  uint64_t apply_p50_nanos = 0;  // 0 in the reader-only window
  uint64_t solves = 0;
  uint64_t applies = 0;
  uint64_t first_epoch = 0;
  uint64_t last_epoch = 0;
  MutexSiteReport engine_lock;  // IqEngine::mu_ over the window's holds
};

uint64_t P50(std::vector<uint64_t>* nanos) {
  if (nanos->empty()) return 0;
  size_t mid = nanos->size() / 2;
  std::nth_element(nanos->begin(), nanos->begin() + mid, nanos->end());
  return (*nanos)[mid];
}

/// The IqEngine::mu_ row of the profile analysis over [start_ns, end_ns]:
/// the hold spans the window left in the rings, read the way iq_trace
/// reads them. Aborts when a ring overwrote a span of the window, since a
/// truncated window undercounts.
MutexSiteReport EngineLockSite(uint64_t start_ns, uint64_t end_ns) {
  const TraceCollector& tc = TraceCollector::Global();
  IQ_CHECK(tc.DroppedCount() == 0);
  ParsedProfileWindow window;
  window.start_ns = start_ns;
  window.dur_ns = end_ns - start_ns;
  for (const TraceEvent& e : tc.SpansInWindow(start_ns, end_ns)) {
    window.spans.push_back({e.trace_id, e.span_id, e.parent_span_id, e.name,
                            e.tid, e.start_ns, e.dur_ns, e.arg0, e.arg1,
                            e.arg2});
  }
  for (const MutexSiteReport& m : AnalyzeProfileWindow(window).mutexes) {
    if (m.label == "IqEngine::mu_") return m;
  }
  return MutexSiteReport{};
}

/// One measured window: `cfg.readers` threads each solving `cfg.reads`
/// MinCosts on their own pinned snapshots, plus (churn window only) a
/// writer publishing `applies` epochs. Hold capture wraps the whole window
/// on emptied rings, so the engine lock's holds are exactly this traffic.
WindowStats RunWindow(const Config& cfg, IqEngine* engine,
                      const std::string& window, int applies) {
  WindowStats stats;
  stats.window = window;
  stats.first_epoch = engine->Snapshot().epoch();

  TraceCollector::Global().Clear();
  prof::SetEnabled(true);
  const uint64_t start_ns = prof::EnabledSinceNanos();

  std::vector<std::vector<uint64_t>> solve_nanos(
      static_cast<size_t>(cfg.readers));
  std::vector<std::thread> readers;
  for (int r = 0; r < cfg.readers; ++r) {
    readers.emplace_back([&, r] {
      std::vector<uint64_t>& out = solve_nanos[static_cast<size_t>(r)];
      out.reserve(static_cast<size_t>(cfg.reads));
      for (int i = 0; i < cfg.reads; ++i) {
        const int target = (r * 131 + i * 7) % cfg.n;
        WallTimer timer;
        // MinCost pins the current epoch internally (IqEngine::Snapshot())
        // and answers entirely from it — this is the production reader
        // path, events and metrics included.
        auto result = engine->MinCost(target, /*tau=*/1);
        IQ_CHECK(result.ok());
        out.push_back(static_cast<uint64_t>(timer.ElapsedSeconds() * 1e9));
      }
    });
  }

  std::vector<uint64_t> apply_nanos;
  if (applies > 0) {
    apply_nanos.reserve(static_cast<size_t>(applies));
    Rng rng(7);
    for (int i = 0; i < applies; ++i) {
      const int target = i % cfg.n;
      Vec strategy = rng.UniformVector(PaperParams::kDim, -0.01, 0.01);
      WallTimer timer;
      Status st = engine->ApplyStrategy(target, strategy);
      IQ_CHECK(st.ok());
      apply_nanos.push_back(
          static_cast<uint64_t>(timer.ElapsedSeconds() * 1e9));
    }
  }
  for (std::thread& t : readers) t.join();

  const uint64_t end_ns = TraceNowNanos();
  prof::SetEnabled(false);
  stats.engine_lock = EngineLockSite(start_ns, end_ns);

  std::vector<uint64_t> all_solves;
  for (std::vector<uint64_t>& v : solve_nanos) {
    all_solves.insert(all_solves.end(), v.begin(), v.end());
  }
  stats.solves = all_solves.size();
  stats.applies = apply_nanos.size();
  stats.solve_p50_nanos = P50(&all_solves);
  stats.apply_p50_nanos = P50(&apply_nanos);
  stats.last_epoch = engine->Snapshot().epoch();

  // The acceptance gate: each apply takes the engine lock once, and with
  // the writer silent readers must not take it at all. A nonzero
  // reader-only count means some reader path regressed to locking instead
  // of pinning.
  IQ_CHECK(stats.engine_lock.acquisitions == static_cast<uint64_t>(applies));
  return stats;
}

void PrintTable(const std::vector<WindowStats>& windows) {
  TablePrinter table({"window", "solves", "solve p50", "applies", "apply p50",
                      "mu_ acq", "mu_ wait"});
  for (const WindowStats& w : windows) {
    table.AddRow({w.window, FmtInt(static_cast<long long>(w.solves)),
                  FmtDouble(static_cast<double>(w.solve_p50_nanos) / 1e3, 1) +
                      " us",
                  FmtInt(static_cast<long long>(w.applies)),
                  FmtDouble(static_cast<double>(w.apply_p50_nanos) / 1e3, 1) +
                      " us",
                  FmtInt(static_cast<long long>(w.engine_lock.acquisitions)),
                  FmtDouble(
                      static_cast<double>(w.engine_lock.wait_nanos) / 1e3, 1) +
                      " us"});
  }
  table.Print();
}

Status WriteJson(const std::string& path, const Config& cfg,
                 const std::vector<WindowStats>& windows) {
  std::string json = "{\"bench\":\"micro_churn\",\"run\":" +
                     RunMetadataJson(CollectRunMetadata(/*seed=*/7)) +
                     ",\"readers\":" + std::to_string(cfg.readers) +
                     ",\"windows\":[";
  for (size_t i = 0; i < windows.size(); ++i) {
    const WindowStats& w = windows[i];
    if (i > 0) json += ",";
    json += "{\"window\":\"" + w.window + "\"" +
            ",\"solves\":" + std::to_string(w.solves) +
            ",\"solve_p50_nanos\":" + std::to_string(w.solve_p50_nanos) +
            ",\"applies\":" + std::to_string(w.applies) +
            ",\"apply_p50_nanos\":" + std::to_string(w.apply_p50_nanos) +
            ",\"first_epoch\":" + std::to_string(w.first_epoch) +
            ",\"last_epoch\":" + std::to_string(w.last_epoch) +
            ",\"engine_lock\":{\"acquisitions\":" +
            std::to_string(w.engine_lock.acquisitions) +
            ",\"contended\":" + std::to_string(w.engine_lock.contended) +
            ",\"wait_nanos\":" + std::to_string(w.engine_lock.wait_nanos) +
            "}}";
  }
  json += "],\"metrics\":" + MetricsRegistry::Global().Snapshot().ToJson() +
          "}";
  return WriteStringToFile(path, json);
}

int Main(int argc, char** argv) {
  Config cfg;
  std::string json_path, scrape_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto intval = [&arg](const char* prefix, int* out) {
      std::string p(prefix);
      if (arg.rfind(p, 0) == 0) {
        *out = std::stoi(arg.substr(p.size()));
        return true;
      }
      return false;
    };
    if (intval("--n=", &cfg.n) || intval("--m=", &cfg.m) ||
        intval("--readers=", &cfg.readers) ||
        intval("--applies=", &cfg.applies) || intval("--reads=", &cfg.reads)) {
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
      continue;
    }
    if (arg.rfind("--scrape-metrics=", 0) == 0) {
      scrape_path = arg.substr(17);
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
    return 1;
  }
  if (cfg.n < 1 || cfg.m < 1 || cfg.readers < 1 || cfg.applies < 1 ||
      cfg.reads < 1) {
    std::fprintf(stderr, "all of --n/--m/--readers/--applies/--reads must "
                         "be >= 1\n");
    return 1;
  }

  MetricsExporter exporter;
  if (!scrape_path.empty()) {
    Status st = exporter.Start(0);
    if (!st.ok()) {
      std::fprintf(stderr, "exporter: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  std::printf("micro_churn: n=%d m=%d readers=%d applies=%d reads=%d\n",
              cfg.n, cfg.m, cfg.readers, cfg.applies, cfg.reads);
  Dataset data = MakeIndependent(cfg.n, PaperParams::kDim, 7);
  QueryGenOptions qopts;
  qopts.k_max = 50;
  // num_threads=0: reader parallelism comes from the external reader
  // threads above, so each solve stays serial and the p50 measures one
  // pinned solve, not pool scheduling.
  auto engine = IqEngine::Create(
      std::move(data), LinearForm::Identity(PaperParams::kDim),
      MakeQueries(cfg.m, PaperParams::kDim, 8, qopts), {});
  IQ_CHECK(engine.ok());

  std::vector<WindowStats> windows;
  windows.push_back(RunWindow(cfg, &*engine, "churn", cfg.applies));
  windows.push_back(RunWindow(cfg, &*engine, "reader_only", 0));
  PrintTable(windows);
  std::printf("epochs published under churn: %llu..%llu; reader-only "
              "window took 0 engine-lock acquisitions\n",
              static_cast<unsigned long long>(windows[0].first_epoch),
              static_cast<unsigned long long>(windows[0].last_epoch));

  if (!json_path.empty()) {
    Status s = WriteJson(json_path, cfg, windows);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "json report written to %s\n", json_path.c_str());
  }
  if (!scrape_path.empty()) {
    Result<std::string> body = HttpGetLocal(exporter.port(), "/metrics");
    if (!body.ok()) {
      std::fprintf(stderr, "scrape failed: %s\n",
                   body.status().ToString().c_str());
      return 1;
    }
    Status s = WriteStringToFile(scrape_path, *body);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "scraped /metrics written to %s\n",
                 scrape_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace iq

int main(int argc, char** argv) { return iq::bench::Main(argc, argv); }
