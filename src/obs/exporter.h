#ifndef IQ_OBS_EXPORTER_H_
#define IQ_OBS_EXPORTER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "util/annotations.h"
#include "util/status.h"

namespace iq {

/// Live observability endpoint (DESIGN.md §9): a dependency-free,
/// single-threaded HTTP/1.0 server exposing the process-global metrics
/// registry and trace collector while an engine or bench is running.
///
///   /metrics   Prometheus text exposition format (version 0.0.4):
///              counters and gauges one sample each, the base-2 histograms
///              as cumulative `_bucket{le=...}` series plus `_sum`/`_count`.
///   /healthz   "ok" — liveness probe.
///   /statusz   JSON snapshot: uptime and metrics (MetricsSnapshot::ToJson,
///              which carries the iq.trace.* capture counters).
///   /profilez  live profile window (obs/trace.h ProfilezJson): the mutex
///              hold spans and ParallelFor chunk spans since hold capture
///              was enabled, as a line-oriented span dump; an
///              `"enabled": false` placeholder window when it is off.
///   /tracez    retained slow traces (TraceCollector::TracezJson): tail
///              config, capture counters, every retained trace's spans.
///   /tracez?trace=ID
///              one retained trace as Perfetto/Chrome JSON.
///
/// tools/iq_trace reads /profilez and /tracez payloads alike.
///
/// One background thread accepts and serves connections sequentially —
/// scrapes are rare and responses are small, so there is nothing to win
/// from concurrency, and a single thread keeps the server trivially safe.
/// The exporter binds the loopback interface only; it is an operator tool,
/// not a public endpoint. Start it from an engine (EngineOptions::
/// exporter_port) or a bench (--exporter-port=); both are thin wrappers
/// over this class.

// ---- pure rendering (golden-testable, no sockets involved) ----

/// Maps a dotted registry name onto the Prometheus metric-name charset:
/// "iq.engine.min_cost_nanos" -> "iq_engine_min_cost_nanos". Any character
/// outside [a-zA-Z0-9_:] becomes '_'; a leading digit gains a '_' prefix.
std::string PrometheusName(const std::string& name);

/// Escapes a HELP text / label value per the exposition format: backslash,
/// double quote (label values) and newline.
std::string PrometheusEscape(const std::string& s);

/// Renders a full snapshot in text exposition format. Histogram buckets are
/// cumulative; bucket i of the base-2 layout (integer samples in
/// [2^(i-1), 2^i), bucket 0 = {0}) maps to the inclusive upper bound
/// le="2^i - 1", and the open top bucket to le="+Inf".
std::string RenderPrometheusText(const MetricsSnapshot& snapshot);

/// The full HTTP response (status line, headers, body) the exporter sends
/// for `path` — exposed so tests can cover routing without a socket.
std::string ExporterResponseForPath(const std::string& path,
                                    uint64_t uptime_ns);

// ---- the server ----

class MetricsExporter {
 public:
  MetricsExporter() = default;
  ~MetricsExporter();

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-chosen ephemeral port, see port())
  /// and starts the serving thread. Fails if already running or the bind is
  /// refused.
  Status Start(int port) IQ_EXCLUDES(mu_);

  /// Stops the serving thread and closes the socket. Idempotent; also run
  /// by the destructor.
  void Stop() IQ_EXCLUDES(mu_);

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port while running (the resolved one when Start got 0);
  /// -1 when stopped.
  int port() const { return port_.load(std::memory_order_acquire); }

 private:
  /// The serving thread's body. Takes the listening socket and the start
  /// timestamp by value, captured at Start() time: the loop never touches
  /// guarded members, so serving needs no locks and Stop() only synchronizes
  /// with the thread through `stop_` and join.
  void ServeLoop(int listen_fd, uint64_t start_ns);

  /// Guards the Start/Stop lifecycle transitions (bind, thread launch,
  /// join, close), making concurrent Start/Stop calls safe and idempotent.
  Mutex mu_{LockRank::kExporter, "MetricsExporter::mu_"};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<int> port_{-1};
  int listen_fd_ IQ_GUARDED_BY(mu_) = -1;
  std::thread thread_ IQ_GUARDED_BY(mu_);
  uint64_t start_ns_ IQ_GUARDED_BY(mu_) = 0;
};

/// Blocking loopback HTTP GET against 127.0.0.1:`port`, returning the
/// response body. This is the client half of the exporter's loopback
/// round-trip tests and of `--scrape-metrics=` in the benches; it lives here
/// so src/obs/exporter.cc stays the only translation unit touching raw
/// sockets (tools/lint.sh enforces that).
Result<std::string> HttpGetLocal(int port, const std::string& path);

}  // namespace iq

#endif  // IQ_OBS_EXPORTER_H_
