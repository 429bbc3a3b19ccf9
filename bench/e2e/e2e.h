#ifndef IQ_BENCH_E2E_E2E_H_
#define IQ_BENCH_E2E_E2E_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"

namespace iq {
namespace e2e {

/// Engine pool size for every pooled workload. ParallelFor's caller works
/// alongside the pool, so 3 workers keep 4 threads busy: the CPU count of
/// the host the baseline was measured on (README.md).
inline constexpr int kThreads = 3;

/// Command line shared by both binaries.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Full report with provenance (JSON); empty = none.
  std::string json_path;
  /// iq_e2e_trace only: Chrome-trace JSON of every recorded span.
  std::string trace_path;
  /// Tiny inputs and a short window; every output check still runs.
  bool smoke = false;
};

/// Parses --workload=, --seed=, --seconds=, --json=, --trace-out= and
/// --smoke. Unknown flags and unknown workloads are errors.
Result<Args> ParseArgs(int argc, char** argv);

/// False under a Debug (no NDEBUG) or sanitizer build: such a binary is a
/// different program, so its timings are not numbers of record.
bool IsMeasurableBuild();

/// Nanoseconds since process start; the one clock both binaries stamp
/// operations and spans with.
int64_t NowNanos();

/// The generated inputs of one engine build.
struct Inputs {
  Dataset data{1};
  std::vector<TopKQuery> queries;
};

/// One engine write: churn_in's traffic, and the apply check that closes
/// every workload.
struct WriteOp {
  enum class Kind { kApply, kAddQuery, kRemoveQuery };
  Kind kind = Kind::kApply;
  /// kApply: the object; kRemoveQuery and (once applied) kAddQuery: the
  /// query id.
  int target = -1;
  Vec strategy;
  TopKQuery query;
};

/// Where an operation sits in the run. Only kTimed operations feed the
/// end-to-end latencies.
enum class Phase { kSetup, kTimed, kCheck };

/// Seam between the workload loops and the traced run. After each engine
/// call the loop reports what it called, against which epoch, and when the
/// call started and ended on the NowNanos() clock. The numbers-of-record
/// binary passes this no-op base. Solves of churn_in's readers arrive from
/// several threads at once.
class Observer {
 public:
  virtual ~Observer() = default;
  virtual void OnPhase(Phase) {}
  virtual void OnGenerate(int64_t /*start_ns*/, int64_t /*end_ns*/) {}
  /// `pinned` was pinned just before the call; `same_epoch` is true when no
  /// write was published during it, i.e. the engine solved on `pinned`.
  virtual void OnSolve(const IqEngine&, const EpochHandle& /*pinned*/,
                       bool /*same_epoch*/, const BatchItem&,
                       const IqResult&, int64_t /*start_ns*/,
                       int64_t /*end_ns*/) {}
  virtual void OnBatch(const IqEngine&, const EpochHandle& /*pinned*/,
                       const std::vector<BatchItem>&,
                       const std::vector<IqResult>&, int64_t /*start_ns*/,
                       int64_t /*end_ns*/) {}
  /// `before`/`after` are the epochs the write read and published.
  virtual void OnWrite(const IqEngine&, const EpochHandle& /*before*/,
                       const EpochHandle& /*after*/, const WriteOp&,
                       int64_t /*start_ns*/, int64_t /*end_ns*/) {}
  virtual void OnBuild(const Inputs&, const IqEngine&, int64_t /*start_ns*/,
                       int64_t /*end_ns*/) {}
};

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  /// Timed operations issued, and those that errored or gave a wrong
  /// answer.
  int64_t attempted = 0;
  int64_t failed = 0;
  /// One line per failed output check; empty = every output was correct.
  std::vector<std::string> errors;
  /// The gated end-to-end metrics, in BENCHMARK.json order.
  std::vector<Metric> metrics;
  /// Printed and reported but not gated: too noisy, or quality numbers.
  std::vector<Metric> diagnostics;
  /// Workload sizes for the report's provenance.
  std::vector<Metric> sizes;
};

/// Runs one workload end to end: set-up, the timed window, the output
/// checks. Engine calls go through the IqEngine facade only.
Result<RunResult> RunWorkload(const Args& args, Observer* observer);

/// True when two results agree on every field a solve determines (all but
/// the wall-clock timings).
bool SameResult(const IqResult& a, const IqResult& b);

/// Prints every metric as `name value unit`, writes the --json report and
/// ends stdout with the one-line result object. Returns the exit code: 0
/// when every output check passed, 1 otherwise.
int Finish(const char* binary, const Args& args, const RunResult& result,
           const std::vector<Metric>& metrics);

}  // namespace e2e
}  // namespace iq

#endif  // IQ_BENCH_E2E_E2E_H_
