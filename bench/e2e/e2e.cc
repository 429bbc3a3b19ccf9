#include "bench/e2e/e2e.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <exception>
#include <optional>
#include <string_view>
#include <thread>

#include "core/evaluator.h"
#include "data/queries.h"
#include "data/real_world.h"
#include "data/synthetic.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace iq {
namespace e2e {
namespace {

enum class Source { kIndependent, kHouse };

/// Sizes of one workload; README.md gives the reason for each workload.
struct Spec {
  std::string_view name;
  Source source;
  int n;
  int m;
  /// EngineOptions::num_threads; 0 = the serial engine.
  int threads;
};

constexpr Spec kSpecs[] = {
    {"solve_in", Source::kIndependent, 20000, 2000, kThreads},
    {"batch_house", Source::kHouse, 50000, 2000, kThreads},
    {"churn_in", Source::kIndependent, 20000, 2000, 0},
    {"build_house", Source::kHouse, 100000, 2000, kThreads},
};
/// --smoke sizes: small enough for a unit-test budget, large enough that
/// every code path (subdomains, maintenance, batches) still runs.
constexpr int kSmokeObjects = 600;
constexpr int kSmokeQueries = 80;

/// Set-up runs this many times per process; setup_s is the median.
constexpr int kSetupReps = 5;
constexpr int kBatchSize = 32;
/// churn_in: the open-loop rates of the writer and of each reader. Readers
/// that ran flat out made the writer's CPU time swing by a tenth from run
/// to run with the same seed; at a fixed rate they load it the same way
/// every time.
constexpr double kWritesPerSecond = 50.0;
constexpr int kReaders = 2;
constexpr double kReadsPerSecond = 25.0;
constexpr double kApplyStep = 0.01;
/// Every kVerifyEvery-th solve is re-checked by the brute-force oracle, at
/// most kVerifyMax per run (each check costs O(n·m)).
constexpr int kVerifyEvery = 32;
constexpr size_t kVerifyMax = 8;
/// build_house: IQs compared between the first and the last build.
constexpr int kProbes = 4;
/// churn_in: objects whose hit count is compared with a fresh rebuild.
constexpr int kRebuildSamples = 256;
constexpr double kMiB = 1024.0 * 1024.0;

/// Independent random streams derived from --seed.
enum Stream : uint64_t {
  kOps = 1,
  kWarmUp = 2,
  kReaderBase = 3,  // + reader index
  kApplyCheck = 16,
  kProbe = 17,
  kSample = 18,
};

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL;
}

/// Min-Cost runs Algorithm 3 as the paper states it (every candidate
/// evaluated); Max-Hit caps its greedy at 60 iterations, without which one
/// solve took seconds.
IqOptions PaperOptions(bool min_cost) {
  IqOptions options;
  if (!min_cost) options.max_iterations = 60;
  return options;
}

/// The figure benches' bounded search: the 64 cheapest candidates per
/// iteration.
IqOptions BoundedOptions(bool min_cost) {
  IqOptions options = PaperOptions(min_cost);
  options.candidate_eval_limit = 64;
  return options;
}

/// tau ~ U[100, 500] per 10^4 queries (Table 2) and beta ~ U[0.1, 1]; both
/// are drawn for every item so the stream does not depend on the kind.
BatchItem NextSolve(Rng* rng, bool min_cost, int n, int m, bool bounded) {
  BatchItem item;
  item.kind = min_cost ? BatchItem::Kind::kMinCost : BatchItem::Kind::kMaxHit;
  item.target = static_cast<int>(rng->UniformInt(0, n - 1));
  item.tau = std::max(
      1, static_cast<int>(rng->UniformInt(100, 500) * m / 10000));
  item.beta = rng->UniformDouble(0.1, 1.0);
  item.options = bounded ? BoundedOptions(min_cost) : PaperOptions(min_cost);
  return item;
}

Inputs MakeInputs(const Spec& spec, uint64_t seed) {
  Inputs in;
  in.data = spec.source == Source::kHouse
                ? MakeHouse(seed, spec.n)
                : MakeIndependent(spec.n, /*dim=*/3, seed);
  QueryGenOptions qopts;  // UN weights, k in [1, 50]
  in.queries = MakeQueries(spec.m, in.data.dim(), seed + 1, qopts);
  return in;
}

std::string Describe(const BatchItem& item) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s(target=%d, tau=%d, beta=%.4f)",
                item.kind == BatchItem::Kind::kMinCost ? "MinCost" : "MaxHit",
                item.target, item.tau, item.beta);
  return buf;
}

// ---------------------------------------------------------------------------
// Engine calls. Each one times the facade call alone, in wall-clock and in
// CPU time, and reports it to the observer.

/// Whose CPU time an operation is charged: the whole process (one operation
/// in flight, fanned out over the engine pool) or the calling thread (the
/// serial engine under concurrent callers).
enum class Cpu { kProcess, kThread };

/// Task CPU time. The kernel's paravirtual steal accounting keeps time the
/// hypervisor gave to other guests out of it, so it measures the work an
/// operation did even when the host's neighbours take CPU away.
int64_t CpuNanos(Cpu cpu) {
  timespec ts{};
  clock_gettime(
      cpu == Cpu::kThread ? CLOCK_THREAD_CPUTIME_ID : CLOCK_PROCESS_CPUTIME_ID,
      &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// The cost of one engine call.
struct OpTime {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

/// Brackets one engine call.
class OpClock {
 public:
  explicit OpClock(Cpu cpu)
      : cpu_(cpu), start_(NowNanos()), cpu_start_(CpuNanos(cpu)) {}

  int64_t start() const { return start_; }
  /// Stops the clock; returns the end on the NowNanos() clock.
  int64_t Stop(OpTime* t) const {
    const int64_t cpu_end = CpuNanos(cpu_);
    const int64_t end = NowNanos();
    t->wall_ms = static_cast<double>(end - start_) / 1e6;
    t->cpu_ms = static_cast<double>(cpu_end - cpu_start_) / 1e6;
    return end;
  }

 private:
  Cpu cpu_;
  int64_t start_;
  int64_t cpu_start_;
};

/// `solved_on` (optional) receives the epoch the engine solved on when no
/// write landed during the call; it stays empty otherwise.
Result<IqResult> Solve(const IqEngine& engine, const BatchItem& item,
                       Observer* obs, Cpu cpu, OpTime* t,
                       EpochHandle* solved_on = nullptr) {
  EpochHandle pinned = engine.Snapshot();
  const OpClock clock(cpu);
  Result<IqResult> r =
      item.kind == BatchItem::Kind::kMinCost
          ? engine.MinCost(item.target, item.tau, item.options)
          : engine.MaxHit(item.target, item.beta, item.options);
  const int64_t end = clock.Stop(t);
  const bool same_epoch = engine.Snapshot().epoch() == pinned.epoch();
  if (r.ok()) {
    obs->OnSolve(engine, pinned, same_epoch, item, *r, clock.start(), end);
  }
  if (solved_on != nullptr && same_epoch) *solved_on = std::move(pinned);
  return r;
}

Result<std::vector<IqResult>> SolveBatch(const IqEngine& engine,
                                         const std::vector<BatchItem>& items,
                                         Observer* obs, OpTime* t) {
  EpochHandle pinned = engine.Snapshot();
  const OpClock clock(Cpu::kProcess);
  Result<std::vector<IqResult>> r = engine.SolveBatchOn(pinned, items);
  const int64_t end = clock.Stop(t);
  if (r.ok()) obs->OnBatch(engine, pinned, items, *r, clock.start(), end);
  return r;
}

/// Sets op->target to the new query id when op adds a query.
Status Write(IqEngine* engine, WriteOp* op, Observer* obs, Cpu cpu,
             OpTime* t) {
  EpochHandle before = engine->Snapshot();
  const OpClock clock(cpu);
  Status st = Status::Ok();
  switch (op->kind) {
    case WriteOp::Kind::kApply:
      st = engine->ApplyStrategy(op->target, op->strategy);
      break;
    case WriteOp::Kind::kAddQuery: {
      Result<int> id = engine->AddQuery(op->query);
      if (id.ok()) {
        op->target = *id;
      } else {
        st = id.status();
      }
      break;
    }
    case WriteOp::Kind::kRemoveQuery:
      st = engine->RemoveQuery(op->target);
      break;
  }
  const int64_t end = clock.Stop(t);
  if (st.ok()) {
    obs->OnWrite(*engine, before, engine->Snapshot(), *op, clock.start(),
                 end);
  }
  return st;
}

/// Builds an engine from copies of `in`; the copies are made before the
/// clock starts.
Result<IqEngine> Build(const Inputs& in, int threads, Observer* obs,
                       OpTime* t) {
  Dataset data = in.data;
  std::vector<TopKQuery> queries = in.queries;
  EngineOptions options;
  options.num_threads = threads;
  const OpClock clock(Cpu::kProcess);
  Result<IqEngine> engine =
      IqEngine::Create(std::move(data), LinearForm::Identity(in.data.dim()),
                       std::move(queries), std::move(options));
  const int64_t end = clock.Stop(t);
  if (engine.ok()) obs->OnBuild(in, *engine, clock.start(), end);
  return engine;
}

// ---------------------------------------------------------------------------
// Output checks. None of them runs inside a timed region.

/// A solve kept for the brute-force oracle, with the epoch it ran on.
struct Pending {
  EpochHandle snap;
  BatchItem item;
  IqResult result;
};

/// Goal checks every solve gets: a Min-Cost answer that claims its goal
/// hits at least tau queries, and a Max-Hit answer stays within budget.
std::string CheckGoal(const BatchItem& item, const IqResult& r) {
  if (item.kind == BatchItem::Kind::kMinCost) {
    if (r.reached_goal && r.hits_after < item.tau) {
      return Describe(item) + ": reached_goal with hits_after " +
             std::to_string(r.hits_after);
    }
  } else if (!(r.cost <= item.beta)) {
    return Describe(item) + ": cost " + std::to_string(r.cost) +
           " exceeds the budget";
  }
  return {};
}

/// Re-counts hits_before and hits_after with the index-free
/// BruteForceEvaluator on the epoch each solve ran on. The checks run in
/// parallel over `pool`; one error line per mismatch.
std::vector<std::string> VerifyBruteForce(const std::vector<Pending>& pending,
                                          ThreadPool* pool) {
  std::vector<std::string> slots(pending.size());
  ParallelForOrSerial(
      pool, static_cast<int64_t>(pending.size()),
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          const Pending& p = pending[static_cast<size_t>(i)];
          const int target = p.item.target;
          BruteForceEvaluator oracle(p.snap.view_ptr(), p.snap.queries_ptr(),
                                     target);
          const Vec improved =
              Add(p.snap.dataset().attrs(target), p.result.strategy);
          const int hits =
              oracle.HitsForCoeffs(p.snap.view().CoefficientsFor(improved));
          if (oracle.base_hits() != p.result.hits_before ||
              hits != p.result.hits_after) {
            slots[static_cast<size_t>(i)] =
                Describe(p.item) + ": brute force counts " +
                std::to_string(oracle.base_hits()) + " -> " +
                std::to_string(hits) + ", engine " +
                std::to_string(p.result.hits_before) + " -> " +
                std::to_string(p.result.hits_after);
          }
        }
      },
      "e2e.verify", ChunkPolicy::kDynamic);
  std::vector<std::string> errors;
  for (std::string& s : slots) {
    if (!s.empty()) errors.push_back(std::move(s));
  }
  return errors;
}

/// Records one operation's outcome; returns true when it succeeded and
/// passed the goal checks.
bool Accept(const BatchItem& item, const Result<IqResult>& r,
            RunResult* res) {
  std::string error =
      r.ok() ? CheckGoal(item, *r) : Describe(item) + ": " +
                                         r.status().ToString();
  if (error.empty()) return true;
  ++res->failed;
  res->errors.push_back(std::move(error));
  return false;
}

/// Solve quality, reported as diagnostics: mean Min-Cost cost over the
/// answers that reached tau, mean Max-Hit hits.
struct Quality {
  RunningStats mincost_cost;
  RunningStats maxhit_hits;

  void Add(const BatchItem& item, const IqResult& r) {
    if (item.kind == BatchItem::Kind::kMinCost) {
      if (r.reached_goal) mincost_cost.Add(r.cost);
    } else {
      maxhit_hits.Add(r.hits_after);
    }
  }
  void Report(RunResult* res) const {
    res->diagnostics.push_back(
        {"mincost_cost_mean", mincost_cost.mean(), "cost"});
    res->diagnostics.push_back(
        {"maxhit_hits_mean", maxhit_hits.mean(), "count"});
  }
};

/// The paper's loop closed: solve an IQ, apply its strategy through
/// ApplyStrategy (the §4.3 maintenance path), and require the engine's
/// reverse top-k count of the moved object to equal the solver's
/// hits_after.
void ApplyCheck(const Spec& spec, uint64_t seed, IqEngine* engine,
                Observer* obs, RunResult* res) {
  Rng rng(StreamSeed(seed, kApplyCheck));
  const BatchItem item = NextSolve(&rng, /*min_cost=*/true, spec.n, spec.m,
                                   /*bounded=*/true);
  OpTime t;
  Result<IqResult> r = Solve(*engine, item, obs, Cpu::kProcess, &t);
  if (!r.ok()) {
    res->errors.push_back("apply check: " + r.status().ToString());
    return;
  }
  WriteOp op;
  op.target = item.target;
  op.strategy = r->strategy;
  Status st = Write(engine, &op, obs, Cpu::kProcess, &t);
  if (!st.ok()) {
    res->errors.push_back("apply check: " + st.ToString());
  } else if (engine->HitCount(item.target) != r->hits_after) {
    res->errors.push_back(
        "apply check: " + Describe(item) + " promised " +
        std::to_string(r->hits_after) + " hits, the index counts " +
        std::to_string(engine->HitCount(item.target)));
  }
}

// ---------------------------------------------------------------------------
// Set-up and the four workloads.


double Median(std::vector<double> values) {
  PercentileTracker t;
  for (double v : values) t.Add(v);
  return t.Percentile(50);
}

/// Host-speed reference. A fixed amount of benchmark-owned work in the
/// shape of the engine's hot loops — slot-major dot products against a
/// batch of weight vectors, each score compared with a threshold — run on
/// every participant of a pool sized like the engine's. On a shared host
/// the CPU time of the same code drifts with the neighbours' load (25%
/// within 15 minutes while calibrating, steal already excluded) and the
/// drift is common to every workload; sampling this kernel through the run
/// measures it, and Factor() divides it out (README.md).
class HostSpeed {
 public:
  HostSpeed() {
    Rng rng(0x5EED);
    rows_ = rng.UniformVector(kSlots * kRows, 0.0, 1.0);
    weights_ = rng.UniformVector(kSlots * kQueries, 0.0, 1.0);
  }

  /// Runs the kernel once per participant; records the mean CPU time.
  void Sample() {
    constexpr int kParticipants = kThreads + 1;
    std::vector<int64_t> cpu_ns(kParticipants, 0);
    std::vector<int64_t> hits(kParticipants, 0);
    pool_.ParallelFor(
        kParticipants,
        [&](int64_t begin, int64_t end) {
          for (int64_t p = begin; p < end; ++p) {
            const int64_t start = CpuNanos(Cpu::kThread);
            hits[static_cast<size_t>(p)] = Kernel();
            cpu_ns[static_cast<size_t>(p)] = CpuNanos(Cpu::kThread) - start;
          }
        },
        "e2e.host_speed", ChunkPolicy::kStatic);
    double total_ms = 0.0;
    for (int64_t ns : cpu_ns) total_ms += static_cast<double>(ns) / 1e6;
    samples_ms_.push_back(total_ms / kParticipants);
    since_.Restart();
  }

  /// Samples when kPeriodSeconds passed since the last sample.
  void MaybeSample() {
    if (since_.ElapsedSeconds() >= kPeriodSeconds) Sample();
  }

  double median_ms() const { return Median(samples_ms_); }
  size_t samples() const { return samples_ms_.size(); }
  /// (kNominalMs / median sample)^kElasticity: a CPU time multiplied by it
  /// is expressed at the typical speed of the host the bounds were
  /// calibrated on. The workloads' CPU time moves less than the kernel's
  /// when the host slows: regressed on the kernel over 40 runs, log
  /// workload time rose 0.63-0.86 per unit of log kernel time.
  double Factor() const {
    return std::pow(kNominalMs / std::max(median_ms(), 1e-9), kElasticity);
  }

 private:
  static constexpr int kSlots = 4;
  static constexpr int kRows = 16384;
  static constexpr int kQueries = 128;
  static constexpr double kPeriodSeconds = 0.5;
  /// The kernel's typical CPU time on the calibration host (README.md).
  static constexpr double kNominalMs = 3.5;
  static constexpr double kElasticity = 0.7;

  int64_t Kernel() const {
    int64_t hits = 0;
    for (int q = 0; q < kQueries; ++q) {
      const double* w = &weights_[static_cast<size_t>(q * kSlots)];
      for (int r = 0; r < kRows; ++r) {
        double score = 0.0;
        for (int s = 0; s < kSlots; ++s) {
          score += rows_[static_cast<size_t>(s * kRows + r)] * w[s];
        }
        hits += score < 1.0;
      }
    }
    return hits;
  }

  ThreadPool pool_{kThreads};
  std::vector<double> rows_;
  std::vector<double> weights_;
  std::vector<double> samples_ms_;
  WallTimer since_;
};

/// What a timed window measured, for the end-to-end metrics.
struct Window {
  /// The workload's operation — a solve, a batch, a write or a build — in
  /// CPU time, and in wall-clock time (a write's from its due time).
  PercentileTracker cpu_ms;
  PercentileTracker latency_ms;
  /// Units of the throughputs: solves, batch items, reader solves, builds;
  /// and the CPU time they took.
  int64_t completed = 0;
  double completed_cpu_ms = 0.0;
  double seconds = 0.0;
  /// ru_maxrss right after the window, before the checks allocate.
  double peak_rss_mb = 0.0;
  /// Sampled before, between and after the operations, never inside one.
  HostSpeed speed;
};

/// Bytes the allocator has handed out and not taken back. Unlike the
/// resident set it does not depend on how freed memory is spread over
/// per-thread arenas, so it repeats for a seed.
double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / kMiB;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// A few solves so the pool threads, allocator and caches are warm before
/// the clock starts. Not reported to the observer.
Status WarmUp(const Spec& spec, uint64_t seed, const IqEngine& engine) {
  Observer none;
  Rng rng(StreamSeed(seed, kWarmUp));
  OpTime t;
  if (spec.name == "build_house") return Status::Ok();
  if (spec.name == "batch_house") {
    std::vector<BatchItem> items;
    for (int j = 0; j < 8; ++j) {
      items.push_back(NextSolve(&rng, j % 2 == 0, spec.n, spec.m, true));
    }
    return SolveBatch(engine, items, &none, &t).status();
  }
  for (bool min_cost : {true, false}) {
    BatchItem item = NextSolve(&rng, min_cost, spec.n, spec.m, false);
    IQ_RETURN_IF_ERROR(Solve(engine, item, &none, Cpu::kProcess, &t).status());
  }
  return Status::Ok();
}

/// Generates the inputs, builds the engine and warms it up, kSetupReps
/// times. Returns the median set-up time; the last engine is the one the
/// workload measures.
Result<OpTime> RunSetup(const Spec& spec, uint64_t seed, Observer* obs,
                        Inputs* inputs, std::optional<IqEngine>* engine,
                        HostSpeed* speed) {
  std::vector<double> wall, cpu;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    speed->Sample();
    engine->reset();
    const OpClock clock(Cpu::kProcess);
    const int64_t gen_start = NowNanos();
    *inputs = MakeInputs(spec, seed);
    obs->OnGenerate(gen_start, NowNanos());
    OpTime t;
    IQ_ASSIGN_OR_RETURN(IqEngine built, Build(*inputs, spec.threads, obs, &t));
    engine->emplace(std::move(built));
    IQ_RETURN_IF_ERROR(WarmUp(spec, seed, **engine));
    clock.Stop(&t);
    wall.push_back(t.wall_ms);
    cpu.push_back(t.cpu_ms);
  }
  return OpTime{Median(wall), Median(cpu)};
}

/// Fig. 7: one closed-loop caller alternating Min-Cost and Max-Hit, the
/// paper's Algorithm 3/4 with parallelism inside each solve.
void RunSolveIn(const Spec& spec, const Args& args, IqEngine* engine,
                Observer* obs, RunResult* res, Window* w) {
  Rng rng(StreamSeed(args.seed, kOps));
  PercentileTracker mincost_ms, maxhit_ms;
  Quality quality;
  std::vector<Pending> pending;
  obs->OnPhase(Phase::kTimed);
  WallTimer window;
  for (int64_t i = 0; window.ElapsedSeconds() < args.seconds; ++i) {
    const BatchItem item = NextSolve(&rng, i % 2 == 0, spec.n, spec.m, false);
    OpTime t;
    Result<IqResult> r = Solve(*engine, item, obs, Cpu::kProcess, &t);
    ++res->attempted;
    w->latency_ms.Add(t.wall_ms);
    w->cpu_ms.Add(t.cpu_ms);
    (item.kind == BatchItem::Kind::kMinCost ? mincost_ms : maxhit_ms)
        .Add(t.wall_ms);
    if (!Accept(item, r, res)) continue;
    ++w->completed;
    w->completed_cpu_ms += t.cpu_ms;
    quality.Add(item, *r);
    if (i % kVerifyEvery == 0 && pending.size() < kVerifyMax) {
      pending.push_back({engine->Snapshot(), item, *r});
    }
    w->speed.MaybeSample();
  }
  w->seconds = window.ElapsedSeconds();
  w->peak_rss_mb = PeakRssMb();
  obs->OnPhase(Phase::kCheck);
  ThreadPool pool(kThreads);
  for (std::string& e : VerifyBruteForce(pending, &pool)) {
    ++res->failed;
    res->errors.push_back(std::move(e));
  }
  res->diagnostics.push_back({"mincost_p50_ms", mincost_ms.Percentile(50), "ms"});
  res->diagnostics.push_back({"maxhit_p50_ms", maxhit_ms.Percentile(50), "ms"});
  quality.Report(res);
}

/// Fig. 12: one closed-loop caller issuing SolveBatch calls of fresh
/// items, half Min-Cost and half Max-Hit, with the figure benches' bounded
/// search; parallel across items.
void RunBatchHouse(const Spec& spec, const Args& args, IqEngine* engine,
                   Observer* obs, RunResult* res, Window* w) {
  Rng rng(StreamSeed(args.seed, kOps));
  Quality quality;
  std::vector<Pending> pending;
  std::vector<BatchItem> first_items;
  std::vector<IqResult> first_results;
  obs->OnPhase(Phase::kTimed);
  WallTimer window;
  for (int64_t b = 0; window.ElapsedSeconds() < args.seconds; ++b) {
    std::vector<BatchItem> items;
    w->speed.MaybeSample();
    for (int j = 0; j < kBatchSize; ++j) {
      items.push_back(NextSolve(&rng, j % 2 == 0, spec.n, spec.m, true));
    }
    OpTime t;
    Result<std::vector<IqResult>> r = SolveBatch(*engine, items, obs, &t);
    res->attempted += kBatchSize;
    w->latency_ms.Add(t.wall_ms);
    w->cpu_ms.Add(t.cpu_ms);
    if (!r.ok()) {
      res->failed += kBatchSize;
      res->errors.push_back("SolveBatch: " + r.status().ToString());
      continue;
    }
    for (int j = 0; j < kBatchSize; ++j) {
      const BatchItem& item = items[static_cast<size_t>(j)];
      const IqResult& result = (*r)[static_cast<size_t>(j)];
      if (!Accept(item, result, res)) continue;
      ++w->completed;
      quality.Add(item, result);
      if ((b * kBatchSize + j) % kVerifyEvery == 0 &&
          pending.size() < kVerifyMax) {
        pending.push_back({engine->Snapshot(), item, result});
      }
    }
    w->completed_cpu_ms += t.cpu_ms;
    if (b == 0) {
      first_items = std::move(items);
      first_results = std::move(*r);
    }
  }
  w->seconds = window.ElapsedSeconds();
  w->peak_rss_mb = PeakRssMb();
  obs->OnPhase(Phase::kCheck);
  ThreadPool pool(kThreads);
  for (std::string& e : VerifyBruteForce(pending, &pool)) {
    ++res->failed;
    res->errors.push_back(std::move(e));
  }
  // A batch is a pure function of its epoch: solving the first one again
  // must give byte-identical answers.
  if (!first_items.empty()) {
    OpTime t;
    Result<std::vector<IqResult>> again =
        SolveBatch(*engine, first_items, obs, &t);
    if (!again.ok()) {
      res->errors.push_back("first batch re-solve: " +
                            again.status().ToString());
    } else {
      for (size_t j = 0; j < first_items.size(); ++j) {
        if (!SameResult((*again)[j], first_results[j])) {
          res->errors.push_back("first batch re-solve differs at " +
                                Describe(first_items[j]));
        }
      }
    }
  }
  quality.Report(res);
}

/// Sleeps until `due` seconds on `clock`; returns how late it woke, in ms.
double WaitUntil(const WallTimer& clock, double due) {
  const double wait = due - clock.ElapsedSeconds();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
  return std::max(0.0, clock.ElapsedSeconds() - due) * 1e3;
}

/// §4.3 under load: one open-loop writer (80% ApplyStrategy, 10% AddQuery,
/// 10% RemoveQuery of the oldest added query) beside open-loop Min-Cost
/// readers, on the serial engine. Latencies count from the due time.
void RunChurnIn(const Spec& spec, const Args& args, IqEngine* engine,
                Observer* obs, RunResult* res, Window* w) {
  struct Reader {
    PercentileTracker latency_ms;
    int64_t attempted = 0;
    int64_t completed = 0;
    RunResult outcome;  // failed + errors of this reader
    RunningStats mincost_cost;
    double cpu_ms = 0.0;
    std::vector<Pending> pending;
  };
  std::vector<Reader> readers(kReaders);
  std::atomic<bool> stop{false};
  obs->OnPhase(Phase::kTimed);
  const WallTimer window;
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      Reader& me = readers[static_cast<size_t>(t)];
      try {
        Rng rng(StreamSeed(args.seed, kReaderBase + static_cast<uint64_t>(t)));
        for (int64_t i = 0;; ++i) {
          // Readers are staggered across the period.
          const double due =
              (static_cast<double>(i) + static_cast<double>(t) / kReaders) /
              kReadsPerSecond;
          WaitUntil(window, due);
          if (stop.load(std::memory_order_acquire)) break;
          const BatchItem item =
              NextSolve(&rng, /*min_cost=*/true, spec.n, spec.m, false);
          OpTime t;
          EpochHandle solved_on;
          Result<IqResult> r =
              Solve(*engine, item, obs, Cpu::kThread, &t, &solved_on);
          ++me.attempted;
          me.latency_ms.Add((window.ElapsedSeconds() - due) * 1e3);
          me.cpu_ms += t.cpu_ms;
          if (!Accept(item, r, &me.outcome)) continue;
          ++me.completed;
          if (r->reached_goal) me.mincost_cost.Add(r->cost);
          if (i % kVerifyEvery == 0 && solved_on.valid() &&
              me.pending.size() < kVerifyMax / kReaders) {
            me.pending.push_back({std::move(solved_on), item, *r});
          }
        }
      } catch (const std::exception& e) {
        ++me.outcome.failed;
        me.outcome.errors.push_back(std::string("reader threw: ") + e.what());
      }
    });
  }

  Rng rng(StreamSeed(args.seed, kOps));
  const int dim = engine->dataset().dim();
  std::deque<int> added;  // queries this run added, oldest first
  PercentileTracker apply_ms, lag_ms;
  const int64_t writes =
      std::max<int64_t>(1, std::llround(args.seconds * kWritesPerSecond));
  for (int64_t i = 0; i < writes; ++i) {
    const double due = static_cast<double>(i) / kWritesPerSecond;
    w->speed.MaybeSample();
    lag_ms.Add(WaitUntil(window, due));
    // A fixed 8:1:1 cycle, so every run has the same write mix.
    WriteOp op;
    if (i % 10 == 3) {
      op.kind = WriteOp::Kind::kAddQuery;
      op.query = MakeQueries(1, dim, rng.NextUint64())[0];
    } else if (i % 10 == 8 && !added.empty()) {
      op.kind = WriteOp::Kind::kRemoveQuery;
      op.target = added.front();
      added.pop_front();
    } else {
      op.target = static_cast<int>(rng.UniformInt(0, spec.n - 1));
      for (int j = 0; j < dim; ++j) {
        op.strategy.push_back(rng.Bernoulli(0.5) ? kApplyStep : -kApplyStep);
      }
    }
    OpTime t;
    Status st = Write(engine, &op, obs, Cpu::kThread, &t);
    const double from_due = (window.ElapsedSeconds() - due) * 1e3;
    ++res->attempted;
    w->latency_ms.Add(from_due);
    w->cpu_ms.Add(t.cpu_ms);
    if (op.kind == WriteOp::Kind::kApply) apply_ms.Add(from_due);
    if (!st.ok()) {
      ++res->failed;
      res->errors.push_back("write " + std::to_string(i) + ": " +
                            st.ToString());
    } else if (op.kind == WriteOp::Kind::kAddQuery) {
      added.push_back(op.target);
    }
  }
  w->seconds = window.ElapsedSeconds();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  w->peak_rss_mb = PeakRssMb();

  PercentileTracker read_ms;
  double cost_sum = 0.0;
  size_t cost_count = 0;
  std::vector<Pending> pending;
  for (Reader& r : readers) {
    res->attempted += r.attempted;
    res->failed += r.outcome.failed;
    for (std::string& e : r.outcome.errors) res->errors.push_back(e);
    read_ms.Merge(r.latency_ms);
    w->completed += r.completed;
    w->completed_cpu_ms += r.cpu_ms;
    cost_sum += r.mincost_cost.sum();
    cost_count += r.mincost_cost.count();
    for (Pending& p : r.pending) pending.push_back(std::move(p));
  }

  obs->OnPhase(Phase::kCheck);
  ThreadPool pool(kThreads);
  for (std::string& e : VerifyBruteForce(pending, &pool)) {
    ++res->failed;
    res->errors.push_back(std::move(e));
  }
  Status inv = engine->CheckInvariants();
  if (!inv.ok()) res->errors.push_back("CheckInvariants: " + inv.ToString());
  // The incrementally maintained index must count what a from-scratch
  // build of the final state counts.
  EpochHandle final_epoch = engine->Snapshot();
  Inputs now{final_epoch.dataset(), {}};
  for (int q = 0; q < final_epoch.queries().size(); ++q) {
    if (final_epoch.queries().is_active(q)) {
      now.queries.push_back(final_epoch.queries().query(q));
    }
  }
  Observer none;
  OpTime t;
  Result<IqEngine> fresh = Build(now, kThreads, &none, &t);
  if (!fresh.ok()) {
    res->errors.push_back("rebuild: " + fresh.status().ToString());
  } else {
    Rng sample(StreamSeed(args.seed, kSample));
    for (int s = 0; s < kRebuildSamples; ++s) {
      const int obj = static_cast<int>(sample.UniformInt(0, spec.n - 1));
      if (fresh->HitCount(obj) != engine->HitCount(obj)) {
        res->errors.push_back(
            "object " + std::to_string(obj) + ": maintained index counts " +
            std::to_string(engine->HitCount(obj)) + " hits, rebuild " +
            std::to_string(fresh->HitCount(obj)));
        break;
      }
    }
  }
  res->diagnostics.push_back({"apply_p50_ms", apply_ms.Percentile(50), "ms"});
  res->diagnostics.push_back({"read_p50_ms", read_ms.Percentile(50), "ms"});
  res->diagnostics.push_back({"read_p90_ms", read_ms.Percentile(90), "ms"});
  res->diagnostics.push_back({"reads", static_cast<double>(read_ms.count()), "count"});
  res->diagnostics.push_back({"writer_lag_max_ms", lag_ms.Percentile(100), "ms"});
  res->diagnostics.push_back(
      {"mincost_cost_mean",
       cost_count > 0 ? cost_sum / static_cast<double>(cost_count) : 0.0,
       "cost"});
}

/// Figs. 4/6: index construction only, IqEngine::Create on copies of the
/// same inputs, made outside the clock.
void RunBuildHouse(const Spec& spec, const Args& args, const Inputs& inputs,
                   std::optional<IqEngine>* engine, Observer* obs,
                   RunResult* res, Window* w) {
  const IqEngine& reference = **engine;
  const int subdomains = reference.index().num_subdomains();
  const size_t bytes = reference.index().MemoryBytes();
  std::optional<IqEngine> last;
  obs->OnPhase(Phase::kTimed);
  WallTimer window;
  while (window.ElapsedSeconds() < args.seconds) {
    w->speed.MaybeSample();
    OpTime t;
    Result<IqEngine> built = Build(inputs, spec.threads, obs, &t);
    ++res->attempted;
    w->latency_ms.Add(t.wall_ms);
    w->cpu_ms.Add(t.cpu_ms);
    if (!built.ok()) {
      ++res->failed;
      res->errors.push_back("Create: " + built.status().ToString());
      continue;
    }
    if (built->index().num_subdomains() != subdomains ||
        built->index().MemoryBytes() != bytes) {
      ++res->failed;
      res->errors.push_back(
          "build " + std::to_string(res->attempted) + " has " +
          std::to_string(built->index().num_subdomains()) + " subdomains / " +
          std::to_string(built->index().MemoryBytes()) + " bytes, expected " +
          std::to_string(subdomains) + " / " + std::to_string(bytes));
    }
    ++w->completed;
    w->completed_cpu_ms += t.cpu_ms;
    last.reset();
    last.emplace(std::move(*built));
  }
  w->seconds = window.ElapsedSeconds();
  w->peak_rss_mb = PeakRssMb();
  obs->OnPhase(Phase::kCheck);
  if (!last.has_value()) return;
  Status inv = last->CheckInvariants();
  if (!inv.ok()) res->errors.push_back("CheckInvariants: " + inv.ToString());
  // Every build of the same inputs must answer the same IQs identically.
  Rng rng(StreamSeed(args.seed, kProbe));
  for (int p = 0; p < kProbes; ++p) {
    const BatchItem item = NextSolve(&rng, p % 2 == 0, spec.n, spec.m, true);
    OpTime t;
    Result<IqResult> a = Solve(reference, item, obs, Cpu::kProcess, &t);
    Result<IqResult> b = Solve(*last, item, obs, Cpu::kProcess, &t);
    if (!a.ok() || !b.ok() || !SameResult(*a, *b)) {
      res->errors.push_back("probe " + Describe(item) +
                            " differs between the first and last build");
    }
  }
  engine->reset();
  engine->emplace(std::move(*last));
}

const Spec* FindSpec(std::string_view name) {
  for (const Spec& spec : kSpecs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

/// Full precision; JSON has no NaN or infinity, so those become null.
void AppendJsonNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

void AppendMetrics(std::string* out, const std::vector<Metric>& metrics) {
  out->push_back('{');
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out->append(", ");
    AppendJsonString(out, metrics[i].name);
    out->append(": {\"value\": ");
    AppendJsonNumber(out, metrics[i].value);
    out->append(", \"unit\": ");
    AppendJsonString(out, metrics[i].unit);
    out->push_back('}');
  }
  out->push_back('}');
}

}  // namespace

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&](std::string_view flag, std::string* out) {
      if (arg.substr(0, flag.size()) != flag) return false;
      *out = std::string(arg.substr(flag.size()));
      return true;
    };
    std::string v;
    if (value("--workload=", &args.workload)) continue;
    if (value("--json=", &args.json_path)) continue;
    if (value("--trace-out=", &args.trace_path)) continue;
    if (arg == "--smoke") {
      args.smoke = true;
      continue;
    }
    char* end = nullptr;
    if (value("--seed=", &v)) {
      args.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (value("--seconds=", &v)) {
      args.seconds = std::strtod(v.c_str(), &end);
      if (!(args.seconds > 0)) end = nullptr;
    } else {
      return Status::InvalidArgument("unknown flag " + std::string(arg));
    }
    if (end == nullptr || *end != '\0' || v.empty()) {
      return Status::InvalidArgument("bad value in " + std::string(arg));
    }
  }
  if (FindSpec(args.workload) == nullptr) {
    return Status::InvalidArgument(
        "--workload must be one of solve_in, batch_house, churn_in, "
        "build_house");
  }
  return args;
}

bool IsMeasurableBuild() {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__) || defined(IQ_E2E_SANITIZED)
  return false;
#else
  return true;
#endif
}

int64_t NowNanos() {
  static const WallTimer kProcessStart;
  return static_cast<int64_t>(kProcessStart.ElapsedNanos());
}

bool SameResult(const IqResult& a, const IqResult& b) {
  const EvalBreakdown& x = a.breakdown;
  const EvalBreakdown& y = b.breakdown;
  return a.strategy == b.strategy && a.cost == b.cost &&
         a.hits_before == b.hits_before && a.hits_after == b.hits_after &&
         a.reached_goal == b.reached_goal && a.iterations == b.iterations &&
         a.evaluator_calls == b.evaluator_calls &&
         x.iterations == y.iterations &&
         x.candidates_generated == y.candidates_generated &&
         x.candidates_evaluated == y.candidates_evaluated &&
         x.evaluator_calls == y.evaluator_calls &&
         x.queries_rescored == y.queries_rescored &&
         x.queries_reused == y.queries_reused;
}

Result<RunResult> RunWorkload(const Args& args, Observer* obs) {
  Spec spec = *FindSpec(args.workload);
  if (args.smoke) {
    spec.n = kSmokeObjects;
    spec.m = kSmokeQueries;
  }
  RunResult res;
  Inputs inputs;
  std::optional<IqEngine> engine;
  Window w;
  obs->OnPhase(Phase::kSetup);
  IQ_ASSIGN_OR_RETURN(
      const OpTime setup,
      RunSetup(spec, args.seed, obs, &inputs, &engine, &w.speed));
  const double index_mb =
      static_cast<double>(engine->index().MemoryBytes()) / kMiB;
  const double heap_mb = HeapInUseMb();

  if (spec.name == "solve_in") {
    RunSolveIn(spec, args, &*engine, obs, &res, &w);
  } else if (spec.name == "batch_house") {
    RunBatchHouse(spec, args, &*engine, obs, &res, &w);
  } else if (spec.name == "churn_in") {
    RunChurnIn(spec, args, &*engine, obs, &res, &w);
  } else {
    RunBuildHouse(spec, args, inputs, &engine, obs, &res, &w);
  }
  ApplyCheck(spec, args.seed, &*engine, obs, &res);
  w.speed.Sample();
  w.speed.Sample();

  const double seconds = std::max(w.seconds, 1e-9);
  // The gated timings are CPU time, which leaves out what the hypervisor
  // steals, scaled by the host-speed factor, which divides out the drift
  // neighbours cause in CPU time itself (README.md). The raw and the
  // wall-clock numbers are reported beside them.
  const double f = w.speed.Factor();
  res.metrics = {
      {"setup_s", setup.cpu_ms / 1e3 * f, "s"},
      {"cpu_p50_ms", w.cpu_ms.Percentile(50) * f, "ms"},
      {"cpu_p90_ms", w.cpu_ms.Percentile(90) * f, "ms"},
      {"heap_mb", heap_mb, "MB"},
      {"index_mb", index_mb, "MB"},
  };
  res.diagnostics.insert(
      res.diagnostics.begin(),
      {{"samples", static_cast<double>(w.cpu_ms.count()), "count"},
       {"host_reference_ms", w.speed.median_ms(), "ms"},
       {"host_samples", static_cast<double>(w.speed.samples()), "count"},
       {"cpu_p50_raw_ms", w.cpu_ms.Percentile(50), "ms"},
       {"cpu_p90_raw_ms", w.cpu_ms.Percentile(90), "ms"},
       {"setup_cpu_raw_s", setup.cpu_ms / 1e3, "s"},
       {"cpu_p99_ms", w.cpu_ms.Percentile(99) * f, "ms"},
       {"peak_rss_mb", w.peak_rss_mb, "MB"},
       {"ops_per_cpu_s",
        static_cast<double>(w.completed) /
            std::max(w.completed_cpu_ms / 1e3 * f, 1e-9),
        "1/s"},
       {"latency_p50_ms", w.latency_ms.Percentile(50), "ms"},
       {"latency_p90_ms", w.latency_ms.Percentile(90), "ms"},
       {"latency_p99_ms", w.latency_ms.Percentile(99), "ms"},
       {"throughput_per_s", static_cast<double>(w.completed) / seconds, "1/s"},
       {"setup_wall_s", setup.wall_ms / 1e3, "s"},
       {"window_s", w.seconds, "s"}});
  res.sizes = {
      {"n", static_cast<double>(spec.n), "objects"},
      {"m", static_cast<double>(spec.m), "queries"},
      {"dim", static_cast<double>(inputs.data.dim()), "attributes"},
      {"engine_threads", static_cast<double>(spec.threads), "threads"},
      {"setup_reps", kSetupReps, "count"},
  };
  if (spec.name == "batch_house") {
    res.sizes.push_back({"batch_size", kBatchSize, "items"});
  }
  if (spec.name == "churn_in") {
    res.sizes.push_back({"write_rate", kWritesPerSecond, "1/s"});
    res.sizes.push_back({"readers", kReaders, "threads"});
    res.sizes.push_back({"read_rate", kReadsPerSecond, "1/s"});
  }
  return res;
}

int Finish(const char* binary, const Args& args, const RunResult& res,
           const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : res.diagnostics) {
    std::printf("# %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : res.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  const bool correct = res.errors.empty();
  if (!args.json_path.empty()) {
    std::string out = "{\"binary\": ";
    AppendJsonString(&out, binary);
    out.append(", \"workload\": ");
    AppendJsonString(&out, args.workload);
    const char* sha = std::getenv("IQ_GIT_SHA");
    out.append(", \"run\": {\"git_sha\": ");
    AppendJsonString(&out, sha != nullptr && *sha != '\0' ? sha : "unknown");
    out.append(", \"build_type\": ");
    AppendJsonString(&out, IsMeasurableBuild() ? "release" : "debug-or-sanitized");
    out.append(", \"compiler\": ");
    AppendJsonString(&out, __VERSION__);
    out.append(", \"host_cpus\": " +
               std::to_string(std::thread::hardware_concurrency()) +
               ", \"threads\": " + std::to_string(kThreads) +
               ", \"seed\": " + std::to_string(args.seed) + ", \"seconds\": ");
    AppendJsonNumber(&out, args.seconds);
    out.append(std::string(", \"smoke\": ") + (args.smoke ? "true" : "false") +
               "}, \"sizes\": ");
    AppendMetrics(&out, res.sizes);
    out.append(", \"correct\": " + std::string(correct ? "true" : "false") +
               ", \"attempted\": " + std::to_string(res.attempted) +
               ", \"failed\": " + std::to_string(res.failed) +
               ", \"errors\": [");
    for (size_t i = 0; i < res.errors.size(); ++i) {
      if (i > 0) out.append(", ");
      AppendJsonString(&out, res.errors[i]);
    }
    out.append("], \"metrics\": ");
    AppendMetrics(&out, metrics);
    out.append(", \"diagnostics\": ");
    AppendMetrics(&out, res.diagnostics);
    out.append("}\n");
    std::FILE* f = std::fopen(args.json_path.c_str(), "w");
    if (f == nullptr || std::fputs(out.c_str(), f) < 0 ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
  }
  std::string line = "{\"correct\": ";
  line.append(correct ? "true" : "false");
  line.append(", \"attempted\": " + std::to_string(res.attempted) +
              ", \"failed\": " + std::to_string(res.failed) +
              ", \"metrics\": ");
  AppendMetrics(&line, metrics);
  std::printf("%s}\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace e2e
}  // namespace iq
