// The end-to-end benchmark's traced run (README.md): the same workload as
// iq_e2e, and after every engine call a replica of that call through the
// layers' public functions, one span per layer. The replica must reproduce
// the engine's answer bit for bit. Prints the per-layer rollup and the
// per-layer metrics; --trace-out= writes every span as Chrome-trace JSON.
//
//   iq_e2e_trace --workload=solve_in --seed=1 --seconds=20 [--trace-out=PATH]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/e2e/e2e.h"
#include "core/evaluator.h"
#include "core/iq_algorithms.h"
#include "core/score_kernel.h"
#include "util/annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace iq {
namespace e2e {
namespace {

// ---------------------------------------------------------------------------
// Spans: kept in per-thread buffers, read once every thread is idle.

struct SpanRecord {
  const char* name;  // a layer name with static storage
  uint64_t request;  // the operation the span belongs to
  uint64_t id;
  uint64_t parent;  // 0 = root
  int tid;
  Phase phase;
  int64_t start_ns;
  int64_t end_ns;
};

/// Bounds memory on long runs; spans past it are counted, not kept.
constexpr size_t kMaxSpansPerThread = size_t{1} << 20;
/// Spans of the cost calibration; left out of every report.
constexpr const char* kCalibration = "calibration";

class SpanStore {
 public:
  static SpanStore& Get() {
    static SpanStore store;
    return store;
  }

  void Record(const SpanRecord& span) {
    thread_local std::vector<SpanRecord>* buffer = nullptr;
    thread_local int tid = 0;
    if (buffer == nullptr) {
      MutexLock lock(&mu_);
      buffers_.push_back(std::make_unique<std::vector<SpanRecord>>());
      buffer = buffers_.back().get();
      tid = static_cast<int>(buffers_.size());
    }
    if (buffer->size() >= kMaxSpansPerThread) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    buffer->push_back(span);
    buffer->back().tid = tid;
  }

  /// Every span recorded so far. Call only while no thread records.
  std::vector<SpanRecord> Collect() {
    MutexLock lock(&mu_);
    std::vector<SpanRecord> all;
    for (const auto& b : buffers_) {
      for (const SpanRecord& s : *b) {
        if (s.name != kCalibration) all.push_back(s);
      }
    }
    return all;
  }

  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  Mutex mu_{LockRank::kLeaf, "SpanStore::mu_"};
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers_
      IQ_GUARDED_BY(mu_);
  std::atomic<uint64_t> dropped_{0};
};

std::atomic<uint64_t> g_next_id{1};
std::atomic<Phase> g_phase{Phase::kSetup};

uint64_t NextId() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

void Emit(const char* name, uint64_t request, uint64_t id, uint64_t parent,
          int64_t start_ns, int64_t end_ns) {
  SpanStore::Get().Record({name, request, id, parent, 0,
                           g_phase.load(std::memory_order_relaxed), start_ns,
                           end_ns});
}

/// One layer call: records [construction, destruction) under `parent`.
class Span {
 public:
  Span(const char* name, uint64_t request, uint64_t parent)
      : name_(name),
        request_(request),
        parent_(parent),
        id_(NextId()),
        start_(NowNanos()) {}
  ~Span() { Emit(name_, request_, id_, parent_, start_, NowNanos()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t request_;
  uint64_t parent_;
  uint64_t id_;
  int64_t start_;
};

// ---------------------------------------------------------------------------
// The replica.

/// Forwarding StrategyEvaluator that times each H evaluation at the layer
/// boundary. Keeps SupportsConcurrentEval(), so the search takes the same
/// parallel path it takes in the engine.
class TimedEvaluator : public StrategyEvaluator {
 public:
  explicit TimedEvaluator(StrategyEvaluator* inner) : inner_(inner) {}

  int HitsForCoeffs(const Vec& c) override {
    WallTimer timer;
    const int hits = inner_->HitsForCoeffs(c);
    busy_ns_.fetch_add(timer.ElapsedNanos(), std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
    return hits;
  }
  int base_hits() const override { return inner_->base_hits(); }
  const char* name() const override { return inner_->name(); }
  bool SupportsConcurrentEval() const override {
    return inner_->SupportsConcurrentEval();
  }

  double busy_ms() const {
    return static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) /
           1e6;
  }

 private:
  StrategyEvaluator* inner_;
  std::atomic<uint64_t> busy_ns_{0};
};

/// What the replica derives per call instead of timing as spans. Sums over
/// the run; the per-layer metrics divide them by searches, writes or builds.
struct Tallies {
  double searches = 0;
  double solver_ms = 0;
  double eval_wall_ms = 0;
  double eval_busy_ms = 0;
  double iterations = 0;
  double candidates = 0;
  double eval_calls = 0;
  double timed_eval_calls = 0;
  double rows_scored = 0;
  double bytes_scored = 0;
  /// Pooled regions (candidate evaluation, batches): busy thread time, and
  /// wall time × participating threads.
  double pool_busy_ms = 0;
  double pool_capacity_ms = 0;
  double writes = 0;
  double reranks = 0;
  double affected = 0;
  double reuse = 0;
  double builds = 0;
  double subdomains = 0;
  double index_bytes = 0;
};

const char* EngineSpanName(const WriteOp& op) {
  switch (op.kind) {
    case WriteOp::Kind::kApply:
      return "engine.apply_strategy";
    case WriteOp::Kind::kAddQuery:
      return "engine.add_query";
    case WriteOp::Kind::kRemoveQuery:
      return "engine.remove_query";
  }
  return "engine.write";
}

/// Pins the current epoch the way every engine call starts, as a span.
void TimePin(const IqEngine& engine, uint64_t req, uint64_t parent) {
  Span pin("core.epoch.pin", req, parent);
  EpochHandle handle = engine.Snapshot();
}

class Tracer : public Observer {
 public:
  Tracer() : pool_(kThreads) {}

  void OnPhase(Phase phase) override {
    g_phase.store(phase, std::memory_order_relaxed);
  }

  void OnGenerate(int64_t start_ns, int64_t end_ns) override {
    Emit("data.generate", NextId(), NextId(), 0, start_ns, end_ns);
  }

  // Engine path: IqEngine::MinCost/MaxHit → SolveOne (engine.cc).
  void OnSolve(const IqEngine& engine, const EpochHandle& pinned,
               bool same_epoch, const BatchItem& item, const IqResult& result,
               int64_t start_ns, int64_t end_ns) override {
    const uint64_t req = NextId();
    const uint64_t root = NextId();
    Emit(item.kind == BatchItem::Kind::kMinCost ? "engine.min_cost"
                                                : "engine.max_hit",
         req, NextId(), root, start_ns, end_ns);
    BatchItem replica_item = item;
    replica_item.options.pool = engine.pool() != nullptr ? &pool_ : nullptr;
    Result<IqResult> r = Status::Internal("not run");
    {
      Span replica("replica", req, root);
      TimePin(engine, req, replica.id());
      r = ReplaySolve(pinned, replica_item, /*in_batch=*/false, req,
                      replica.id());
    }
    Emit("op.solve", req, root, 0, start_ns, NowNanos());
    // A write that landed during the call may have moved the engine past
    // `pinned`; then only a match is conclusive.
    if (same_epoch || (r.ok() && SameResult(*r, result))) {
      Compare(r, result, "solve");
    } else {
      unverified_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Engine path: IqEngine::SolveBatchOn — items over the pool, each one a
  // SolveOne with a serial inner search.
  void OnBatch(const IqEngine& engine, const EpochHandle& pinned,
               const std::vector<BatchItem>& items,
               const std::vector<IqResult>& results, int64_t start_ns,
               int64_t end_ns) override {
    const uint64_t req = NextId();
    const uint64_t root = NextId();
    Emit("engine.solve_batch", req, NextId(), root, start_ns, end_ns);
    ThreadPool* pool = engine.pool() != nullptr ? &pool_ : nullptr;
    std::vector<std::optional<Result<IqResult>>> slots(items.size());
    std::atomic<int64_t> busy_ns{0};
    int64_t region_ns = 0;
    {
      Span replica("replica", req, root);
      TimePin(engine, req, replica.id());
      Span region("util.thread_pool.batch", req, replica.id());
      const int64_t region_start = NowNanos();
      ParallelForOrSerial(
          pool, static_cast<int64_t>(items.size()),
          [&](int64_t begin, int64_t end) {
            for (int64_t i = begin; i < end; ++i) {
              BatchItem item = items[static_cast<size_t>(i)];
              item.options.pool = nullptr;
              const int64_t item_start = NowNanos();
              {
                Span s("batch.item", req, region.id());
                slots[static_cast<size_t>(i)] =
                    ReplaySolve(pinned, item, /*in_batch=*/true, req, s.id());
              }
              busy_ns.fetch_add(NowNanos() - item_start,
                                std::memory_order_relaxed);
            }
          },
          "e2e.replica_batch", ChunkPolicy::kDynamic);
      region_ns = NowNanos() - region_start;
    }
    Emit("op.batch", req, root, 0, start_ns, NowNanos());
    {
      MutexLock lock(&mu_);
      tallies_.pool_busy_ms += static_cast<double>(busy_ns.load()) / 1e6;
      tallies_.pool_capacity_ms += static_cast<double>(region_ns) / 1e6 *
                                   (pool != nullptr ? kThreads + 1 : 1);
    }
    for (size_t i = 0; i < items.size(); ++i) {
      Compare(*slots[i], results[i], "batch item");
    }
  }

  // Engine path: BeginDelta → ApplyStrategyOnDelta or a query hook →
  // PublishLocked (engine.cc), replayed on a private delta of `before`.
  void OnWrite(const IqEngine& engine, const EpochHandle& before,
               const EpochHandle& after, const WriteOp& op, int64_t start_ns,
               int64_t end_ns) override {
    const uint64_t req = NextId();
    const uint64_t root = NextId();
    Emit(EngineSpanName(op), req, NextId(), root, start_ns, end_ns);
    const bool objects = op.kind == WriteOp::Kind::kApply;
    std::shared_ptr<Dataset> data;
    std::shared_ptr<QuerySet> queries;
    std::shared_ptr<FunctionView> view;
    std::optional<SubdomainIndex> index;
    Status st = Status::Ok();
    {
      Span replica("replica", req, root);
      TimePin(engine, req, replica.id());
      {
        Span s("core.engine.cow_clone", req, replica.id());
        if (objects) {
          data = std::make_shared<Dataset>(before.dataset());
          view = std::make_shared<FunctionView>(before.view(), data.get());
        } else {
          queries = std::make_shared<QuerySet>(before.queries());
        }
        index.emplace(before.index().CloneCow(
            objects ? view.get() : before.view_ptr(),
            objects ? before.queries_ptr() : queries.get(),
            before.epoch() + 1));
      }
      st = ReplayWrite(op, data.get(), queries.get(), view.get(), &*index,
                       req, replica.id());
      if (st.ok()) {
        Span s("core.score_kernel.rebuild", req, replica.id());
        index->RebuildScoreKernels();
      }
    }
    Emit("op.write", req, root, 0, start_ns, NowNanos());

    const SubdomainIndex& mine = *index;
    const SubdomainIndex& theirs = after.index();
    if (!st.ok() || mine.num_subdomains() != theirs.num_subdomains() ||
        mine.MemoryBytes() != theirs.MemoryBytes() ||
        mine.maintenance_rerank_events() !=
            theirs.maintenance_rerank_events() ||
        mine.maintenance_affected_subdomains() !=
            theirs.maintenance_affected_subdomains() ||
        (objects && mine.HitCount(op.target) != theirs.HitCount(op.target))) {
      Mismatch(std::string(EngineSpanName(op)) + " replica differs (target " +
               std::to_string(op.target) + ")" +
               (st.ok() ? "" : ": " + st.ToString()));
    }
    const double m_active = std::max(1, theirs.queries().num_active());
    const double reranks = static_cast<double>(
        mine.maintenance_rerank_events() -
        before.index().maintenance_rerank_events());
    MutexLock lock(&mu_);
    tallies_.writes += 1;
    tallies_.reranks += reranks;
    tallies_.affected += static_cast<double>(
        mine.maintenance_affected_subdomains() -
        before.index().maintenance_affected_subdomains());
    tallies_.reuse += 1.0 - std::min(reranks, m_active) / m_active;
  }

  // Engine path: IqEngine::Create — QuerySet, FunctionView, then
  // SubdomainIndex::Build over the pool.
  void OnBuild(const Inputs& inputs, const IqEngine& engine, int64_t start_ns,
               int64_t end_ns) override {
    const uint64_t req = NextId();
    const uint64_t root = NextId();
    Emit("engine.create", req, NextId(), root, start_ns, end_ns);
    Dataset data = inputs.data;
    const int dim = data.dim();
    std::optional<QuerySet> queries;
    std::optional<FunctionView> view;
    Result<SubdomainIndex> index = Status::Internal("not run");
    {
      Span replica("replica", req, root);
      {
        Span s("core.query.queryset", req, replica.id());
        queries.emplace(dim);
        for (const TopKQuery& q : inputs.queries) {
          if (!queries->Add(q).ok()) break;
        }
      }
      {
        Span s("core.function_view.build", req, replica.id());
        view.emplace(&data, LinearForm::Identity(dim));
      }
      Span s("core.subdomain_index.build", req, replica.id());
      SubdomainIndexOptions options;
      options.pool = engine.pool() != nullptr ? &pool_ : nullptr;
      options.epoch = 1;
      index = SubdomainIndex::Build(&*view, &*queries, options);
    }
    if (index.ok()) {
      // The SoA kernel pack is a component of the build above, timed again
      // on its own and kept out of the replica's sum.
      Span s("core.score_kernel.pack", req, root);
      ScoreKernel::Build(view->rows(), nullptr, view->num_slots());
      std::vector<Vec> weights;
      for (int q = 0; q < queries->size(); ++q) {
        weights.push_back(index->aug_weights(q));
      }
      ScoreKernel::Build(weights, nullptr, view->num_slots());
    }
    Emit("op.build", req, root, 0, start_ns, NowNanos());
    if (!index.ok() ||
        index->num_subdomains() != engine.index().num_subdomains() ||
        index->MemoryBytes() != engine.index().MemoryBytes()) {
      Mismatch("build replica differs from IqEngine::Create");
      return;
    }
    MutexLock lock(&mu_);
    tallies_.builds += 1;
    tallies_.subdomains += index->num_subdomains();
    tallies_.index_bytes += static_cast<double>(index->MemoryBytes());
  }

  Tallies tallies() {
    MutexLock lock(&mu_);
    return tallies_;
  }
  std::vector<std::string> mismatches() {
    MutexLock lock(&mu_);
    return mismatches_;
  }
  int64_t unverified() const { return unverified_.load(); }

 private:
  /// IqContext::FromIndex → EseEvaluator → MinCostIq/MaxHitIq, each a span.
  /// The search's candidate-solver and evaluation wall times come from the
  /// IqResult::breakdown the search fills; evaluation busy time from the
  /// TimedEvaluator.
  Result<IqResult> ReplaySolve(const EpochHandle& snap, const BatchItem& item,
                               bool in_batch, uint64_t req, uint64_t parent) {
    Result<IqContext> ctx = Status::Internal("not run");
    {
      Span s("core.iq_algorithms.context", req, parent);
      ctx = IqContext::FromIndex(snap.index_ptr(), item.target);
    }
    if (!ctx.ok()) return ctx.status();
    std::optional<EseEvaluator> ese;
    {
      Span s("core.evaluator.ese_init", req, parent);
      ese.emplace(snap.index_ptr(), item.target);
    }
    TimedEvaluator timed(&*ese);
    Result<IqResult> r = Status::Internal("not run");
    {
      Span s("core.iq_algorithms.search", req, parent);
      r = item.kind == BatchItem::Kind::kMinCost
              ? MinCostIq(*ctx, &timed, item.tau, item.options)
              : MaxHitIq(*ctx, &timed, item.beta, item.options);
    }
    if (!r.ok()) return r;
    // The decorator keeps no per-query accounting of its own; the inner
    // evaluator's counters are the ones the engine's search reports.
    r->breakdown.queries_rescored = ese->queries_rescored();
    r->breakdown.queries_reused = ese->queries_reused();
    const EvalBreakdown& b = r->breakdown;
    MutexLock lock(&mu_);
    tallies_.searches += 1;
    tallies_.solver_ms += b.solver_seconds * 1e3;
    tallies_.eval_wall_ms += b.eval_seconds * 1e3;
    tallies_.eval_busy_ms += timed.busy_ms();
    tallies_.iterations += b.iterations;
    tallies_.candidates += static_cast<double>(b.candidates_generated);
    tallies_.eval_calls += static_cast<double>(timed.calls());
    if (g_phase.load(std::memory_order_relaxed) == Phase::kTimed) {
      tallies_.timed_eval_calls += static_cast<double>(timed.calls());
    }
    tallies_.rows_scored += static_cast<double>(b.queries_rescored);
    tallies_.bytes_scored += static_cast<double>(b.queries_rescored) *
                             snap.view().num_slots() *
                             static_cast<double>(sizeof(double));
    // A batch item's search is serial inside the batch region, which
    // counts its busy time; a single solve's evaluation is its own region.
    if (!in_batch) {
      tallies_.pool_busy_ms += timed.busy_ms();
      tallies_.pool_capacity_ms +=
          b.eval_seconds * 1e3 * (item.options.pool != nullptr ? kThreads + 1 : 1);
    }
    return r;
  }

  /// ApplyStrategyOnDelta's remove → update → add, or one query hook.
  Status ReplayWrite(const WriteOp& op, Dataset* data, QuerySet* queries,
                     FunctionView* view, SubdomainIndex* index, uint64_t req,
                     uint64_t parent) {
    const int id = op.target;
    switch (op.kind) {
      case WriteOp::Kind::kApply: {
        const Vec improved = Add(data->attrs(id), op.strategy);
        {
          Span s("core.subdomain_index.object_remove", req, parent);
          IQ_RETURN_IF_ERROR(data->Remove(id));
          IQ_RETURN_IF_ERROR(index->OnObjectRemoved(id));
        }
        {
          Span s("core.function_view.refresh", req, parent);
          IQ_RETURN_IF_ERROR(data->SetAttrsIncludingInactive(id, improved));
          IQ_RETURN_IF_ERROR(data->Reactivate(id));
          view->RefreshRow(id);
        }
        Span s("core.subdomain_index.object_add", req, parent);
        return index->OnObjectAdded(id);
      }
      case WriteOp::Kind::kAddQuery: {
        Span s("core.subdomain_index.query_add", req, parent);
        IQ_ASSIGN_OR_RETURN(const int q, queries->Add(op.query));
        if (q != id) return Status::Internal("query id differs");
        return index->OnQueryAdded(q);
      }
      case WriteOp::Kind::kRemoveQuery: {
        Span s("core.subdomain_index.query_remove", req, parent);
        IQ_RETURN_IF_ERROR(queries->Remove(id));
        return index->OnQueryRemoved(id);
      }
    }
    return Status::Internal("unknown write");
  }

  void Compare(const Result<IqResult>& replica, const IqResult& engine,
               const char* what) {
    if (!replica.ok()) {
      Mismatch(std::string(what) + " replica failed: " +
               replica.status().ToString());
    } else if (!SameResult(*replica, engine)) {
      Mismatch(std::string(what) + " replica differs from the engine");
    }
  }

  void Mismatch(std::string what) {
    MutexLock lock(&mu_);
    mismatches_.push_back(std::move(what));
  }

  /// The replica's own pool, sized like the engine's.
  ThreadPool pool_;
  Mutex mu_{LockRank::kLeaf, "Tracer::mu_"};
  Tallies tallies_ IQ_GUARDED_BY(mu_);
  std::vector<std::string> mismatches_ IQ_GUARDED_BY(mu_);
  std::atomic<int64_t> unverified_{0};
};

// ---------------------------------------------------------------------------
// Rollup.

struct LayerRow {
  int64_t spans = 0;
  double total_ms = 0;
  double self_ms = 0;
};

struct Rollup {
  std::map<std::string, LayerRow> layers;
  /// Over the timed window's operations: engine call wall time, replica
  /// wall time, and the sum of the replica's named layers.
  int64_t timed_ops = 0;
  int64_t timed_spans = 0;
  double engine_ms = 0;
  double replica_ms = 0;
  double layers_ms = 0;
};

double Ms(const SpanRecord& s) {
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

/// Totals per layer, self time (duration minus the part of it the span's
/// children cover — they may run on other threads), and the timed window's
/// coverage.
Rollup Analyze(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  Rollup r;
  for (const SpanRecord& s : spans) {
    LayerRow& row = r.layers[s.name];
    ++row.spans;
    row.total_ms += Ms(s);
    std::vector<std::pair<int64_t, int64_t>> kids;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (size_t k : it->second) {
        kids.emplace_back(std::max(spans[k].start_ns, s.start_ns),
                          std::min(spans[k].end_ns, s.end_ns));
      }
    }
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (const auto& [a, b] : kids) {
      const int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    row.self_ms += Ms(s) - static_cast<double>(covered) / 1e6;
    if (s.phase == Phase::kTimed) ++r.timed_spans;
    if (s.parent != 0 || s.phase != Phase::kTimed ||
        std::string_view(s.name).substr(0, 3) != "op.") {
      continue;
    }
    ++r.timed_ops;
    for (size_t k : children[s.id]) {
      const SpanRecord& child = spans[k];
      if (std::string_view(child.name) == "replica") {
        r.replica_ms += Ms(child);
        for (size_t g : children[child.id]) r.layers_ms += Ms(spans[g]);
      } else {
        r.engine_ms += Ms(child);
      }
    }
  }
  return r;
}

void PrintRollup(const Rollup& r, const Tallies& t) {
  std::printf("# layer rollup, all phases (self = duration minus child "
              "coverage)\n");
  std::printf("# %-38s %8s %12s %12s %10s\n", "layer", "spans", "total_ms",
              "self_ms", "mean_ms");
  for (const auto& [name, row] : r.layers) {
    std::printf("# %-38s %8lld %12.3f %12.3f %10.4f\n", name.c_str(),
                static_cast<long long>(row.spans), row.total_ms, row.self_ms,
                row.total_ms / static_cast<double>(row.spans));
  }
  std::printf("# inside core.iq_algorithms.search (%.0f searches): "
              "opt.hit_solver %.3f ms, core.evaluator wall %.3f ms "
              "(busy %.3f ms), bookkeeping %.3f ms\n",
              t.searches, t.solver_ms, t.eval_wall_ms, t.eval_busy_ms,
              (r.layers.count("core.iq_algorithms.search")
                   ? r.layers.at("core.iq_algorithms.search").total_ms
                   : 0.0) -
                  t.solver_ms - t.eval_wall_ms);
  const double engine = std::max(r.engine_ms, 1e-9);
  std::printf("# timed window: %lld ops, engine %.3f ms, replica %.3f ms, "
              "named layers %.3f ms = %.2f%% of engine wall, residual "
              "%.3f ms (%.2f%%)\n",
              static_cast<long long>(r.timed_ops), r.engine_ms, r.replica_ms,
              r.layers_ms, 100.0 * r.layers_ms / engine,
              r.engine_ms - r.layers_ms,
              100.0 * (r.engine_ms - r.layers_ms) / engine);
}

double PerCall(double total, double calls) {
  return calls > 0 ? total / calls : 0.0;
}

/// The per_layer metrics of BENCHMARK.json. Time metrics are means per
/// call of the layer (or per search / write / build), so a faster commit
/// that fits more operations in the window does not move them.
std::vector<Metric> LayerMetrics(const Rollup& r, const Tallies& t,
                                 double span_cost_ns, double timer_cost_ns) {
  auto total = [&](const char* name) {
    auto it = r.layers.find(name);
    return it == r.layers.end() ? 0.0 : it->second.total_ms;
  };
  auto mean = [&](const char* name) {
    auto it = r.layers.find(name);
    return it == r.layers.end()
               ? 0.0
               : PerCall(it->second.total_ms,
                         static_cast<double>(it->second.spans));
  };
  const double search_ms = total("core.iq_algorithms.search");
  const double maintain_ms = total("core.subdomain_index.object_remove") +
                             total("core.subdomain_index.object_add") +
                             total("core.subdomain_index.query_add") +
                             total("core.subdomain_index.query_remove");
  const double engine_ms = std::max(r.engine_ms, 1e-9);
  const double tracing_ms =
      (static_cast<double>(r.timed_spans) * span_cost_ns +
       t.timed_eval_calls * timer_cost_ns) /
      1e6;
  return {
      {"core.epoch.pin_us", mean("core.epoch.pin") * 1e3, "us"},
      {"core.iq_algorithms.context_ms", mean("core.iq_algorithms.context"), "ms"},
      {"core.evaluator.ese_init_ms", mean("core.evaluator.ese_init"), "ms"},
      {"core.iq_algorithms.search_ms", mean("core.iq_algorithms.search"), "ms"},
      {"opt.hit_solver.solve_ms", PerCall(t.solver_ms, t.searches), "ms"},
      {"core.evaluator.eval_wall_ms", PerCall(t.eval_wall_ms, t.searches), "ms"},
      {"core.evaluator.eval_busy_ms", PerCall(t.eval_busy_ms, t.searches), "ms"},
      {"core.iq_algorithms.bookkeeping_ms",
       PerCall(search_ms - t.solver_ms - t.eval_wall_ms, t.searches), "ms"},
      {"util.thread_pool.efficiency",
       PerCall(t.pool_busy_ms, t.pool_capacity_ms), "ratio"},
      {"core.iq_algorithms.iterations", PerCall(t.iterations, t.searches), "count"},
      {"opt.hit_solver.candidates", PerCall(t.candidates, t.searches), "count"},
      {"core.evaluator.calls", PerCall(t.eval_calls, t.searches), "count"},
      {"core.iq_algorithms.useful_ratio", PerCall(t.iterations, t.eval_calls),
       "ratio"},
      {"core.score_kernel.rows_scored", PerCall(t.rows_scored, t.searches), "count"},
      {"core.score_kernel.bytes", PerCall(t.bytes_scored, t.searches), "bytes"},
      {"core.engine.cow_clone_ms", mean("core.engine.cow_clone"), "ms"},
      {"core.subdomain_index.maintain_ms", PerCall(maintain_ms, t.writes), "ms"},
      {"core.score_kernel.rebuild_ms", mean("core.score_kernel.rebuild"), "ms"},
      {"core.subdomain_index.reranks", PerCall(t.reranks, t.writes), "count"},
      {"core.subdomain_index.affected_subdomains", PerCall(t.affected, t.writes),
       "count"},
      {"core.subdomain_index.reuse_ratio", PerCall(t.reuse, t.writes), "ratio"},
      {"core.query.queryset_ms", mean("core.query.queryset"), "ms"},
      {"core.function_view.build_ms", mean("core.function_view.build"), "ms"},
      {"core.subdomain_index.build_ms", mean("core.subdomain_index.build"), "ms"},
      {"core.score_kernel.pack_ms", mean("core.score_kernel.pack"), "ms"},
      {"core.subdomain_index.subdomains", PerCall(t.subdomains, t.builds), "count"},
      {"core.subdomain_index.bytes", PerCall(t.index_bytes, t.builds), "bytes"},
      {"data.generate_ms", mean("data.generate"), "ms"},
      {"core.engine.overhead_pct", 100.0 * (r.engine_ms - r.replica_ms) / engine_ms,
       "%"},
      {"residual_pct", 100.0 * (r.engine_ms - r.layers_ms) / engine_ms, "%"},
      {"trace_overhead_pct", 100.0 * tracing_ms / std::max(r.replica_ms, 1e-9),
       "%"},
  };
}

Status WriteChromeTrace(const std::string& path,
                        const std::vector<SpanRecord>& spans) {
  static const char* const kPhaseNames[] = {"setup", "timed", "check"};
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(
        f,
        "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
        "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": "
        "%llu, \"span\": %llu, \"parent\": %llu}}",
        i == 0 ? "" : ",\n", s.name,
        kPhaseNames[static_cast<int>(s.phase)], s.tid,
        static_cast<double>(s.start_ns) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3,
        static_cast<unsigned long long>(s.request),
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent));
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) return Status::Internal("cannot write " + path);
  return Status::Ok();
}

/// Cost of recording one span, and of one WallTimer around an evaluation:
/// the tracing overhead the replica carries.
std::pair<double, double> Calibrate() {
  constexpr int kReps = 20000;
  WallTimer spans;
  for (int i = 0; i < kReps; ++i) Span s(kCalibration, 0, 0);
  const double span_ns = static_cast<double>(spans.ElapsedNanos()) / kReps;
  WallTimer timers;
  for (int i = 0; i < kReps; ++i) WallTimer().ElapsedNanos();
  const double timer_ns = static_cast<double>(timers.ElapsedNanos()) / kReps;
  return {span_ns, timer_ns};
}

}  // namespace
}  // namespace e2e
}  // namespace iq

int main(int argc, char** argv) {
  using namespace iq::e2e;
  iq::Result<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "iq_e2e_trace: %s\n",
                 args.status().ToString().c_str());
    return 2;
  }
  if (!args->smoke && !IsMeasurableBuild()) {
    std::fprintf(stderr,
                 "iq_e2e_trace: Debug or sanitizer build; its timings are "
                 "not numbers of record (build Release, or pass --smoke)\n");
    return 2;
  }
  const auto [span_ns, timer_ns] = Calibrate();
  Tracer tracer;
  iq::Result<RunResult> result = RunWorkload(*args, &tracer);
  if (!result.ok()) {
    std::fprintf(stderr, "iq_e2e_trace: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const std::vector<SpanRecord> spans = SpanStore::Get().Collect();
  const Rollup rollup = Analyze(spans);
  const Tallies tallies = tracer.tallies();
  PrintRollup(rollup, tallies);
  if (!args->trace_path.empty()) {
    iq::Status st = WriteChromeTrace(args->trace_path, spans);
    if (!st.ok()) {
      std::fprintf(stderr, "iq_e2e_trace: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  RunResult res = std::move(*result);
  for (const std::string& m : tracer.mismatches()) {
    ++res.failed;
    res.errors.push_back(m);
  }
  res.diagnostics = {
      {"replica_unverified", static_cast<double>(tracer.unverified()), "count"},
      {"spans", static_cast<double>(spans.size()), "count"},
      {"spans_dropped", static_cast<double>(SpanStore::Get().dropped()), "count"},
      {"span_cost_ns", span_ns, "ns"},
  };
  return Finish("iq_e2e_trace", *args, res,
                LayerMetrics(rollup, tallies, span_ns, timer_ns));
}
