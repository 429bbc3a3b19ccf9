#include "bench/common/harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace iq {
namespace bench {

constexpr int PaperParams::kObjectsRange[4];
constexpr int PaperParams::kQueriesRange[3];

BenchOptions ParseArgs(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--scale=")) {
      opts.scale = *ParseDouble(v);
    } else if (const char* v = value("--iqs=")) {
      opts.iqs_per_point = static_cast<int>(*ParseInt(v));
    } else if (const char* v = value("--seed=")) {
      opts.seed = static_cast<uint64_t>(*ParseInt(v));
    } else if (const char* v = value("--reps=")) {
      opts.repetitions = static_cast<int>(*ParseInt(v));
    } else if (const char* v = value("--rta-iqs=")) {
      opts.rta_iqs_per_point = static_cast<int>(*ParseInt(v));
    } else if (const char* v = value("--json=")) {
      opts.json_path = v;
    } else if (const char* v = value("--exporter-port=")) {
      opts.exporter_port = static_cast<int>(*ParseInt(v));
    } else if (arg == "--no-rta") {
      opts.include_rta = false;
    } else if (arg == "--full") {
      opts.scale = 1.0;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (known: --scale= --iqs= --seed= --reps= "
                   "--rta-iqs= --json= --exporter-port= --no-rta --full)\n",
                   arg.c_str());
    }
  }
  return opts;
}

int Scaled(int value, double scale) {
  return std::max(1, static_cast<int>(value * scale + 0.5));
}

RunMetadata CollectRunMetadata(uint64_t seed) {
  RunMetadata meta;
  meta.seed = seed;
#ifdef NDEBUG
  meta.build_type = "release";
#else
  meta.build_type = "debug";
#endif
  meta.num_threads = static_cast<int>(std::thread::hardware_concurrency());
  if (const char* sha = std::getenv("IQ_GIT_SHA"); sha != nullptr && *sha) {
    meta.git_sha = sha;
  } else if (std::FILE* p =
                 ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64] = {0};
    if (std::fgets(buf, sizeof(buf), p) != nullptr) {
      meta.git_sha = buf;
      while (!meta.git_sha.empty() &&
             (meta.git_sha.back() == '\n' || meta.git_sha.back() == '\r')) {
        meta.git_sha.pop_back();
      }
    }
    ::pclose(p);
  }
  if (meta.git_sha.empty()) meta.git_sha = "unknown";
  return meta;
}

std::string RunMetadataJson(const RunMetadata& meta) {
  return StrFormat(
      "{\"git_sha\": \"%s\", \"build_type\": \"%s\", \"num_threads\": %d, "
      "\"seed\": %llu}",
      meta.git_sha.c_str(), meta.build_type.c_str(), meta.num_threads,
      static_cast<unsigned long long>(meta.seed));
}

std::unique_ptr<MetricsExporter> ServeMetricsIfRequested(
    const BenchOptions& opts) {
  if (opts.exporter_port < 0) return nullptr;
  auto exporter = std::make_unique<MetricsExporter>();
  Status st = exporter->Start(opts.exporter_port);
  if (!st.ok()) {
    std::fprintf(stderr, "exporter: %s\n", st.ToString().c_str());
    return nullptr;
  }
  std::printf("serving live metrics on http://127.0.0.1:%d/metrics\n",
              exporter->port());
  return exporter;
}

Workload MakeLinearWorkload(SyntheticKind kind, int n, int m, int dim,
                            uint64_t seed, QueryDistribution dist) {
  Dataset data = MakeSynthetic(kind, n, dim, seed);
  QueryGenOptions qopts;
  qopts.distribution = dist;
  qopts.k_min = 1;
  qopts.k_max = 50;  // paper: k in [1, 50]
  auto workload = Workload::Make(std::move(data), LinearForm::Identity(dim),
                                 MakeQueries(m, dim, seed + 1, qopts));
  IQ_CHECK(workload.ok());
  return std::move(*workload);
}

Workload MakePolynomialWorkload(SyntheticKind kind, int n, int m, int dim,
                                int num_terms, uint64_t seed) {
  Dataset data = MakeSynthetic(kind, n, dim, seed);
  auto util = MakePolynomialUtility(dim, num_terms, 5, seed + 2);
  IQ_CHECK(util.ok());
  QueryGenOptions qopts;
  qopts.k_min = 1;
  qopts.k_max = 50;
  auto workload =
      Workload::Make(std::move(data), std::move(util->form),
                     MakeQueries(m, util->num_weights, seed + 1, qopts));
  IQ_CHECK(workload.ok());
  return std::move(*workload);
}

namespace {

Result<IqResult> RunOne(const Workload& w, IqScheme scheme, bool min_cost,
                        int target, int tau, double beta) {
  BatchItem item;  // L2 cost (Eq. 30), unbounded strategies
  item.kind = min_cost ? BatchItem::Kind::kMinCost : BatchItem::Kind::kMaxHit;
  item.target = target;
  item.tau = tau;
  item.beta = beta;
  // Identical search parameters for every scheme (fairness): evaluate the
  // 64 cheapest candidates per iteration and bound Max-Hit iterations, so
  // the slow baselines stay tractable at bench scale.
  item.options.candidate_eval_limit = 64;
  if (!min_cost) item.options.max_iterations = 60;
  return SolveOne(w.index.get(), item, scheme);
}

}  // namespace

SchemeResult RunIqBatch(const Workload& w, IqScheme scheme, int iqs,
                        uint64_t seed) {
  Rng rng(seed);
  SchemeResult out;
  out.scheme = IqSchemeName(scheme);
  static Histogram* iq_nanos =
      MetricsRegistry::Global().GetHistogram("iq.bench.iq_nanos");
  RunningStats time_ms;
  PercentileTracker lat_ms;
  RunningStats cost_per_hit;
  RunningStats mc_cost;
  RunningStats mh_hits;
  int mc_total = 0, mc_reached = 0;
  const int m = w.queries->num_active();
  for (int i = 0; i < iqs; ++i) {
    int target = static_cast<int>(rng.UniformInt(0, w.data->size() - 1));
    // tau ~ U[100, 500] per 10k queries (Table 2), scaled to this workload.
    int tau = std::max(
        1, static_cast<int>(rng.UniformInt(100, 500) * m / 10000));
    double beta =
        rng.UniformDouble(PaperParams::kBetaMin, PaperParams::kBetaMax);

    for (bool min_cost : {true, false}) {
      double millis;
      Result<IqResult> r = Status::Internal("not run");
      {
        // The ScopedTimer also feeds the iq.bench.iq_nanos histogram, so the
        // JSON metrics snapshot carries the same distribution.
        ScopedTimer timer(iq_nanos);
        r = RunOne(w, scheme, min_cost, target, tau, beta);
        millis = static_cast<double>(timer.ElapsedNanos()) / 1e6;
      }
      if (!r.ok()) continue;
      time_ms.Add(millis);
      lat_ms.Add(millis);
      int gained = r->hits_after;
      if (gained > 0 && r->cost > 0) {
        cost_per_hit.Add(r->cost / static_cast<double>(gained));
      }
      if (min_cost) {
        ++mc_total;
        if (r->reached_goal) {
          ++mc_reached;
          mc_cost.Add(r->cost);
        }
      } else {
        mh_hits.Add(static_cast<double>(r->hits_after));
      }
      ++out.completed;
    }
  }
  out.avg_millis = time_ms.mean();
  out.p50_millis = lat_ms.Percentile(50);
  out.p99_millis = lat_ms.Percentile(99);
  out.avg_cost_per_hit = cost_per_hit.mean();
  out.mincost_avg_cost = mc_cost.mean();
  out.mincost_goal_rate =
      mc_total > 0 ? static_cast<double>(mc_reached) / mc_total : 0.0;
  out.maxhit_avg_hits = mh_hits.mean();
  return out;
}

std::vector<SchemeResult> RunPointAllSchemes(const Workload& w,
                                             const BenchOptions& opts,
                                             uint64_t seed) {
  std::vector<IqScheme> schemes = {IqScheme::kEfficient};
  if (opts.include_rta) schemes.push_back(IqScheme::kRta);
  schemes.push_back(IqScheme::kGreedy);
  schemes.push_back(IqScheme::kRandom);
  std::vector<SchemeResult> out;
  for (IqScheme scheme : schemes) {
    int iqs = scheme == IqScheme::kRta
                  ? std::min(opts.iqs_per_point, opts.rta_iqs_per_point)
                  : opts.iqs_per_point;
    out.push_back(RunIqBatch(w, scheme, iqs, seed));
  }
  return out;
}

namespace {

void AppendPointRows(const Workload& w, const std::string& label,
                     const BenchOptions& opts, uint64_t seed,
                     TablePrinter* table, std::vector<PointResults>* json) {
  PointResults point;
  point.point = label;
  point.schemes = RunPointAllSchemes(w, opts, seed);
  for (const SchemeResult& r : point.schemes) {
    table->AddRow({label, r.scheme, FmtDouble(r.avg_millis, 1),
                   FmtDouble(r.avg_cost_per_hit, 4),
                   FmtDouble(r.mincost_avg_cost, 4),
                   FmtDouble(100 * r.mincost_goal_rate, 0),
                   FmtDouble(r.maxhit_avg_hits, 1), FmtInt(r.completed)});
  }
  json->push_back(std::move(point));
}

/// Shared tail of the figure runners: console table + optional JSON report.
int FinishFigure(const TablePrinter& table, const BenchOptions& opts,
                 const char* figure_name,
                 const std::vector<PointResults>& points) {
  table.Print();
  if (!opts.json_path.empty()) {
    Status st = WriteBenchJson(opts.json_path, figure_name, points, opts.seed);
    if (!st.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n",
                   opts.json_path.c_str(), st.ToString().c_str());
      return 1;
    }
    std::printf("JSON report (results + metrics snapshot): %s\n",
                opts.json_path.c_str());
  }
  return 0;
}

const std::vector<std::string>& QueryProcessingHeader() {
  static const std::vector<std::string> kHeader = {
      "point",   "scheme",      "avg time (ms)", "cost/hit",
      "MC cost", "MC goal (%)", "MH hits",       "IQs"};
  return kHeader;
}

}  // namespace

int RunQueryProcessingByObjects(SyntheticKind kind, const char* figure_name,
                                const BenchOptions& opts) {
  auto exporter = ServeMetricsIfRequested(opts);
  std::printf("== %s: query processing on the %s object dataset "
              "(scale %.2f, %d Min-Cost + %d Max-Hit IQs per scheme) ==\n",
              figure_name, SyntheticKindName(kind), opts.scale,
              opts.iqs_per_point, opts.iqs_per_point);
  const int m = Scaled(PaperParams::kQueriesDefault, opts.scale);
  TablePrinter table(QueryProcessingHeader());
  std::vector<PointResults> points;
  for (int base_n : PaperParams::kObjectsRange) {
    const int n = Scaled(base_n, opts.scale);
    Workload w = MakeLinearWorkload(kind, n, m, PaperParams::kDim,
                                    opts.seed + static_cast<uint64_t>(base_n));
    AppendPointRows(w, FmtInt(n), opts, opts.seed + 3, &table, &points);
  }
  int rc = FinishFigure(table, opts, figure_name, points);
  std::printf("\n(paper shape: Random fastest but worst-quality strategies; "
              "Greedy cheap but poor quality;\n Efficient-IQ and RTA-IQ find "
              "identical best-quality strategies, with Efficient-IQ an order "
              "of magnitude faster)\n");
  return rc;
}

int RunQueryProcessingByQueries(QueryDistribution dist,
                                const char* figure_name,
                                const BenchOptions& opts) {
  auto exporter = ServeMetricsIfRequested(opts);
  std::printf("== %s: query processing on the %s query dataset "
              "(scale %.2f, %d Min-Cost + %d Max-Hit IQs per scheme) ==\n",
              figure_name, QueryDistributionName(dist), opts.scale,
              opts.iqs_per_point, opts.iqs_per_point);
  const int n = Scaled(PaperParams::kObjectsDefault, opts.scale);
  TablePrinter table(QueryProcessingHeader());
  std::vector<PointResults> points;
  for (int base_m : PaperParams::kQueriesRange) {
    const int m = Scaled(base_m, opts.scale);
    Workload w = MakeLinearWorkload(SyntheticKind::kIndependent, n, m,
                                    PaperParams::kDim,
                                    opts.seed + static_cast<uint64_t>(base_m),
                                    dist);
    AppendPointRows(w, FmtInt(m), opts, opts.seed + 5, &table, &points);
  }
  int rc = FinishFigure(table, opts, figure_name, points);
  std::printf("\n(paper shape: same scheme ordering as Figures 7-9; "
              "processing time grows with |Q| for all schemes)\n");
  return rc;
}

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  IQ_CHECK(row.size() == header_.size());
  rows_.push_back(std::move(row));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%s%-*s", c == 0 ? "" : "  ",
                  static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(header_);
  std::string sep;
  for (size_t c = 0; c < widths.size(); ++c) {
    if (c) sep += "  ";
    sep += std::string(widths[c], '-');
  }
  std::printf("%s\n", sep.c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string FmtDouble(double v, int precision) {
  return StrFormat("%.*f", precision, v);
}

std::string FmtInt(long long v) { return StrFormat("%lld", v); }

Status WriteBenchJson(const std::string& path, const std::string& figure,
                      const std::vector<PointResults>& points,
                      uint64_t seed) {
  std::string json = "{\n  \"figure\": \"" + figure + "\",\n";
  json += "  \"run\": " + RunMetadataJson(CollectRunMetadata(seed)) + ",\n";
  json += "  \"results\": [";
  bool first = true;
  for (const PointResults& point : points) {
    for (const SchemeResult& r : point.schemes) {
      if (!first) json += ",";
      first = false;
      json += StrFormat(
          "\n    {\"point\": \"%s\", \"scheme\": \"%s\", "
          "\"avg_millis\": %.6g, \"p50_millis\": %.6g, "
          "\"p99_millis\": %.6g, \"cost_per_hit\": %.6g, "
          "\"mincost_avg_cost\": %.6g, \"mincost_goal_rate\": %.6g, "
          "\"maxhit_avg_hits\": %.6g, \"completed\": %d}",
          point.point.c_str(), r.scheme.c_str(), r.avg_millis, r.p50_millis,
          r.p99_millis, r.avg_cost_per_hit, r.mincost_avg_cost,
          r.mincost_goal_rate, r.maxhit_avg_hits, r.completed);
    }
  }
  json += "\n  ],\n  \"metrics\": ";
  json += MetricsRegistry::Global().Snapshot().ToJson();
  json += "\n}\n";
  return WriteStringToFile(path, json);
}

}  // namespace bench
}  // namespace iq
