#include "core/explain.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "topk/topk.h"
#include "util/string_util.h"

namespace iq {
namespace {

/// Cached pointers into the global registry (see EngineMetrics).
struct ExplainMetrics {
  Counter* reports;
  Histogram* margin;  // |QueryEffect::margin| in integer nano-units

  static ExplainMetrics& Get() {
    static ExplainMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      ExplainMetrics em;
      em.reports = reg.GetCounter("iq.explain.reports");
      em.margin = reg.GetHistogram("iq.explain.margin");
      return em;
    }();
    return m;
  }
};

/// Histograms take integer samples; margins are small doubles, so record
/// them in nano-units (1.0 -> 1e9) to keep the base-2 buckets informative.
void RecordMargin(double margin) {
  double nanos = std::abs(margin) * 1e9;
  if (!std::isfinite(nanos)) return;
  ExplainMetrics::Get().margin->Record(static_cast<uint64_t>(nanos));
}

}  // namespace

std::string StrategyReport::ToString(int max_rows) const {
  std::string out = StrFormat(
      "strategy for object #%d: hits %d -> %d (%+d)\n", target, hits_before,
      hits_after, hits_after - hits_before);
  auto render = [&out, max_rows](const char* title,
                                 const std::vector<QueryEffect>& effects) {
    if (effects.empty()) return;
    out += StrFormat("%s (%zu):\n", title, effects.size());
    int shown = 0;
    for (const QueryEffect& e : effects) {
      if (shown++ >= max_rows) {
        out += StrFormat("  ... %zu more\n", effects.size() - max_rows);
        break;
      }
      out += StrFormat(
          "  query %-5d score %8.4f -> %8.4f  threshold %8.4f  margin %.4f\n",
          e.query, e.score_before, e.score_after, e.threshold, e.margin);
    }
  };
  render("gained", gained);
  render("lost", lost);
  return out;
}

Result<StrategyReport> ExplainStrategy(const SubdomainIndex& index,
                                       int target, const Vec& strategy) {
  const FunctionView& view = index.view();
  const Dataset& data = view.dataset();
  if (target < 0 || target >= data.size() || !data.is_active(target)) {
    return Status::InvalidArgument("target is not an active object");
  }
  if (static_cast<int>(strategy.size()) != data.dim()) {
    return Status::InvalidArgument("strategy dimension mismatch");
  }

  StrategyReport report;
  report.target = target;
  report.strategy = strategy;

  const Vec& c_before = view.coeffs(target);
  Vec c_after = view.CoefficientsFor(Add(data.attrs(target), strategy));

  const QuerySet& queries = index.queries();
  const std::vector<double> thresholds = index.HitThresholds(target);
  for (int q = 0; q < queries.size(); ++q) {
    if (!queries.is_active(q)) continue;
    const Vec& w = index.aug_weights(q);
    const double t = thresholds[static_cast<size_t>(q)];
    QueryEffect e;
    e.query = q;
    e.threshold = t;
    e.score_before = Dot(c_before, w);  // iq-lint: allow(raw-scoring-loop)
    e.score_after = Dot(c_after, w);  // iq-lint: allow(raw-scoring-loop)
    bool before = HitByThreshold(e.score_before, t);
    bool after = HitByThreshold(e.score_after, t);
    if (before) ++report.hits_before;
    if (after) ++report.hits_after;
    if (before == after) continue;
    if (after) {
      e.direction = 1;
      e.margin = t - e.score_after;
      report.gained.push_back(e);
    } else {
      e.direction = -1;
      e.margin = e.score_after - t;
      report.lost.push_back(e);
    }
    RecordMargin(e.margin);
  }
  ExplainMetrics::Get().reports->Increment();
  auto by_margin = [](const QueryEffect& a, const QueryEffect& b) {
    return a.margin > b.margin;
  };
  std::sort(report.gained.begin(), report.gained.end(), by_margin);
  std::sort(report.lost.begin(), report.lost.end(), by_margin);
  return report;
}

}  // namespace iq
