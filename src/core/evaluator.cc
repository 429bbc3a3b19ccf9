#include "core/evaluator.h"

#include <algorithm>
#include <cmath>

#include "geom/wedge.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topk/topk.h"
#include "util/logging.h"

namespace iq {
namespace {

/// Cached pointers into the global registry; all increments are lock-free.
struct EseMetrics {
  Counter* queries_reranked;    // hit state recomputed (scored)
  Counter* queries_reused;      // cached hit state reused, no rescoring
  Counter* affected_subspaces;  // wedge searches issued (one per competitor)
  Counter* scan_evaluations;    // HitsForCoeffs calls (full-scan path)
  Counter* wedge_evaluations;   // HitsViaWedges calls (geometric path)

  static EseMetrics& Get() {
    static EseMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      EseMetrics em;
      em.queries_reranked = reg.GetCounter("iq.ese.queries_reranked");
      em.queries_reused = reg.GetCounter("iq.ese.queries_reused");
      em.affected_subspaces = reg.GetCounter("iq.ese.affected_subspaces");
      em.scan_evaluations = reg.GetCounter("iq.ese.scan_evaluations");
      em.wedge_evaluations = reg.GetCounter("iq.ese.wedge_evaluations");
      return em;
    }();
    return m;
  }
};

}  // namespace

EseEvaluator::EseEvaluator(const SubdomainIndex* index, int target)
    : index_(index), target_(target) {
  thresholds_ = index_->HitThresholds(target);
  const QuerySet& queries = index_->queries();
  base_hit_flags_.assign(static_cast<size_t>(queries.size()), false);
  for (int q = 0; q < queries.size(); ++q) {
    if (!queries.is_active(q)) continue;
    // iq-lint: allow(raw-scoring-loop): one-time hit baseline at construction
    double score = index_->view().Score(target_, index_->aug_weights(q));
    bool hit = HitByThreshold(score, thresholds_[static_cast<size_t>(q)]);
    base_hit_flags_[static_cast<size_t>(q)] = hit;
    if (hit) ++base_hits_;
  }
  for (int q : index_->query_kernel().ids()) {
    dense_thresholds_.push_back(thresholds_[static_cast<size_t>(q)]);
  }
}

int EseEvaluator::HitsForCoeffs(const Vec& c) {
  ++calls_;
  // Per query: Dot(c, aug_weights(q)) against the cached threshold, with
  // HitByThreshold, summed in one SoA pass (bit-identical; score_kernel.h).
  const ScoreKernel& kernel = index_->query_kernel();
  const int hits = kernel.CountHits(c, dense_thresholds_);
  const uint64_t scored = static_cast<uint64_t>(kernel.num_rows());
  queries_rescored_ += scored;
  EseMetrics::Get().queries_reranked->Increment(scored);
  EseMetrics::Get().scan_evaluations->Increment();
  return hits;
}

std::vector<int> EseEvaluator::AffectedQueries(const Vec& c_from,
                                               const Vec& c_to) const {
  IQ_TRACE_SCOPE_ARG("EseEvaluator::AffectedQueries", target_);
  const QuerySet& queries = index_->queries();
  uint64_t wedges_searched = 0;
  std::vector<bool> seen(static_cast<size_t>(queries.size()), false);
  std::vector<int> out;
  const FunctionView& view = index_->view();
  const Dataset& data = view.dataset();

  for (int l : index_->SignatureMembers()) {
    if (l == target_ || !data.is_active(l)) continue;
    const Vec& cl = view.coeffs(l);
    ++wedges_searched;
    Wedge wedge(IntersectionPlane(c_from, cl), IntersectionPlane(c_to, cl));
    index_->rtree().SearchIf(
        [&wedge](const Mbr& box) { return wedge.MayIntersect(box); },
        [&wedge](const Vec& w) { return wedge.Contains(w); },
        [&seen, &out](int q, const Vec&) {
          if (!seen[static_cast<size_t>(q)]) {
            seen[static_cast<size_t>(q)] = true;
            out.push_back(q);
          }
        });
  }
  std::sort(out.begin(), out.end());
  EseMetrics::Get().affected_subspaces->Increment(wedges_searched);
  return out;
}

int EseEvaluator::HitsViaWedges(const Vec& c) {
  IQ_TRACE_SCOPE_ARG("EseEvaluator::HitsViaWedges", target_);
  ++calls_;
  const Vec& c_base = index_->view().coeffs(target_);
  int hits = base_hits_;
  std::vector<int> affected = AffectedQueries(c_base, c);
  for (int q : affected) {
    // iq-lint: allow(raw-scoring-loop): O(|affected|) wedge rerank
    double score = Dot(c, index_->aug_weights(q));
    bool now = HitByThreshold(score, thresholds_[static_cast<size_t>(q)]);
    bool before = base_hit_flags_[static_cast<size_t>(q)];
    hits += static_cast<int>(now) - static_cast<int>(before);
  }
  uint64_t num_active = static_cast<uint64_t>(index_->queries().num_active());
  uint64_t scored = static_cast<uint64_t>(affected.size());
  uint64_t reused = num_active >= scored ? num_active - scored : 0;
  queries_rescored_ += scored;
  queries_reused_ += reused;
  EseMetrics::Get().queries_reranked->Increment(scored);
  EseMetrics::Get().queries_reused->Increment(reused);
  EseMetrics::Get().wedge_evaluations->Increment();
  return hits;
}

BruteForceEvaluator::BruteForceEvaluator(const FunctionView* view,
                                         const QuerySet* queries, int target)
    : view_(view), queries_(queries), target_(target) {
  aug_w_.resize(static_cast<size_t>(queries_->size()));
  for (int q = 0; q < queries_->size(); ++q) {
    if (!queries_->is_active(q)) continue;
    aug_w_[static_cast<size_t>(q)] =
        view_->form().AugmentWeights(queries_->query(q).weights);
  }
  base_hits_ = HitsForCoeffs(view_->coeffs(target));
  calls_ = 0;
  queries_rescored_ = 0;
}

int BruteForceEvaluator::HitsForCoeffs(const Vec& c) {
  ++calls_;
  queries_rescored_ += static_cast<size_t>(queries_->num_active());
  int hits = 0;
  for (int q = 0; q < queries_->size(); ++q) {
    if (!queries_->is_active(q)) continue;
    const Vec& w = aug_w_[static_cast<size_t>(q)];
    double kth = KthBestScore(view_->rows(), &view_->dataset().active_mask(),
                              w, queries_->query(q).k, target_);
    // Reference evaluator: deliberately naive.
    // iq-lint: allow(raw-scoring-loop)
    if (HitByThreshold(Dot(c, w), kth)) ++hits;
  }
  return hits;
}

RtaStrategyEvaluator::RtaStrategyEvaluator(const FunctionView* view,
                                           const QuerySet* queries,
                                           int target)
    : view_(view), queries_(queries), target_(target) {
  for (int q = 0; q < queries_->size(); ++q) {
    if (!queries_->is_active(q)) continue;
    aug_w_dense_.push_back(
        view_->form().AugmentWeights(queries_->query(q).weights));
    ks_dense_.push_back(queries_->query(q).k);
  }
  order_ = Rta::LocalityOrder(aug_w_dense_);
  rta_ = std::make_unique<Rta>(&view_->rows(), &view_->dataset().active_mask(),
                               target_);
  base_hits_ = HitsForCoeffs(view_->coeffs(target));
  calls_ = 0;
  queries_rescored_ = 0;
  total_full_evaluations_ = 0;
}

int RtaStrategyEvaluator::HitsForCoeffs(const Vec& c) {
  ++calls_;
  queries_rescored_ += aug_w_dense_.size();
  int hits = rta_->CountHits(c, aug_w_dense_, ks_dense_, &order_);
  total_full_evaluations_ += rta_->full_evaluations();
  return hits;
}

}  // namespace iq
