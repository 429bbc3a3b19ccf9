#include "core/evaluator.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "geom/wedge.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topk/topk.h"
#include "util/check.h"
#include "util/logging.h"

namespace iq {
namespace {

/// Cached pointers into the global registry; all increments are lock-free.
struct EseMetrics {
  Counter* queries_reranked;    // hit state recomputed (scored)
  Counter* queries_reused;      // cached hit state reused, no rescoring
  Counter* affected_subspaces;  // wedge searches issued (one per competitor)
  Counter* scan_evaluations;    // HitsForCoeffs calls (reach-bounded scan)
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

/// The reach bound's relative slack (DESIGN.md §2): far above the S·2^-53
/// rounding error of a score, a norm or the step length, so it only ever
/// re-tests more queries.
constexpr double kReachSlack = 1e-9;
/// Where the bound is proven (DESIGN.md §2): the sums of squares of c, c0
/// and every w at most 2^1000, so no score or norm overflows; those of w,
/// and of c and c0 together, at least 2^-1000, so what underflows stays
/// far below the slack; and fewer than 2^12 slots.
constexpr double kReachMinSumSq = 0x1p-1000;
constexpr double kReachMaxSumSq = 0x1p1000;
constexpr size_t kReachMaxSlots = size_t{1} << 12;
// A kernel row's offset in its block fits RowReach::offset.
static_assert(kCowChunkRows <= size_t{1} << 16);

}  // namespace

EseEvaluator::EseEvaluator(const SubdomainIndex* index, int target)
    : EseEvaluator(index, target, index->HitThresholds(target)) {}

EseEvaluator::EseEvaluator(const SubdomainIndex* index, int target,
                           std::vector<double> thresholds)
    : index_(index),
      target_(target),
      thresholds_(std::move(thresholds)),
      c0_(index->view().coeffs(target)) {
  const ScoreKernel& kernel = index_->query_kernel();
  const size_t rows = static_cast<size_t>(kernel.num_rows());
  const size_t slots = static_cast<size_t>(kernel.num_slots());
  IQ_DCHECK_EQ(c0_.size(), slots);
  IQ_DCHECK_EQ(thresholds_.size(),
               static_cast<size_t>(index_->queries().size()));
  for (double x : c0_) c0_sum_sq_ += x * x;
  reach_ok_ = c0_sum_sq_ <= kReachMaxSumSq && slots < kReachMaxSlots;
  // One pass scores every active query under c0 (bit-identical to Dot):
  // the base hit flags and each query's reach.
  std::vector<double> scores;
  kernel.ScoreAll(c0_, &scores);
  base_hit_flags_.assign(static_cast<size_t>(index_->queries().size()), false);
  std::vector<RowReach> rows_in;
  rows_in.reserve(rows);
  double w_sum_sq[kCowChunkRows];
  for (size_t b = 0; b < kernel.blocks().size(); ++b) {
    const ScoreKernel::Block& block = *kernel.blocks()[b];
    const size_t len = block.ids.size();
    for (size_t o = 0; o < len; ++o) w_sum_sq[o] = 0.0;
    for (size_t s = 0; s < slots; ++s) {
      const double* col = block.data.data() + s * len;
      for (size_t o = 0; o < len; ++o) w_sum_sq[o] += col[o] * col[o];
    }
    for (size_t o = 0; o < len; ++o) {
      const size_t q = static_cast<size_t>(block.ids[o]);
      const double score = scores[rows_in.size()];
      const bool hit = HitByThreshold(score, thresholds_[q]);
      base_hit_flags_[q] = hit;
      base_hits_ += hit ? 1 : 0;
      // Outside the range the bound is not proven for, or with a NaN
      // threshold, the reach is 0: the query is re-tested on every call.
      double reach = 0.0;
      if (w_sum_sq[o] >= kReachMinSumSq && w_sum_sq[o] <= kReachMaxSumSq) {
        reach = std::fabs(score - thresholds_[q]) / std::sqrt(w_sum_sq[o]);
        if (std::isnan(reach)) reach = 0.0;
      }
      rows_in.push_back({reach, static_cast<uint32_t>(b),
                         static_cast<uint16_t>(o), hit});
    }
  }
  reach_.Assign(rows_in);
  // Lay the rows out in bucket order, gathering each from its block.
  weights_.resize(slots * rows);
  layout_thresholds_.resize(rows);
  base_before_.resize(rows + 1);
  base_before_[0] = 0;
  for (size_t i = 0; i < rows; ++i) {
    const RowReach& r = reach_.items()[i];
    const ScoreKernel::Block& block = *kernel.blocks()[r.block];
    const size_t len = block.ids.size();
    for (size_t s = 0; s < slots; ++s) {
      weights_[s * rows + i] = block.data[s * len + r.offset];
    }
    layout_thresholds_[i] =
        thresholds_[static_cast<size_t>(block.ids[r.offset])];
    base_before_[i + 1] = base_before_[i] + (r.hit ? 1 : 0);
  }
}

int EseEvaluator::HitsForCoeffs(const Vec& c) {
  ++calls_;
  // A query whose reach exceeds ‖c - c0‖₂ keeps its base hit state
  // (Cauchy–Schwarz); the slack covers every rounding error, and outside
  // the proven range every query is re-tested (DESIGN.md §2).
  IQ_DCHECK_EQ(c.size(), c0_.size());
  const size_t rows = layout_thresholds_.size();
  size_t below = rows;  // layout rows [0, below) are within reach
  size_t edge = rows;   // [below, edge) is the limit's bucket, unsorted
  double limit = 0.0;
  if (reach_ok_) {
    double diff_sum_sq = 0.0;
    double c_sum_sq = 0.0;
    for (size_t s = 0; s < c.size(); ++s) {
      const double diff = c[s] - c0_[s];
      diff_sum_sq += diff * diff;
      c_sum_sq += c[s] * c[s];
    }
    if (c_sum_sq <= kReachMaxSumSq &&
        c_sum_sq + c0_sum_sq_ >= kReachMinSumSq) {
      limit = std::sqrt(diff_sum_sq) * (1.0 + kReachSlack) +
              kReachSlack * (std::sqrt(c_sum_sq) + std::sqrt(c0_sum_sq_));
      std::tie(below, edge) = reach_.BucketRange(limit);
    }
  }
  int hits = base_hits_ - base_before_[below] + PrefixHits(c, below);
  size_t scored = below;
  for (size_t i = below; i < edge; ++i) {
    const RowReach& r = reach_.items()[i];
    if (limit < r.reach) continue;
    ++scored;
    hits += RowHit(c, i) - (r.hit ? 1 : 0);
  }
  const uint64_t reused = static_cast<uint64_t>(rows - scored);
  queries_rescored_ += scored;
  queries_reused_ += reused;
  EseMetrics::Get().queries_reranked->Increment(scored);
  if (reused > 0) EseMetrics::Get().queries_reused->Increment(reused);
  EseMetrics::Get().scan_evaluations->Increment();
  return hits;
}

int EseEvaluator::RowHit(const Vec& c, size_t i) const {
  // PrefixHits' arithmetic for one row.
  const size_t rows = layout_thresholds_.size();
  double score = 0.0;
  for (size_t s = 0; s < c0_.size(); ++s) {
    score += weights_[s * rows + i] * c[s];
  }
  return HitByThreshold(score, layout_thresholds_[i]) ? 1 : 0;
}

int EseEvaluator::PrefixHits(const Vec& c, size_t len) const {
  // ScoreKernel's block arithmetic (ScoreBlock, CountHits): each row summed
  // in ascending slot order, a tile of rows at a time, so every score is
  // bit-identical to Dot (DESIGN.md §13.2).
  const size_t rows = layout_thresholds_.size();
  const size_t slots = c0_.size();
  double acc[kCowChunkRows];
  int hits = 0;
  for (size_t base = 0; base < len; base += kCowChunkRows) {
    const size_t n = std::min(kCowChunkRows, len - base);
    for (size_t d = 0; d < n; ++d) acc[d] = 0.0;
    for (size_t s = 0; s < slots; ++s) {
      const double* col = weights_.data() + s * rows + base;
      const double ws = c[s];
      for (size_t d = 0; d < n; ++d) acc[d] += col[d] * ws;
    }
    const double* th = layout_thresholds_.data() + base;
    int tile_hits = 0;
    for (size_t d = 0; d < n; ++d) {
      tile_hits += HitByThreshold(acc[d], th[d]) ? 1 : 0;
    }
    hits += tile_hits;
  }
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
  int hits = base_hits_;
  std::vector<int> affected = AffectedQueries(c0_, c);
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
