#ifndef IQ_TOPK_TOPK_H_
#define IQ_TOPK_TOPK_H_

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "geom/vec.h"
#include "util/cow_chunks.h"

namespace iq {

/// An object id with its score under some query.
struct ScoredObject {
  int id = 0;
  double score = 0.0;
};

/// Shared hit rule: an object with score `s` hits a top-k query whose k-th
/// best *competitor* score is `kth` iff s < kth (strictly better). Every
/// evaluator in the library uses this single predicate so that ESE, RTA and
/// brute force agree bit-for-bit on ties.
inline bool HitByThreshold(double score, double kth_competitor_score) {
  return score < kth_competitor_score;
}

/// Calls fn(i, row) for every row of a row table in ascending i: a plain
/// std::vector<Vec>, or a FunctionView's CowChunks<Vec> scanned chunk by
/// chunk.
template <typename Fn>
void ForEachRow(const std::vector<Vec>& rows, Fn&& fn) {
  for (size_t i = 0; i < rows.size(); ++i) fn(i, rows[i]);
}
template <typename Fn>
void ForEachRow(const CowChunks<Vec>& rows, Fn&& fn) {
  rows.ForEach(fn);
}

/// Brute-force top-k scan over coefficient rows: the k lowest scores under
/// weights `w`, ascending, ties broken by id. `Rows` is any row table
/// ForEachRow reads. `active` may be null (all rows); `exclude` (>= 0)
/// skips one id.
template <typename Rows>
std::vector<ScoredObject> TopKScan(const Rows& coeffs,
                                   const std::vector<bool>* active,
                                   const Vec& w, int k, int exclude = -1) {
  std::vector<ScoredObject> scored;
  scored.reserve(coeffs.size());
  ForEachRow(coeffs, [&](size_t i, const Vec& row) {
    if (static_cast<int>(i) == exclude) return;
    if (active != nullptr && !(*active)[i]) return;
    scored.push_back({static_cast<int>(i), Dot(row, w)});
  });
  auto cmp = [](const ScoredObject& a, const ScoredObject& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.id < b.id;
  };
  int kk = std::min<int>(k, static_cast<int>(scored.size()));
  std::partial_sort(scored.begin(), scored.begin() + kk, scored.end(), cmp);
  scored.resize(static_cast<size_t>(kk));
  return scored;
}

/// Score of the k-th best row (ascending) under `w`, excluding `exclude`;
/// +infinity when fewer than k rows qualify. This is the hit threshold t_q.
template <typename Rows>
double KthBestScore(const Rows& coeffs, const std::vector<bool>* active,
                    const Vec& w, int k, int exclude = -1) {
  // Max-heap of the best k scores seen so far.
  std::priority_queue<double> heap;
  ForEachRow(coeffs, [&](size_t i, const Vec& row) {
    if (static_cast<int>(i) == exclude) return;
    if (active != nullptr && !(*active)[i]) return;
    double s = Dot(row, w);
    if (static_cast<int>(heap.size()) < k) {
      heap.push(s);
    } else if (s < heap.top()) {
      heap.pop();
      heap.push(s);
    }
  });
  if (static_cast<int>(heap.size()) < k) {
    return std::numeric_limits<double>::infinity();
  }
  return heap.top();
}

}  // namespace iq

#endif  // IQ_TOPK_TOPK_H_
