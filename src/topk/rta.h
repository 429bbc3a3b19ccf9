#ifndef IQ_TOPK_RTA_H_
#define IQ_TOPK_RTA_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "geom/vec.h"
#include "topk/topk.h"

namespace iq {

/// Reverse top-k Threshold Algorithm (RTA, Vlachou et al., TKDE 2011) — the
/// evaluation baseline inside the paper's RTA-IQ scheme (§6.1).
///
/// Given a candidate object c (e.g. an improved target), RTA decides for
/// every query whether c makes its top-k. Queries are processed in an order
/// that keeps consecutive weight vectors similar; the top-k *buffer* of the
/// last fully evaluated query is reused as a pruning set: if k buffered
/// objects already score no worse than c under the next query, c cannot be
/// in that query's top-k and the O(n) evaluation is skipped.
class Rta {
 public:
  /// `coeffs`/`active` must outlive the evaluator; rows are object-function
  /// coefficient vectors in any row table TopKScan reads (std::vector<Vec>
  /// or a FunctionView's CowChunks<Vec>). `exclude` removes the original
  /// target row from every competition (the improved object replaces it).
  template <typename Rows>
  Rta(const Rows* coeffs, const std::vector<bool>* active, int exclude = -1)
      : row_([coeffs](int id) -> const Vec& {
          return (*coeffs)[static_cast<size_t>(id)];
        }),
        top_k_([coeffs, active, exclude](const Vec& w, int k) {
          return TopKScan(*coeffs, active, w, k, exclude);
        }) {}

  /// Number of queries (given as augmented weight vectors plus per-query k)
  /// hit by the candidate coefficient vector c. `order` optionally supplies
  /// the processing order (defaults to the given order; callers can pass a
  /// locality-preserving order for better pruning).
  int CountHits(const Vec& c, const std::vector<Vec>& aug_weights,
                const std::vector<int>& ks,
                const std::vector<int>* order = nullptr);

  /// Same, also collecting the hit query ids.
  int CountHits(const Vec& c, const std::vector<Vec>& aug_weights,
                const std::vector<int>& ks, const std::vector<int>* order,
                std::vector<int>* hit_ids);

  /// Stats: full top-k evaluations vs buffer-pruned queries (reset on every
  /// CountHits call).
  size_t full_evaluations() const { return full_evaluations_; }
  size_t pruned() const { return pruned_; }

  /// Sorts query ids by angular similarity of their weight vectors (greedy
  /// nearest-neighbour chain on normalized weights) — the processing order
  /// RTA benefits from.
  static std::vector<int> LocalityOrder(const std::vector<Vec>& aug_weights);

 private:
  /// Row `id` of the bound table, and TopKScan over it (with the bound
  /// active mask and excluded id).
  std::function<const Vec&(int)> row_;
  std::function<std::vector<ScoredObject>(const Vec&, int)> top_k_;
  // Rows of the last full evaluation's top-k (the bound table outlives
  // the evaluator).
  std::vector<const Vec*> buffer_;
  size_t full_evaluations_ = 0;
  size_t pruned_ = 0;
};

}  // namespace iq

#endif  // IQ_TOPK_RTA_H_
