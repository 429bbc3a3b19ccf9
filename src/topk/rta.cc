#include "topk/rta.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace iq {

int Rta::CountHits(const Vec& c, const std::vector<Vec>& aug_weights,
                   const std::vector<int>& ks,
                   const std::vector<int>* order) {
  return CountHits(c, aug_weights, ks, order, nullptr);
}

int Rta::CountHits(const Vec& c, const std::vector<Vec>& aug_weights,
                   const std::vector<int>& ks, const std::vector<int>* order,
                   std::vector<int>* hit_ids) {
  full_evaluations_ = 0;
  pruned_ = 0;
  // NOTE: the buffer deliberately survives across CountHits calls. Pruning
  // only relies on "k buffered competitors score no worse than the
  // candidate", which holds for any set of real objects — and consecutive
  // candidate evaluations inside a greedy iteration are highly similar, so
  // the previous call's buffer prunes well.
  if (hit_ids != nullptr) hit_ids->clear();

  std::vector<int> default_order;
  if (order == nullptr) {
    default_order.resize(aug_weights.size());
    std::iota(default_order.begin(), default_order.end(), 0);
    order = &default_order;
  }

  int hits = 0;
  for (int q : *order) {
    const Vec& w = aug_weights[static_cast<size_t>(q)];
    const int k = ks[static_cast<size_t>(q)];
    double score_c = Dot(c, w);

    // Buffer-based pruning: if k buffered objects score <= score_c, the
    // candidate cannot beat the k-th best competitor for this query.
    int no_worse = 0;
    for (const Vec* row : buffer_) {
      if (Dot(*row, w) <= score_c) {
        ++no_worse;
        if (no_worse >= k) break;
      }
    }
    if (no_worse >= k) {
      ++pruned_;
      continue;
    }

    // Full evaluation: k-th best competitor score and the fresh buffer.
    ++full_evaluations_;
    std::vector<ScoredObject> topk = top_k_(w, k);
    buffer_.clear();
    for (const ScoredObject& so : topk) buffer_.push_back(&row_(so.id));
    double kth = static_cast<int>(topk.size()) < k
                     ? std::numeric_limits<double>::infinity()
                     : topk.back().score;
    if (HitByThreshold(score_c, kth)) {
      ++hits;
      if (hit_ids != nullptr) hit_ids->push_back(q);
    }
  }
  return hits;
}

std::vector<int> Rta::LocalityOrder(const std::vector<Vec>& aug_weights) {
  const int m = static_cast<int>(aug_weights.size());
  std::vector<int> order(static_cast<size_t>(m));
  std::iota(order.begin(), order.end(), 0);
  if (m == 0) return order;
  // Sort by projection onto the first axis, then by the second — a cheap
  // locality-preserving order (a full greedy chain is O(m^2)).
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Vec& wa = aug_weights[static_cast<size_t>(a)];
    const Vec& wb = aug_weights[static_cast<size_t>(b)];
    if (wa[0] != wb[0]) return wa[0] < wb[0];
    if (wa.size() > 1 && wa[1] != wb[1]) return wa[1] < wb[1];
    return a < b;
  });
  return order;
}

}  // namespace iq
