#include "core/self_check.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "topk/topk.h"

namespace iq {

Status CrossCheckEse(const SubdomainIndex& index, int target) {
  const FunctionView& view = index.view();
  const QuerySet& queries = index.queries();
  const std::vector<double> thresholds = index.HitThresholds(target);
  const std::vector<int> hit_set = index.HitSet(target);
  for (int q = 0; q < queries.size(); ++q) {
    if (!queries.is_active(q)) continue;
    const Vec& w = index.aug_weights(q);
    double cached_t = thresholds[static_cast<size_t>(q)];
    double naive_t = KthBestScore(view.rows(), &view.dataset().active_mask(),
                                  w, queries.query(q).k, target);
    // Both thresholds pick the k-th smallest of the same dot products, so
    // they must agree bit-for-bit, not just approximately.
    if (cached_t != naive_t && !(std::isinf(cached_t) && std::isinf(naive_t))) {
      return Status::Internal(
          "ESE cross-check failed for target " + std::to_string(target) +
          " at query " + std::to_string(q) + ": cached hit threshold " +
          std::to_string(cached_t) + " vs naive re-evaluation " +
          std::to_string(naive_t));
    }
    double score = view.Score(target, w);  // iq-lint: allow(raw-scoring-loop)
    bool cached_hit = std::binary_search(hit_set.begin(), hit_set.end(), q);
    bool naive_hit = HitByThreshold(score, naive_t);
    if (cached_hit != naive_hit) {
      return Status::Internal(
          "ESE cross-check failed for target " + std::to_string(target) +
          " at query " + std::to_string(q) + ": cached hit decision " +
          (cached_hit ? "hit" : "miss") + " vs naive " +
          (naive_hit ? "hit" : "miss"));
    }
  }
  return Status::Ok();
}

Status CrossCheckSampledSubdomain(const SubdomainIndex& index,
                                  uint64_t ticket) {
  const QuerySet& queries = index.queries();
  std::vector<int> occupied;
  for (int q = 0; q < queries.size(); ++q) {
    if (!queries.is_active(q)) continue;
    occupied.push_back(index.subdomain_of(q));
  }
  std::sort(occupied.begin(), occupied.end());
  occupied.erase(std::unique(occupied.begin(), occupied.end()),
                 occupied.end());
  if (occupied.empty()) return Status::Ok();

  int sd = occupied[static_cast<size_t>(ticket % occupied.size())];
  const std::vector<int>& cached = index.signature(sd);
  int rep = index.subdomain_queries(sd).front();

  const FunctionView& view = index.view();
  std::vector<ScoredObject> top =
      TopKScan(view.rows(), &view.dataset().active_mask(),
               index.aug_weights(rep), index.kappa());
  std::vector<int> fresh;
  fresh.reserve(top.size());
  for (const ScoredObject& so : top) fresh.push_back(so.id);

  if (fresh != cached) {
    return Status::Internal(
        "sampled subdomain " + std::to_string(sd) +
        ": cached total order disagrees with a direct re-ranking at its "
        "representative query " +
        std::to_string(rep));
  }
  return Status::Ok();
}

}  // namespace iq
