#include "core/score_kernel.h"

#include <algorithm>
#include <cstddef>

#include "topk/topk.h"

namespace iq {
namespace {

/// acc[d] = score of the block's dense row d under `w`, each row summed in
/// ascending slot order.
void ScoreBlock(const ScoreKernel::Block& b, int num_slots, const Vec& w,
                double* acc) {
  const int len = static_cast<int>(b.ids.size());
  for (int d = 0; d < len; ++d) acc[d] = 0.0;
  for (int s = 0; s < num_slots; ++s) {
    const double* col =
        b.data.data() + static_cast<size_t>(s) * static_cast<size_t>(len);
    const double ws = w[static_cast<size_t>(s)];
    for (int d = 0; d < len; ++d) acc[d] += col[d] * ws;
  }
}

}  // namespace

std::vector<int> ScoreKernel::ids() const {
  std::vector<int> out;
  out.reserve(static_cast<size_t>(num_rows_));
  for (const auto& b : blocks_) out.insert(out.end(), b->ids.begin(), b->ids.end());
  return out;
}

void ScoreKernel::ScoreAll(const Vec& w, std::vector<double>* out) const {
  out->resize(static_cast<size_t>(num_rows_));
  double* o = out->data();
  for (const auto& b : blocks_) {
    ScoreBlock(*b, num_slots_, w, o);
    o += b->ids.size();
  }
}

std::vector<std::vector<int>> ScoreKernel::TopKappaSignatures(
    const std::vector<const Vec*>& ws, int kappa) const {
  std::vector<std::vector<int>> out(ws.size());
  const size_t k = std::min(static_cast<size_t>(std::max(kappa, 0)),
                            static_cast<size_t>(num_rows_));
  if (k == 0) return out;
  // TopKScan's comparator; (score, id) is a strict total order, so the
  // selection is deterministic. Under it each heap is a max-heap whose
  // front is the query's current κ-th best row.
  auto before = [](const ScoredObject& a, const ScoredObject& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.id < b.id;
  };
  std::vector<std::vector<ScoredObject>> heaps(ws.size());
  for (auto& heap : heaps) heap.reserve(k);
  double acc[kCowChunkRows];
  for (const auto& b : blocks_) {
    const int len = static_cast<int>(b->ids.size());
    for (size_t t = 0; t < ws.size(); ++t) {
      ScoreBlock(*b, num_slots_, *ws[t], acc);
      std::vector<ScoredObject>& heap = heaps[t];
      int d = 0;
      for (; d < len && heap.size() < k; ++d) {
        heap.push_back({b->ids[d], acc[d]});
        std::push_heap(heap.begin(), heap.end(), before);
      }
      if (d == len) continue;
      // The heap is full. Rows arrive in ascending id, so every row left has
      // a larger id than every heap entry: it ranks before the front iff its
      // score is strictly lower (an equal score loses the id tie-break).
      const double bound = heap.front().score;
      int beats = 0;
      for (int e = d; e < len; ++e) beats += acc[e] < bound ? 1 : 0;
      if (beats == 0) continue;
      for (; d < len; ++d) {
        if (!(acc[d] < heap.front().score)) continue;
        std::pop_heap(heap.begin(), heap.end(), before);
        heap.back() = {b->ids[d], acc[d]};
        std::push_heap(heap.begin(), heap.end(), before);
      }
    }
  }
  for (size_t t = 0; t < ws.size(); ++t) {
    std::sort_heap(heaps[t].begin(), heaps[t].end(), before);
    out[t].reserve(heaps[t].size());
    for (const ScoredObject& so : heaps[t]) out[t].push_back(so.id);
  }
  return out;
}

int ScoreKernel::CountHits(const Vec& w,
                           const std::vector<double>& thresholds) const {
  double acc[kCowChunkRows];
  const double* th = thresholds.data();
  int hits = 0;
  for (const auto& b : blocks_) {
    const int len = static_cast<int>(b->ids.size());
    ScoreBlock(*b, num_slots_, w, acc);
    int block_hits = 0;
    for (int d = 0; d < len; ++d) {
      block_hits += HitByThreshold(acc[d], th[d]) ? 1 : 0;
    }
    hits += block_hits;
    th += len;
  }
  return hits;
}

size_t ScoreKernel::MemoryBytes() const {
  size_t bytes = sizeof(ScoreKernel);
  for (const auto& b : blocks_) {
    bytes += sizeof(std::shared_ptr<const Block>) + sizeof(Block) +
             b->ids.size() * sizeof(int) + b->data.size() * sizeof(double);
  }
  return bytes;
}

}  // namespace iq
