#ifndef IQ_CORE_QUERY_H_
#define IQ_CORE_QUERY_H_

#include <vector>

#include "geom/vec.h"
#include "util/cow_chunks.h"
#include "util/status.h"

namespace iq {

/// One top-k query: a user preference. `weights` parameterizes the utility
/// function shared by the query set (for the plain linear utility these are
/// the attribute weights; for a linearized or unified utility they are the
/// original weight slots, before bias augmentation). Lower score = better
/// rank; the query returns the k objects with the lowest scores.
struct TopKQuery {
  int k = 1;
  Vec weights;
};

/// The query workload Q. Queries get stable ids (indices); removal
/// tombstones a slot, mirroring Dataset, and the queries are CowChunks like
/// Dataset's rows.
class QuerySet {
 public:
  explicit QuerySet(int num_weights) : num_weights_(num_weights) {}

  int num_weights() const { return num_weights_; }
  int size() const { return static_cast<int>(queries_.size()); }
  int num_active() const { return num_active_; }

  const TopKQuery& query(int j) const {
    return queries_[static_cast<size_t>(j)];
  }
  bool is_active(int j) const { return active_[static_cast<size_t>(j)]; }

  /// Appends a query; returns its id. Error on a weight-length mismatch,
  /// k < 1 or a non-finite weight.
  Result<int> Add(TopKQuery q);

  Status Remove(int j);

  /// Largest k among active queries (0 when empty).
  int max_k() const;

 private:
  int num_weights_;
  int num_active_ = 0;
  CowChunks<TopKQuery> queries_;
  std::vector<bool> active_;
};

}  // namespace iq

#endif  // IQ_CORE_QUERY_H_
