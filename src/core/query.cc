#include "core/query.h"

#include <algorithm>

#include "util/string_util.h"

namespace iq {

Result<int> QuerySet::Add(TopKQuery q) {
  if (static_cast<int>(q.weights.size()) != num_weights_) {
    return Status::InvalidArgument(
        StrFormat("query has %zu weights, expected %d", q.weights.size(),
                  num_weights_));
  }
  if (q.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (!AllFinite(q.weights)) {
    return Status::InvalidArgument("query weights must be finite");
  }
  queries_.push_back(std::move(q));
  active_.push_back(true);
  ++num_active_;
  return static_cast<int>(queries_.size()) - 1;
}

Status QuerySet::Remove(int j) {
  if (j < 0 || j >= size()) {
    return Status::OutOfRange(StrFormat("query id %d out of range", j));
  }
  if (!active_[static_cast<size_t>(j)]) {
    return Status::FailedPrecondition(StrFormat("query %d already removed", j));
  }
  active_[static_cast<size_t>(j)] = false;
  --num_active_;
  return Status::Ok();
}

int QuerySet::max_k() const {
  int k = 0;
  for (int j = 0; j < size(); ++j) {
    if (is_active(j)) k = std::max(k, query(j).k);
  }
  return k;
}

}  // namespace iq
