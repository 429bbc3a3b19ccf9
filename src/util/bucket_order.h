#ifndef IQ_UTIL_BUCKET_ORDER_H_
#define IQ_UTIL_BUCKET_ORDER_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace iq {

/// Orders items by a double key without a comparison sort of the whole set
/// (DESIGN.md §2). Assign spreads n items over n buckets with a monotone
/// map, linear over the range of the finite keys (-inf goes to the first
/// bucket, +inf to the last), in one counting pass; within a bucket the
/// items keep their input order. Monotone means key(a) <= key(b) puts a's
/// bucket at or before b's, so sorting each bucket with an order that
/// agrees with the key gives exactly the full sort, and the items with key
/// <= x are the buckets before x's plus part of x's own.
///
/// `Key` is a stateless functor returning an item's key; no key may be NaN.
template <typename T, typename Key>
class BucketOrder {
 public:
  /// Takes `in`, grouped by ascending bucket, stable within a bucket. The
  /// storage is kept from call to call.
  void Assign(std::span<const T> in) {
    const size_t n = in.size();
    double lo = 0.0;
    double hi = 0.0;
    bool any = false;
    for (const T& item : in) {
      const double k = Key{}(item);
      if (!std::isfinite(k)) continue;
      lo = any ? std::min(lo, k) : k;
      hi = any ? std::max(hi, k) : k;
      any = true;
    }
    last_ = n > 0 ? n - 1 : 0;
    last_bucket_ = static_cast<double>(last_);
    lo_ = lo;
    // A range that overflows gives scale 0 (one bucket), a subnormal one an
    // infinite scale (two buckets); both stay monotone.
    scale_ = hi > lo ? last_bucket_ / (hi - lo) : 0.0;
    starts_.assign(last_ + 2, 0);
    for (const T& item : in) ++starts_[Bucket(Key{}(item)) + 1];
    for (size_t b = 1; b < starts_.size(); ++b) starts_[b] += starts_[b - 1];
    items_.resize(n);
    fill_.assign(starts_.begin(), starts_.end() - 1);
    for (const T& item : in) items_[fill_[Bucket(Key{}(item))]++] = item;
    bucket_ = 0;
    sorted_ = 0;
  }

  size_t size() const { return items_.size(); }
  const std::vector<T>& items() const { return items_; }

  /// Sorts, with `less`, every bucket not sorted yet that starts at or
  /// before `pos`, so items()[0, pos] are in their final order. `less` must
  /// order keys as < does. Calls come with pos ascending from 0.
  template <typename Less>
  void SortThrough(size_t pos, Less less) {
    while (sorted_ <= pos && sorted_ < items_.size()) {
      const size_t end = starts_[++bucket_];
      if (end - sorted_ > 1) {
        std::sort(items_.begin() + static_cast<std::ptrdiff_t>(sorted_),
                  items_.begin() + static_cast<std::ptrdiff_t>(end), less);
      }
      sorted_ = end;
    }
  }

  /// The positions [begin, end) of x's bucket in items(), after Assign:
  /// every item before begin has a key below x, every item from end on a
  /// key above it. x is not NaN.
  std::pair<size_t, size_t> BucketRange(double x) const {
    const size_t b = Bucket(x);
    return {starts_[b], starts_[b + 1]};
  }

  /// The number of items whose key is at most x, !(x < key): what
  /// std::upper_bound returns over the sorted keys (every item for a NaN x).
  /// Scans x's bucket only.
  size_t CountAtMost(double x) const {
    if (std::isnan(x)) return items_.size();
    if (items_.empty()) return 0;
    const auto [begin, end] = BucketRange(x);
    size_t count = begin;
    for (size_t i = begin; i < end; ++i) {
      count += x < Key{}(items_[i]) ? 0 : 1;
    }
    return count;
  }

 private:
  /// The monotone map: each step of it rounds monotonically, and a NaN (an
  /// infinite key times scale 0, or key lo_ times an infinite scale) arises
  /// only where every smaller key maps to bucket 0 too.
  size_t Bucket(double key) const {
    const double v = (key - lo_) * scale_;
    if (!(v > 0.0)) return 0;
    if (v >= last_bucket_) return last_;
    return static_cast<size_t>(static_cast<int64_t>(v));
  }

  double lo_ = 0.0;
  double scale_ = 0.0;
  size_t last_ = 0;           // the last bucket
  double last_bucket_ = 0.0;  // last_ as a double
  /// Bucket b holds items_[starts_[b], starts_[b + 1]).
  std::vector<uint32_t> starts_;
  std::vector<uint32_t> fill_;  // Assign's scatter cursors
  std::vector<T> items_;
  size_t bucket_ = 0;  // SortThrough: buckets [0, bucket_) are sorted
  size_t sorted_ = 0;  // == starts_[bucket_]
};

}  // namespace iq

#endif  // IQ_UTIL_BUCKET_ORDER_H_
