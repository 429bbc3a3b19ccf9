#include "geom/mbr.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace iq {

Mbr::Mbr(Vec lo, Vec hi) : lo_(std::move(lo)), hi_(std::move(hi)) {
  IQ_DCHECK(lo_.size() == hi_.size());
}

Mbr Mbr::Empty(int dim) {
  Mbr box;
  box.lo_.assign(static_cast<size_t>(dim),
                 std::numeric_limits<double>::infinity());
  box.hi_.assign(static_cast<size_t>(dim),
                 -std::numeric_limits<double>::infinity());
  return box;
}

bool Mbr::IsEmpty() const {
  if (lo_.empty()) return true;
  for (size_t i = 0; i < lo_.size(); ++i) {
    if (lo_[i] > hi_[i]) return true;
  }
  return false;
}

void Mbr::Expand(const Vec& point) {
  IQ_DCHECK(point.size() == lo_.size());
  for (size_t i = 0; i < lo_.size(); ++i) {
    lo_[i] = std::min(lo_[i], point[i]);
    hi_[i] = std::max(hi_[i], point[i]);
  }
}

void Mbr::Expand(const Mbr& other) {
  IQ_DCHECK(other.lo_.size() == lo_.size());
  for (size_t i = 0; i < lo_.size(); ++i) {
    lo_[i] = std::min(lo_[i], other.lo_[i]);
    hi_[i] = std::max(hi_[i], other.hi_[i]);
  }
}

bool Mbr::Contains(const Vec& point) const {
  IQ_DCHECK(point.size() == lo_.size());
  for (size_t i = 0; i < lo_.size(); ++i) {
    if (point[i] < lo_[i] || point[i] > hi_[i]) return false;
  }
  return true;
}

bool Mbr::Intersects(const Mbr& other) const {
  IQ_DCHECK(other.lo_.size() == lo_.size());
  for (size_t i = 0; i < lo_.size(); ++i) {
    if (other.hi_[i] < lo_[i] || other.lo_[i] > hi_[i]) return false;
  }
  return true;
}

double Mbr::Area() const {
  if (IsEmpty()) return 0.0;
  double a = 1.0;
  for (size_t i = 0; i < lo_.size(); ++i) a *= hi_[i] - lo_[i];
  return a;
}

double Mbr::Margin() const {
  if (IsEmpty()) return 0.0;
  double m = 0.0;
  for (size_t i = 0; i < lo_.size(); ++i) m += hi_[i] - lo_[i];
  return m;
}

double Mbr::OverlapArea(const Mbr& other) const {
  double a = 1.0;
  for (size_t i = 0; i < lo_.size(); ++i) {
    double lo = std::max(lo_[i], other.lo_[i]);
    double hi = std::min(hi_[i], other.hi_[i]);
    if (hi <= lo) return 0.0;
    a *= hi - lo;
  }
  return a;
}

double Mbr::Enlargement(const Vec& point) const {
  if (IsEmpty()) return 0.0;
  double enlarged = 1.0;
  for (size_t i = 0; i < lo_.size(); ++i) {
    enlarged *= std::max(hi_[i], point[i]) - std::min(lo_[i], point[i]);
  }
  return enlarged - Area();
}

double Mbr::MinDistanceSquared(const Vec& point) const {
  IQ_DCHECK(point.size() == lo_.size());
  double s = 0.0;
  for (size_t i = 0; i < lo_.size(); ++i) {
    double d = 0.0;
    if (point[i] < lo_[i]) {
      d = lo_[i] - point[i];
    } else if (point[i] > hi_[i]) {
      d = point[i] - hi_[i];
    }
    s += d * d;
  }
  return s;
}

PlaneRelation Mbr::Classify(const Hyperplane& plane) const {
  IQ_DCHECK(plane.normal.size() == lo_.size());
  // Range of normal.q over the box: pick per-dimension extreme by the sign
  // of the normal component.
  double min_v = -plane.offset;
  double max_v = -plane.offset;
  for (size_t i = 0; i < lo_.size(); ++i) {
    double n = plane.normal[i];
    if (n >= 0) {
      min_v += n * lo_[i];
      max_v += n * hi_[i];
    } else {
      min_v += n * hi_[i];
      max_v += n * lo_[i];
    }
  }
  if (max_v < 0) return PlaneRelation::kAllNegative;
  if (min_v > 0) return PlaneRelation::kAllPositive;
  return PlaneRelation::kStraddles;
}

}  // namespace iq
