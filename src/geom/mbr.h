#ifndef IQ_GEOM_MBR_H_
#define IQ_GEOM_MBR_H_

#include "geom/hyperplane.h"
#include "geom/vec.h"

namespace iq {

/// How an axis-aligned box relates to a hyperplane's signed side.
enum class PlaneRelation {
  kAllNegative,  // every corner has Side(q) < 0
  kAllPositive,  // every corner has Side(q) > 0
  kStraddles,    // the plane may pass through the box
};

/// Minimum bounding rectangle in d dimensions.
class Mbr {
 public:
  Mbr() = default;

  /// Degenerate box around a single point.
  explicit Mbr(const Vec& point) : lo_(point), hi_(point) {}

  Mbr(Vec lo, Vec hi);

  /// An "empty" MBR of the given dimension that any Expand() will overwrite.
  static Mbr Empty(int dim);

  bool IsEmpty() const;

  int dim() const { return static_cast<int>(lo_.size()); }
  const Vec& lo() const { return lo_; }
  const Vec& hi() const { return hi_; }

  /// Grows the box to cover `point` / `other`.
  void Expand(const Vec& point);
  void Expand(const Mbr& other);

  bool Contains(const Vec& point) const;
  bool Intersects(const Mbr& other) const;

  /// Hyper-volume (product of extents). 0 for empty.
  double Area() const;

  /// Sum of edge lengths (the R*-tree "margin").
  double Margin() const;

  /// Area of the intersection with `other`.
  double OverlapArea(const Mbr& other) const;

  /// Area increase required to also cover `point`.
  double Enlargement(const Vec& point) const;

  /// Minimum squared Euclidean distance from `point` to the box (0 inside).
  double MinDistanceSquared(const Vec& point) const;

  /// Classifies the box against `plane` by the range of normal.q - offset
  /// over the box (computed from the interval extremes, no corner
  /// enumeration).
  PlaneRelation Classify(const Hyperplane& plane) const;

 private:
  Vec lo_;
  Vec hi_;
};

}  // namespace iq

#endif  // IQ_GEOM_MBR_H_
