#ifndef IQ_CORE_FUNCTION_VIEW_H_
#define IQ_CORE_FUNCTION_VIEW_H_

#include <memory>
#include <vector>

#include "core/dataset.h"
#include "expr/linearize.h"
#include "geom/vec.h"

namespace iq {

/// The paper's central reinterpretation (§3.2): each object p becomes a
/// function f_p of the query weights. After variable substitution every
/// supported utility is linear in the (augmented) weights, so f_p is fully
/// described by its coefficient vector c_p = form.Coefficients(p).
///
/// FunctionView materializes the n x T coefficient matrix once and keeps it
/// in sync with dataset mutations (improvements, additions, removals). The
/// rows are CowChunks, so a rebinding copy shares them chunk by chunk.
class FunctionView {
 public:
  /// `dataset` must outlive the view.
  FunctionView(const Dataset* dataset, LinearForm form);

  /// Rebinding copy: shares `other`'s form and coefficient chunks but
  /// points at `dataset` (a copy of the original dataset). The epoch-snapshot
  /// layer (DESIGN.md §12) uses this to give each published epoch a view
  /// bound to that epoch's own dataset clone.
  FunctionView(const FunctionView& other, const Dataset* dataset)
      : dataset_(dataset),
        form_(other.form_),
        is_identity_(other.is_identity_),
        coeffs_(other.coeffs_) {}

  const Dataset& dataset() const { return *dataset_; }
  const LinearForm& form() const { return form_; }

  /// Number of augmented weight slots T.
  int num_slots() const { return form_.num_slots(); }

  /// Coefficient vector of object `id` (rows of tombstoned objects are
  /// stale; callers filter by dataset().is_active()).
  const Vec& coeffs(int id) const { return coeffs_[static_cast<size_t>(id)]; }

  /// All coefficient rows (aligned with object ids, tombstones included).
  const CowChunks<Vec>& rows() const { return coeffs_; }

  /// Coefficients of an arbitrary attribute point (e.g. an improved object).
  Vec CoefficientsFor(const Vec& attrs) const {
    return form_.Coefficients(attrs);
  }

  /// Score of object `id` under *augmented* weights (bias slot included).
  double Score(int id, const Vec& aug_weights) const {
    return Dot(coeffs_[static_cast<size_t>(id)], aug_weights);
  }

  /// True when the form is the identity over the attributes (plain linear
  /// utility) — enables the closed-form candidate solvers.
  bool IsIdentityForm() const { return is_identity_; }

  /// Re-derives the coefficient row after the object's attributes changed.
  void RefreshRow(int id);

  /// Appends a row for a newly added object. Pre: id == previous size().
  void AppendRow(int id);

  size_t MemoryBytes() const;

 private:
  const Dataset* dataset_;
  LinearForm form_;
  bool is_identity_;
  CowChunks<Vec> coeffs_;
};

}  // namespace iq

#endif  // IQ_CORE_FUNCTION_VIEW_H_
