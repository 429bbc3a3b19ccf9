#include "core/function_view.h"

#include "util/check.h"

namespace iq {
namespace {

bool FormIsIdentity(const LinearForm& form, int dim) {
  if (form.has_bias() || form.num_slots() != dim) return false;
  for (int j = 0; j < dim; ++j) {
    const AttrPoly& poly = form.slot(j);
    if (poly.size() != 1) return false;
    const Monomial& m = poly[0];
    if (m.coef != 1.0 || m.factors.size() != 1 || m.factors[0].first != j ||
        m.factors[0].second != 1) {
      return false;
    }
  }
  return true;
}

}  // namespace

FunctionView::FunctionView(const Dataset* dataset, LinearForm form)
    : dataset_(dataset),
      form_(std::move(form)),
      is_identity_(FormIsIdentity(form_, dataset->dim())) {
  for (int i = 0; i < dataset_->size(); ++i) {
    coeffs_.push_back(form_.Coefficients(dataset_->attrs(i)));
  }
}

void FunctionView::RefreshRow(int id) {
  IQ_CHECK(id >= 0 && id < static_cast<int>(coeffs_.size()));
  coeffs_.Mutable(static_cast<size_t>(id)) =
      form_.Coefficients(dataset_->attrs(id));
}

void FunctionView::AppendRow(int id) {
  IQ_CHECK(id == static_cast<int>(coeffs_.size()));
  coeffs_.push_back(form_.Coefficients(dataset_->attrs(id)));
}

size_t FunctionView::MemoryBytes() const {
  size_t bytes = sizeof(FunctionView) + coeffs_.size() * sizeof(Vec);
  for (size_t i = 0; i < coeffs_.size(); ++i) {
    bytes += coeffs_[i].size() * sizeof(double);
  }
  return bytes;
}

}  // namespace iq
