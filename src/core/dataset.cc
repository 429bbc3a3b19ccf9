#include "core/dataset.h"

#include <limits>

#include "util/string_util.h"

namespace iq {

Result<Dataset> Dataset::FromRows(int dim, std::vector<Vec> rows) {
  if (dim <= 0) return Status::InvalidArgument("dimension must be positive");
  Dataset d(dim);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (static_cast<int>(rows[i].size()) != dim) {
      return Status::InvalidArgument(
          StrFormat("row %zu has %zu attributes, expected %d", i,
                    rows[i].size(), dim));
    }
    if (!AllFinite(rows[i])) {
      return Status::InvalidArgument(
          StrFormat("row %zu contains a non-finite value", i));
    }
    d.Add(std::move(rows[i]));
  }
  return d;
}

Result<Dataset> Dataset::FromCsv(const CsvTable& table,
                                 const std::vector<std::string>& columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("no attribute columns given");
  }
  std::vector<int> col_idx;
  for (const std::string& name : columns) {
    int idx = table.ColumnIndex(name);
    if (idx < 0) return Status::NotFound("column not found: " + name);
    col_idx.push_back(idx);
  }
  std::vector<Vec> rows;
  rows.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    Vec r;
    r.reserve(columns.size());
    for (int idx : col_idx) {
      IQ_ASSIGN_OR_RETURN(double v, ParseDouble(row[static_cast<size_t>(idx)]));
      r.push_back(v);
    }
    rows.push_back(std::move(r));
  }
  return FromRows(static_cast<int>(columns.size()), std::move(rows));
}

int Dataset::Add(Vec attrs) {
  rows_.push_back(std::move(attrs));
  active_.push_back(true);
  ++num_active_;
  return static_cast<int>(rows_.size()) - 1;
}

Status Dataset::Remove(int id) {
  if (id < 0 || id >= size()) {
    return Status::OutOfRange(StrFormat("object id %d out of range", id));
  }
  if (!active_[static_cast<size_t>(id)]) {
    return Status::FailedPrecondition(
        StrFormat("object %d already removed", id));
  }
  active_[static_cast<size_t>(id)] = false;
  --num_active_;
  return Status::Ok();
}

Status Dataset::SetAttrs(int id, Vec attrs) {
  if (id < 0 || id >= size() || !active_[static_cast<size_t>(id)]) {
    return Status::OutOfRange(StrFormat("object id %d not active", id));
  }
  if (static_cast<int>(attrs.size()) != dim_) {
    return Status::InvalidArgument("attribute dimension mismatch");
  }
  rows_.Mutable(static_cast<size_t>(id)) = std::move(attrs);
  return Status::Ok();
}

Status Dataset::SetAttrsIncludingInactive(int id, Vec attrs) {
  if (id < 0 || id >= size()) {
    return Status::OutOfRange(StrFormat("object id %d out of range", id));
  }
  if (static_cast<int>(attrs.size()) != dim_) {
    return Status::InvalidArgument("attribute dimension mismatch");
  }
  rows_.Mutable(static_cast<size_t>(id)) = std::move(attrs);
  return Status::Ok();
}

Status Dataset::Reactivate(int id) {
  if (id < 0 || id >= size()) {
    return Status::OutOfRange(StrFormat("object id %d out of range", id));
  }
  if (active_[static_cast<size_t>(id)]) {
    return Status::FailedPrecondition(StrFormat("object %d is active", id));
  }
  active_[static_cast<size_t>(id)] = true;
  ++num_active_;
  return Status::Ok();
}

void Dataset::NormalizeToUnit() {
  for (int j = 0; j < dim_; ++j) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (int i = 0; i < size(); ++i) {
      if (!is_active(i)) continue;
      lo = std::min(lo, rows_[static_cast<size_t>(i)][static_cast<size_t>(j)]);
      hi = std::max(hi, rows_[static_cast<size_t>(i)][static_cast<size_t>(j)]);
    }
    double span = hi - lo;
    for (int i = 0; i < size(); ++i) {
      auto& v = rows_.Mutable(static_cast<size_t>(i))[static_cast<size_t>(j)];
      v = span > 0 ? (v - lo) / span : 0.0;
    }
  }
}

CsvTable Dataset::ToCsv() const {
  CsvTable t;
  t.header.push_back("id");
  for (int j = 0; j < dim_; ++j) t.header.push_back(StrFormat("x%d", j + 1));
  for (int i = 0; i < size(); ++i) {
    if (!is_active(i)) continue;
    std::vector<std::string> row;
    row.push_back(StrFormat("%d", i));
    for (double v : rows_[static_cast<size_t>(i)]) {
      row.push_back(StrFormat("%.17g", v));
    }
    t.rows.push_back(std::move(row));
  }
  return t;
}

}  // namespace iq
