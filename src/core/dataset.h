#ifndef IQ_CORE_DATASET_H_
#define IQ_CORE_DATASET_H_

#include <string>
#include <vector>

#include "geom/vec.h"
#include "util/cow_chunks.h"
#include "util/csv.h"
#include "util/status.h"

namespace iq {

/// The object set D: n points in d-dimensional attribute space. Object ids
/// are stable indices; removal tombstones a slot (the update protocol of
/// §4.3 needs ids to survive object removal). Rows are CowChunks: a copy
/// shares every chunk, and a write clones the one chunk it touches.
class Dataset {
 public:
  explicit Dataset(int dim) : dim_(dim) {}

  /// Validates that every row has `dim` finite values.
  static Result<Dataset> FromRows(int dim, std::vector<Vec> rows);

  /// Builds a dataset from the named numeric columns of a CSV table.
  static Result<Dataset> FromCsv(const CsvTable& table,
                                 const std::vector<std::string>& columns);

  int dim() const { return dim_; }
  /// Total slots, including tombstoned ones.
  int size() const { return static_cast<int>(rows_.size()); }
  int num_active() const { return num_active_; }

  const Vec& attrs(int id) const { return rows_[static_cast<size_t>(id)]; }
  bool is_active(int id) const { return active_[static_cast<size_t>(id)]; }
  /// One flag per slot, true while the object is active: the mask every
  /// ranking and top-k scan takes.
  const std::vector<bool>& active_mask() const { return active_; }

  /// Appends an object; returns its id.
  int Add(Vec attrs);

  /// Tombstones an object. Error if already removed or out of range.
  Status Remove(int id);

  /// Overwrites an object's attributes (applying an improvement strategy
  /// permanently). Error when inactive or dimension mismatch.
  Status SetAttrs(int id, Vec attrs);

  /// Same, but allows writing to a tombstoned slot (used by the engine's
  /// remove-modify-reactivate update protocol).
  Status SetAttrsIncludingInactive(int id, Vec attrs);

  /// Un-tombstones a slot. Error when already active or out of range.
  Status Reactivate(int id);

  /// Min-max normalizes every attribute of the active objects to [0, 1]
  /// (the paper normalizes the real-world datasets this way). Constant
  /// columns map to 0.
  void NormalizeToUnit();

  /// Active rows only, as a CSV with columns x1..xd plus the id.
  CsvTable ToCsv() const;

 private:
  int dim_;
  int num_active_ = 0;
  CowChunks<Vec> rows_;
  std::vector<bool> active_;
};

}  // namespace iq

#endif  // IQ_CORE_DATASET_H_
