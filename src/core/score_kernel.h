#ifndef IQ_CORE_SCORE_KERNEL_H_
#define IQ_CORE_SCORE_KERNEL_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "geom/vec.h"
#include "util/cow_chunks.h"

namespace iq {

/// Structure-of-arrays batch scoring kernel (DESIGN.md §13). The row-major
/// layouts the library naturally holds — FunctionView's coefficient rows,
/// SubdomainIndex's per-query augmented weights — cost one pointer chase per
/// row in the hot scoring loops (f_p(q) dot products in ESE evaluation,
/// top-κ signature ranking). ScoreKernel mirrors the *active* rows of such a
/// table into contiguous per-slot (per-dimension) columns, so batch scoring
/// becomes plain indexed tight loops the compiler can vectorize on its own
/// (explicit vectorization pragmas measured no steadier gain; DESIGN.md
/// §13.2).
///
/// Layout: one slot-major Block per kCowChunkRows-id chunk of the row table
/// (the CowChunks chunk span), holding that chunk's active rows in ascending
/// id. The dense order — block by block — is therefore ascending row id,
/// the scan order of the scalar reference loops.
///
/// FP-equality contract (verified by tests/kernel_equiv_test.cc): every
/// kernel accumulates each row's score in ascending slot order — exactly
/// the evaluation order of the scalar reference Dot(row, w) — so kernel
/// scores are BIT-IDENTICAL to the scalar path, not merely close. No
/// horizontal-SIMD reduction or accumulator splitting is permitted here:
/// downstream equality is defined by score *comparisons* (HitByThreshold,
/// the (score, id) signature order), and those comparisons only stay
/// stable across code paths because the float sums themselves never
/// reassociate. Vectorization happens across rows (independent sums), never
/// within one row's sum.
///
/// Lifecycle: blocks are immutable once packed and shared by shared_ptr, so
/// copying a kernel copies one pointer per block. Owners keep a kernel in
/// step with its rows by re-packing the one block a mutation touches
/// (Repack); SubdomainIndex's §4.3 hooks do so, and its
/// RebuildScoreKernels() from-scratch Build is the oracle a patched kernel
/// equals byte for byte. Concurrency: readers only read blocks; any number
/// of threads may score against a kernel no writer is patching.
class ScoreKernel {
 public:
  /// One chunk's active rows: ids ascending, values slot-major
  /// (data[s * ids.size() + d] = rows[ids[d]][s]).
  struct Block {
    std::vector<int> ids;
    std::vector<double> data;
  };

  ScoreKernel() = default;

  /// Packs the active rows of `rows` (row i included iff `active` is null
  /// or (*active)[i]; rows shorter than num_slots are skipped as inactive
  /// placeholders) into one block per kCowChunkRows ids. `Rows` is
  /// std::vector<Vec> or CowChunks<Vec>.
  template <typename Rows>
  static ScoreKernel Build(const Rows& rows, const std::vector<bool>* active,
                           int num_slots) {
    ScoreKernel k;
    k.num_slots_ = num_slots;
    for (size_t base = 0; base < rows.size(); base += kCowChunkRows) {
      k.Repack(static_cast<int>(base), rows, [active](size_t i) {
        return active == nullptr || (*active)[i];
      });
    }
    return k;
  }

  /// Re-packs the block holding row `id` after that row or its active
  /// state changed, first appending empty blocks up to it (an appended
  /// row). `is_active(i)` is the membership test Build's mask expresses.
  /// The result equals Build over the same rows and membership.
  template <typename Rows, typename IsActive>
  void Repack(int id, const Rows& rows, IsActive is_active) {
    const size_t b = static_cast<size_t>(id) / kCowChunkRows;
    while (blocks_.size() <= b) blocks_.push_back(std::make_shared<Block>());
    num_rows_ -= static_cast<int>(blocks_[b]->ids.size());
    blocks_[b] = PackBlock(rows, b * kCowChunkRows, is_active);
    num_rows_ += static_cast<int>(blocks_[b]->ids.size());
  }

  /// Dense (packed, active-only) row count.
  int num_rows() const { return num_rows_; }
  int num_slots() const { return num_slots_; }
  bool empty() const { return num_rows_ == 0; }
  const std::vector<std::shared_ptr<const Block>>& blocks() const {
    return blocks_;
  }
  /// Original row ids in dense order (ascending).
  std::vector<int> ids() const;

  /// Scores every dense row under `w`: (*out)[d] == Dot(rows[ids()[d]], w)
  /// bit-for-bit. `out` is resized to num_rows().
  void ScoreAll(const Vec& w, std::vector<double>* out) const;

  /// The ordered top-κ row ids under each of a tile of weight vectors:
  /// result[t] is the id sequence of TopKScan(rows, active, *ws[t], kappa),
  /// ascending (score, id). One pass over the blocks serves the whole tile:
  /// each block is scored once per query while it sits in L1, into a
  /// κ-entry (score, id) heap per query; a block none of whose rows beats a
  /// query's current κ-th score costs that query one compare pass and no
  /// heap work. No n-sized buffer is allocated. A single query is a
  /// one-element tile.
  std::vector<std::vector<int>> TopKappaSignatures(
      const std::vector<const Vec*>& ws, int kappa) const;

  /// Number of dense rows whose score under `w` beats the row's threshold:
  /// count of HitByThreshold(score(d), thresholds[d]). `thresholds` is
  /// indexed densely (aligned with ids()); NaN thresholds never hit, like
  /// the scalar path. Runs block by block so the fused score+compare loop
  /// needs no allocation.
  int CountHits(const Vec& w, const std::vector<double>& thresholds) const;

  /// Bytes of the packed contents and block headers. Depends only on what
  /// the kernel holds, so a patched kernel and a rebuild of the same rows
  /// report the same figure.
  size_t MemoryBytes() const;

 private:
  /// Block of rows [base, base + kCowChunkRows).
  template <typename Rows, typename IsActive>
  std::shared_ptr<const Block> PackBlock(const Rows& rows, size_t base,
                                         IsActive is_active) const {
    auto block = std::make_shared<Block>();
    const size_t end = std::min(rows.size(), base + kCowChunkRows);
    for (size_t i = base; i < end; ++i) {
      if (is_active(i) && rows[i].size() >= static_cast<size_t>(num_slots_)) {
        block->ids.push_back(static_cast<int>(i));
      }
    }
    const size_t len = block->ids.size();
    block->data.resize(static_cast<size_t>(num_slots_) * len);
    for (size_t s = 0; s < static_cast<size_t>(num_slots_); ++s) {
      for (size_t d = 0; d < len; ++d) {
        block->data[s * len + d] =
            rows[static_cast<size_t>(block->ids[d])][s];
      }
    }
    return block;
  }

  std::vector<std::shared_ptr<const Block>> blocks_;
  int num_rows_ = 0;
  int num_slots_ = 0;
};

}  // namespace iq

#endif  // IQ_CORE_SCORE_KERNEL_H_
