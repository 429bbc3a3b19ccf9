#ifndef IQ_UTIL_COW_CHUNKS_H_
#define IQ_UTIL_COW_CHUNKS_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace iq {

/// Rows per CowChunks chunk. A constant, not an option: ScoreKernel packs
/// one block per chunk of ids, so the two layouts line up (DESIGN.md §13).
inline constexpr size_t kCowChunkRows = 256;

/// A row table that epochs share chunk by chunk (DESIGN.md §12). Rows live
/// in fixed kCowChunkRows-row chunks held by shared_ptr: copying the table
/// copies about size()/256 pointers, and a write clones only the chunk it
/// touches.
///
/// Ownership (the SubdomainIndex::MutableCell discipline): only the
/// serialized writer calls Mutable() and push_back(), and only on a table
/// no reader can reach yet. Mutable(i) clones row i's chunk when
/// use_count() > 1, so a published table keeps its frozen copy. A reader
/// can drop a retired table's reference to a chunk (the count falls) but
/// never raise it — raising takes a table that already shares the chunk —
/// so a count of 1 proves exclusive ownership.
template <typename T>
class CowChunks {
 public:
  CowChunks() = default;
  explicit CowChunks(std::vector<T> rows) {
    for (T& row : rows) push_back(std::move(row));
  }

  size_t size() const { return size_; }

  const T& operator[](size_t i) const {
    return (*chunks_[i / kCowChunkRows])[i % kCowChunkRows];
  }

  /// Calls fn(i, row) for every row in ascending i, chunk by chunk: a whole
  /// table scan without operator[]'s per-row chunk lookup.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    size_t i = 0;
    for (const std::shared_ptr<Chunk>& chunk : chunks_) {
      for (const T& row : *chunk) fn(i++, row);
    }
  }

  /// Row i for writing; clones its chunk first while another table shares
  /// it.
  T& Mutable(size_t i) {
    return MutableChunk(i / kCowChunkRows)[i % kCowChunkRows];
  }

  void push_back(T row) {
    if (size_ % kCowChunkRows == 0) chunks_.push_back(NewChunk());
    MutableChunk(chunks_.size() - 1).push_back(std::move(row));
    ++size_;
  }

 private:
  using Chunk = std::vector<T>;

  /// Full capacity up front, so appends never reallocate a chunk.
  static std::shared_ptr<Chunk> NewChunk() {
    auto chunk = std::make_shared<Chunk>();
    chunk->reserve(kCowChunkRows);
    return chunk;
  }

  Chunk& MutableChunk(size_t c) {
    std::shared_ptr<Chunk>& chunk = chunks_[c];
    if (chunk.use_count() > 1) {
      std::shared_ptr<Chunk> copy = NewChunk();
      copy->assign(chunk->begin(), chunk->end());
      chunk = std::move(copy);
    }
    return *chunk;
  }

  std::vector<std::shared_ptr<Chunk>> chunks_;
  size_t size_ = 0;
};

}  // namespace iq

#endif  // IQ_UTIL_COW_CHUNKS_H_
