// Column-major batches of typed cells for the executor.
//
// A RowBatch holds one cell vector per position of the producing
// operator's layout, each `capacity` cells long, and rows 0..size of every
// column are live. The producing operator's types() say how to read each
// column's cells (types/cell.h). Storage is allocated once per width and
// reused across refills, so the steady state allocates nothing, and an
// operator pays one virtual call and two clock reads per ~1024 rows.
//
// MaterializedRows is an operator's whole output in the same column-major
// form: the build side of a hash or block-nested-loop join, or a
// sort-merge join's input.

#ifndef JOINEST_EXECUTOR_BATCH_H_
#define JOINEST_EXECUTOR_BATCH_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "types/cell.h"

namespace joinest {

// Default number of rows per batch; fits comfortably in L2 for the narrow
// rows this repo's workloads use.
inline constexpr int kDefaultBatchRows = 1024;

class RowBatch {
 public:
  explicit RowBatch(int capacity = kDefaultBatchRows) : capacity_(capacity) {}

  int size() const { return size_; }
  int capacity() const { return capacity_; }
  int width() const { return width_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= capacity_; }

  // Gives the batch `width` columns; storage is kept when the width is
  // unchanged. Operator::NextBatch calls this with the producer's width.
  void SetWidth(int width) {
    if (width == width_) return;
    width_ = width;
    cells_.resize(static_cast<size_t>(width) * static_cast<size_t>(capacity_));
  }

  Cell* column(int pos) {
    JOINEST_DCHECK(pos >= 0 && pos < width_) << "column " << pos;
    return cells_.data() + static_cast<size_t>(pos) * capacity_;
  }
  const Cell* column(int pos) const {
    JOINEST_DCHECK(pos >= 0 && pos < width_) << "column " << pos;
    return cells_.data() + static_cast<size_t>(pos) * capacity_;
  }

  void set_size(int size) {
    JOINEST_DCHECK(size >= 0 && size <= capacity_) << "batch overflow";
    size_ = size;
  }

  // Logical reset; cell storage is retained for reuse.
  void Clear() { size_ = 0; }

  // Compacts every column to the rows for which keep[i] is true,
  // preserving order.
  void Keep(const std::vector<char>& keep) {
    for (int c = 0; c < width_; ++c) {
      Cell* cells = column(c);
      int out = 0;
      for (int i = 0; i < size_; ++i) {
        if (keep[static_cast<size_t>(i)]) cells[out++] = cells[i];
      }
    }
    int kept = 0;
    for (int i = 0; i < size_; ++i) kept += keep[static_cast<size_t>(i)];
    size_ = kept;
  }

 private:
  std::vector<Cell> cells_;
  int size_ = 0;
  int width_ = 0;
  int capacity_;
};

class MaterializedRows {
 public:
  void Reset(int width) {
    columns_.assign(static_cast<size_t>(width), {});
    size_ = 0;
  }

  // Appends the batch's live rows; the batch has this set's width.
  void Append(const RowBatch& batch) {
    JOINEST_DCHECK_EQ(batch.width(), width());
    for (int c = 0; c < width(); ++c) {
      const Cell* cells = batch.column(c);
      columns_[static_cast<size_t>(c)].insert(
          columns_[static_cast<size_t>(c)].end(), cells, cells + batch.size());
    }
    size_ += batch.size();
  }

  int width() const { return static_cast<int>(columns_.size()); }
  int64_t size() const { return size_; }
  const Cell* column(int pos) const {
    return columns_[static_cast<size_t>(pos)].data();
  }

 private:
  std::vector<std::vector<Cell>> columns_;
  int64_t size_ = 0;
};

}  // namespace joinest

#endif  // JOINEST_EXECUTOR_BATCH_H_
