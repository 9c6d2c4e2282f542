// Batch-at-a-time row container for the vectorized execution path.
//
// A RowBatch owns a fixed pool of Row slots that are reused across refills:
// after the first few batches the steady state allocates nothing, and an
// operator pays one virtual call and two clock reads per ~1024 rows instead
// of per row. Rows are row-major: a slot is a Row in the operator's layout,
// and producers overwrite a claimed slot in place.

#ifndef JOINEST_EXECUTOR_BATCH_H_
#define JOINEST_EXECUTOR_BATCH_H_

#include <vector>

#include "common/check.h"
#include "types/value.h"

namespace joinest {

using Row = std::vector<Value>;

// Default number of rows per batch; fits comfortably in L2 for the narrow
// rows this repo's workloads use.
inline constexpr int kDefaultBatchRows = 1024;

class RowBatch {
 public:
  explicit RowBatch(int capacity = kDefaultBatchRows)
      : rows_(capacity), capacity_(capacity) {}

  int size() const { return size_; }
  int capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= capacity_; }

  Row& row(int i) {
    JOINEST_DCHECK(i >= 0 && i < size_) << "row index " << i << " of "
                                        << size_;
    return rows_[i];
  }
  const Row& row(int i) const {
    JOINEST_DCHECK(i >= 0 && i < size_) << "row index " << i << " of "
                                        << size_;
    return rows_[i];
  }

  // Exposes the next slot and grows the batch by one. The slot keeps its
  // previous capacity, so callers overwrite in place.
  Row& AppendSlot() {
    JOINEST_DCHECK_LT(size_, capacity_) << "batch overflow";
    return rows_[size_++];
  }

  // Logical reset; row storage is retained for reuse.
  void Clear() { size_ = 0; }

  // Compacts the batch to the rows for which keep[i] is true, preserving
  // order. Dropped rows' storage stays pooled.
  void Keep(const std::vector<char>& keep) {
    int out = 0;
    for (int i = 0; i < size_; ++i) {
      if (!keep[i]) continue;
      if (out != i) rows_[out].swap(rows_[i]);
      ++out;
    }
    size_ = out;
  }

 private:
  std::vector<Row> rows_;
  int size_ = 0;
  int capacity_;
};

}  // namespace joinest

#endif  // JOINEST_EXECUTOR_BATCH_H_
