// Leaf and unary operators: sequential scan, filter, projection, COUNT(*).
//
// Every operator here fills batches natively: the scan copies cells column
// by column, the filter compacts its child's batch in place, Project copies
// columns out of a child batch, and GroupCount aggregates its child batch
// by batch before emitting the groups. CountAgg asks its child for
// Operator::Count, so a hash or index-nested-loop join under COUNT(*) sums
// its matches instead of emitting them.

#ifndef JOINEST_EXECUTOR_SCAN_OPS_H_
#define JOINEST_EXECUTOR_SCAN_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "executor/eval.h"
#include "executor/operator.h"
#include "query/predicate.h"
#include "storage/table.h"

namespace joinest {

// Per-table row-id selections a caller (the predicate-transfer reducer)
// computed ahead of execution. A null (or missing) entry means "scan all
// rows"; a present entry is a sorted list of row ids the scan is restricted
// to. Entries are shared_ptrs so a selection can outlive the plan run that
// used it (cached PtResults, reports).
struct ScanSelections {
  std::vector<std::shared_ptr<const std::vector<int64_t>>> row_ids;

  const std::vector<int64_t>* ForTable(int table) const {
    if (table < 0 || table >= static_cast<int>(row_ids.size())) return nullptr;
    return row_ids[static_cast<size_t>(table)].get();
  }
  bool empty() const {
    for (const auto& ids : row_ids) {
      if (ids != nullptr) return false;
    }
    return true;
  }
};

// Scans a base table: all rows, or only an explicit sorted list of row ids
// — the scan the predicate-transfer reducer asks for once it has narrowed a
// table to the rows that can survive the semi-joins. Output layout:
// ColumnRef{table_index, c} for every column c, either way, so the
// operators above are oblivious to the selection. Batches fill one column
// at a time from the table's cell vectors.
class SeqScanOperator : public Operator {
 public:
  // `table` must outlive the operator. A non-null `row_ids` must be sorted
  // and within [0, table.num_rows()).
  SeqScanOperator(const Table& table, int table_index,
                  std::shared_ptr<const std::vector<int64_t>> row_ids =
                      nullptr);

  std::string name() const override {
    return row_ids_ != nullptr ? "SelectionScan" : "SeqScan";
  }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch& batch) override;
  void CloseImpl() override;

 private:
  const Table& table_;
  std::shared_ptr<const std::vector<int64_t>> row_ids_;  // Null: all rows.
  int64_t cursor_ = 0;
};

// Filters child rows by a conjunction of local predicates (kLocalConst or
// kLocalColCol); all referenced columns must be present in the child layout.
// Each predicate runs column-at-a-time over the child's batch, and the
// passing rows are compacted in place.
class FilterOperator : public Operator {
 public:
  FilterOperator(std::unique_ptr<Operator> child,
                 std::vector<Predicate> predicates);

  std::string name() const override { return "Filter"; }

  const Operator& child() const { return *child_; }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch& batch) override;
  void CloseImpl() override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<BoundPredicate> predicates_;
  std::vector<char> keep_;  // Selection vector, reused per batch.
};

// Projects child rows onto a subset of columns.
class ProjectOperator : public Operator {
 public:
  ProjectOperator(std::unique_ptr<Operator> child,
                  std::vector<ColumnRef> columns);

  std::string name() const override { return "Project"; }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch& batch) override;
  void CloseImpl() override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<int> positions_;
  // The child's current batch and the next of its rows to project; a
  // caller's batch smaller than the child's resumes mid-input.
  RowBatch input_;
  int input_pos_ = 0;
};

// Counts the child (Operator::Count) and emits one row holding COUNT(*).
class CountAggOperator : public Operator {
 public:
  explicit CountAggOperator(std::unique_ptr<Operator> child);

  std::string name() const override { return "CountAgg"; }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch& batch) override;
  void CloseImpl() override;

 private:
  std::unique_ptr<Operator> child_;
  bool done_ = false;
};

// Hash aggregation: GROUP BY <columns> with COUNT(*). Consumes the child on
// the first NextBatch, encoding each row's group cells by the key rule,
// then emits one row per group — the group key cells followed by the
// group's count — a batch at a time. Output order is unspecified.
class GroupCountOperator : public Operator {
 public:
  GroupCountOperator(std::unique_ptr<Operator> child,
                     std::vector<ColumnRef> group_columns);

  std::string name() const override { return "GroupCount"; }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch& batch) override;
  void CloseImpl() override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<int> positions_;
  std::vector<KeyEncoding> encodings_;  // Per group column, against itself.
  RowBatch scratch_;
  bool aggregated_ = false;
  // Column-major results: the group cells, then the counts.
  std::vector<std::vector<Cell>> results_;
  int64_t cursor_ = 0;
};

}  // namespace joinest

#endif  // JOINEST_EXECUTOR_SCAN_OPS_H_
