// Leaf and unary operators: sequential scan, filter, projection, COUNT(*).
//
// SeqScan and Filter implement the batch interface natively (column-to-slot
// copies and in-place compaction). CountAgg asks its child for
// Operator::Count, so a hash or index-nested-loop join under COUNT(*) sums
// its matches instead of emitting them; GroupCount drains its child
// batch-at-a-time.

#ifndef JOINEST_EXECUTOR_SCAN_OPS_H_
#define JOINEST_EXECUTOR_SCAN_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "executor/kernels.h"
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

// Scans all rows of a base table. Output layout: ColumnRef{table_index, c}
// for every column c. The batch path fills column-wise through the kernel
// fill (the column types are schema-proven, so the per-cell variant
// dispatch of CopyRowInto is unnecessary).
class SeqScanOperator : public Operator {
 public:
  // `table` must outlive the operator.
  SeqScanOperator(const Table& table, int table_index);

  std::string name() const override { return "SeqScan"; }

  bool specialized() const override { return true; }

 protected:
  void OpenImpl() override;
  bool NextImpl(Row& row) override;
  bool NextBatchImpl(RowBatch& batch) override;
  void CloseImpl() override;

 private:
  const Table& table_;
  int64_t cursor_ = 0;
  std::vector<Row*> slots_;  // Kernel-fill scratch, reused per batch.
};

// Scans an explicit sorted list of row ids of a base table — the scan the
// predicate-transfer reducer swaps in for a SeqScan once it has narrowed a
// table to the rows that can survive the semi-joins. Output layout matches
// SeqScanOperator's, so the operators above are oblivious to the swap.
class SelectionScanOperator : public Operator {
 public:
  // `table` must outlive the operator; `row_ids` must be sorted and within
  // [0, table.num_rows()).
  SelectionScanOperator(const Table& table, int table_index,
                        std::shared_ptr<const std::vector<int64_t>> row_ids);

  std::string name() const override { return "SelectionScan"; }

 protected:
  void OpenImpl() override;
  bool NextImpl(Row& row) override;
  bool NextBatchImpl(RowBatch& batch) override;
  void CloseImpl() override;

 private:
  const Table& table_;
  std::shared_ptr<const std::vector<int64_t>> row_ids_;
  size_t cursor_ = 0;
};

// Filters child rows by a conjunction of local predicates (kLocalConst or
// kLocalColCol); all referenced columns must be present in the child layout.
class FilterOperator : public Operator {
 public:
  FilterOperator(std::unique_ptr<Operator> child,
                 std::vector<Predicate> predicates);

  std::string name() const override { return "Filter"; }

  const Operator& child() const { return *child_; }

  // Lowers the predicate list against the child layout's column types:
  // predicates whose operand types fit a typed kernel run column-at-a-time
  // through EvalCompiledPredicates; any remainder stays on the generic row
  // path (until then, all of them). The tuple path (NextImpl) is left
  // generic on purpose — it is the parity oracle the batch kernels are
  // tested against. Called once at CompilePlan time.
  void Specialize(const std::vector<TypeKind>& child_types);

  bool specialized() const override { return specialized_; }

 protected:
  void OpenImpl() override;
  bool NextImpl(Row& row) override;
  bool NextBatchImpl(RowBatch& batch) override;
  void CloseImpl() override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<Predicate> predicates_;
  // Resolved operand positions, parallel to predicates_: left position and
  // (for col-col) right position.
  std::vector<int> left_pos_;
  std::vector<int> right_pos_;
  std::vector<char> keep_;  // Batch-path selection vector, reused.
  // Batch-path state: the predicates Specialize compiled to kernels plus
  // the generic remainder with its resolved positions.
  bool specialized_ = false;
  std::vector<CompiledPredicate> compiled_;
  std::vector<Predicate> generic_predicates_;
  std::vector<int> generic_left_pos_;
  std::vector<int> generic_right_pos_;
};

// Projects child rows onto a subset of columns.
class ProjectOperator : public Operator {
 public:
  ProjectOperator(std::unique_ptr<Operator> child,
                  std::vector<ColumnRef> columns);

  std::string name() const override { return "Project"; }

 protected:
  void OpenImpl() override;
  bool NextImpl(Row& row) override;
  void CloseImpl() override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<int> positions_;
  // True when some child position is projected more than once (e.g.
  // SELECT S.a, S.a); the move fast path would leave later occurrences
  // reading a moved-from Value.
  bool has_duplicate_positions_ = false;
};

// Counts the child (Operator::Count) and emits one row holding COUNT(*).
class CountAggOperator : public Operator {
 public:
  explicit CountAggOperator(std::unique_ptr<Operator> child);

  std::string name() const override { return "CountAgg"; }

 protected:
  void OpenImpl() override;
  bool NextImpl(Row& row) override;
  void CloseImpl() override;

 private:
  std::unique_ptr<Operator> child_;
  bool done_ = false;
};

// Hash aggregation: GROUP BY <columns> with COUNT(*). Consumes the child on
// the first Next, then emits one row per group — the group key values
// followed by the group's count. Output order is unspecified.
class GroupCountOperator : public Operator {
 public:
  GroupCountOperator(std::unique_ptr<Operator> child,
                     std::vector<ColumnRef> group_columns);

  std::string name() const override { return "GroupCount"; }

 protected:
  void OpenImpl() override;
  bool NextImpl(Row& row) override;
  void CloseImpl() override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<int> positions_;
  RowBatch scratch_;
  bool aggregated_ = false;
  std::vector<Row> results_;
  size_t cursor_ = 0;
};

}  // namespace joinest

#endif  // JOINEST_EXECUTOR_SCAN_OPS_H_
