// Operator interface: Open/NextBatch/Count/Close over row batches.
//
// Rows flow between operators in column-major batches of 8-byte cells
// (executor/batch.h). Which query column each position holds is described
// by the operator's layout — a vector of ColumnRef in output order — and
// how to read its cells by the operator's types, parallel to the layout.
// Both are fixed at construction from the table schemas, and operators
// resolve the columns their predicates and keys touch to positions then.
//
// Callers drive one of two interfaces:
//  * NextBatch(RowBatch&)  — up to a batch of rows at a time. Every
//    operator implements it natively and pulls its children with NextBatch,
//    resuming mid-input (a probe's match list, an outer row's inner batch,
//    a sort-merge group) when the caller's batch fills.
//  * Count()               — the number of rows the operator would produce,
//    without producing them where it can. The default drains the batch
//    path; hash and index-nested-loop joins override it to sum their match
//    counts instead of building the joined rows (what COUNT(*) needs).
//
// The public entry points are non-virtual wrappers that feed
// rows_produced() (a counting operator credits the rows it would have
// emitted) and accumulate wall-clock into the operator — both
// inclusive (children's wrapper time counted, EXPLAIN ANALYZE style) and
// exclusive (self time, children subtracted via a per-thread parent chain).
// The batch wrapper additionally tracks batch counts and rows so fill
// rates are observable. Subclasses implement the *Impl hooks.

#ifndef JOINEST_EXECUTOR_OPERATOR_H_
#define JOINEST_EXECUTOR_OPERATOR_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "executor/batch.h"
#include "query/column_ref.h"
#include "types/cell.h"

namespace joinest {

// Position of `column` within `layout`, or -1.
int FindInLayout(const std::vector<ColumnRef>& layout, ColumnRef column);

class Operator {
 public:
  virtual ~Operator() = default;

  // Prepares for iteration. May be called again after Close (rescan).
  void Open();
  // Refills `batch` with up to batch.capacity() rows; returns false when
  // the batch comes back empty (input exhausted). Callers should stick to
  // one of NextBatch/Count per Open — both advance the same cursor.
  bool NextBatch(RowBatch& batch);
  // Exhausts the operator and returns how many rows it produced, crediting
  // them to rows_produced() exactly as a drain would.
  int64_t Count();
  void Close();

  const std::vector<ColumnRef>& layout() const { return layout_; }
  // The type of each output position's cells, parallel to layout().
  const std::vector<TypeKind>& types() const { return types_; }

  // Operator name, cumulative rows produced and cumulative wall-clock, for
  // EXPLAIN ANALYZE-style reporting.
  virtual std::string name() const = 0;
  int64_t rows_produced() const { return rows_produced_; }
  // Inclusive wall-clock: this operator's wrapper time, children included
  // (a parent drives its children inside its own NextBatchImpl).
  double seconds() const { return seconds_; }
  // Exclusive (self) wall-clock: inclusive time minus the wrapper time of
  // the children driven while this operator was on top. The self times of
  // an operator tree sum to the root's inclusive time.
  double self_seconds() const { return seconds_ - child_seconds_; }

  // Batch-path statistics: batches that returned rows (through NextBatch
  // or the default Count drain), and the rows they returned. fill =
  // batch_rows / (batches * capacity) is the vectorization fill rate. A
  // join that counts without emitting returns no batches.
  int64_t batches() const { return batches_; }
  int64_t batch_rows() const { return batch_rows_; }

 protected:
  virtual void OpenImpl() = 0;
  virtual bool NextBatchImpl(RowBatch& batch) = 0;
  // Default: drains NextBatchImpl, keeping the batch statistics.
  virtual int64_t CountImpl();
  virtual void CloseImpl() = 0;

  std::vector<ColumnRef> layout_;
  std::vector<TypeKind> types_;
  int64_t rows_produced_ = 0;
  double seconds_ = 0;
  double child_seconds_ = 0;
  int64_t batches_ = 0;
  int64_t batch_rows_ = 0;

 private:
  // RAII guard used by the wrappers: accumulates elapsed wall-clock into
  // seconds_, credits it to the parent operator's child_seconds_, and
  // maintains the per-thread parent chain.
  class TimerScope;
};

// Collects per-operator measurements for an operator tree (callers know the
// tree shape). `seconds` is inclusive wall-clock — a parent's time contains
// its children's; `self_seconds` is the operator's own share.
struct OperatorStats {
  std::string name;
  int64_t rows = 0;
  double seconds = 0;
  double self_seconds = 0;
  int64_t batches = 0;
  int64_t batch_rows = 0;
};

// Snapshot helper used by ExecutePlan and EXPLAIN ANALYZE.
OperatorStats SnapshotOperatorStats(const Operator& op);

}  // namespace joinest

#endif  // JOINEST_EXECUTOR_OPERATOR_H_
