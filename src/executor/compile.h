// Compilation of physical plans into operator trees.

#ifndef JOINEST_EXECUTOR_COMPILE_H_
#define JOINEST_EXECUTOR_COMPILE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "executor/operator.h"
#include "executor/plan.h"
#include "executor/scan_ops.h"
#include "query/query_spec.h"
#include "storage/catalog.h"

namespace joinest {

// The operator that produces a plan node's output. For a scan node with
// pushed-down filters this is the FilterOperator on top of the SeqScan,
// so `op->rows_produced()` is directly comparable with the node's
// `estimated_rows` — what EXPLAIN ANALYZE's estimated-vs-actual columns
// need.
struct PlanNodeOperator {
  const PlanNode* node = nullptr;
  Operator* op = nullptr;
};

// Compiles `plan` into an operator tree over the catalog's tables; each
// operator takes its column types from the table schemas. If `registry` is
// non-null, every created operator is appended (pre-order) so the caller
// can report per-operator row counts after execution. If
// `node_roots` is non-null, the root operator of every plan node is
// appended (look nodes up by pointer; an index-nested-loop join's inner
// scan node is absorbed into the join operator and gets no entry). The
// catalog must outlive the returned operator.
//
// Constraints checked: an index-nested-loop join's right child must be a
// scan node (the index is built over that base table).
//
// If `selections` is non-null, a scan node whose table has a row-id
// selection compiles to a SeqScanOperator over just those rows (predicate
// transfer's pre-filtered path; it reports itself as SelectionScan). An
// index-nested-loop join's absorbed inner scan ignores selections — the
// index probes by key, so unselected rows cost nothing there.
StatusOr<std::unique_ptr<Operator>> CompilePlan(
    const Catalog& catalog, const QuerySpec& spec, const PlanNode& plan,
    std::vector<Operator*>* registry = nullptr,
    std::vector<PlanNodeOperator>* node_roots = nullptr,
    const ScanSelections* selections = nullptr);

}  // namespace joinest

#endif  // JOINEST_EXECUTOR_COMPILE_H_
