// Plan execution with timing and per-operator statistics.

#ifndef JOINEST_EXECUTOR_EXECUTE_H_
#define JOINEST_EXECUTOR_EXECUTE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "executor/operator.h"
#include "executor/plan.h"
#include "executor/scan_ops.h"
#include "query/query_spec.h"
#include "storage/catalog.h"

namespace joinest {

struct ExecutionResult {
  // Rows produced by the query root (1 for COUNT(*) queries).
  int64_t output_rows = 0;
  // The COUNT(*) value when the query aggregates; for non-aggregating
  // queries, equal to output_rows.
  int64_t count = 0;
  double seconds = 0;
  // Pre-order (operator name, rows produced, inclusive wall-clock) over the
  // compiled tree.
  std::vector<OperatorStats> operators;
  // Stats of each plan node's root operator (the one whose row count is
  // comparable with the node's estimated_rows). Points into the caller's
  // plan tree; EXPLAIN ANALYZE joins this against the estimates.
  struct PlanNodeStats {
    const PlanNode* node = nullptr;
    OperatorStats stats;
  };
  std::vector<PlanNodeStats> node_stats;
  // Of operators_total, how many ran a type-specialized batch kernel
  // (Operator::specialized()). Feeds the flight recorder's
  // kernel-vs-generic selection field.
  int64_t operators_total = 0;
  int64_t kernels_specialized = 0;
};

// Compiles and runs `plan`, topping it with the query's projection or
// COUNT(*). The root is driven batch-at-a-time; joins and scans stream,
// and nothing is retained beyond counts. Under a plain COUNT(*) the plan's
// top join counts its matches instead of emitting them
// (Operator::Count). A non-null `selections` restricts
// base-table scans to pre-computed row-id lists (the predicate-transfer
// path); since the lists may only omit rows that cannot join, results are
// bit-identical with and without them.
StatusOr<ExecutionResult> ExecutePlan(const Catalog& catalog,
                                      const QuerySpec& spec,
                                      const PlanNode& plan,
                                      const ScanSelections* selections =
                                          nullptr);

// Greedy connected join order starting from table 0 (a cartesian step is
// appended only when the join graph is disconnected) — the canonical safe
// plan's order.
std::vector<int> CanonicalJoinOrder(int num_tables,
                                    const std::vector<Predicate>& joins);

// The canonical safe plan: left-deep hash joins in CanonicalJoinOrder with
// local predicates pushed into the scans (nested loops only for a rare
// cartesian step). This is the plan whose COUNT(*) defines ground truth.
std::unique_ptr<PlanNode> CanonicalSafePlan(const QuerySpec& spec);

// Ground truth without an optimizer: the exact result count of the
// canonical safe plan (all predicates applied), computed without
// enumerating the join. Each equivalence class of join columns is a
// variable; the tables are peeled leaf-first into a join tree (GYO ear
// removal), and each table sends its parent weighted row counts per
// shared-key value, so the cost is one scan per table whatever the join
// size or order. A query with no join tree (a cycle through two or more
// classes) runs the canonical safe plan instead. OutOfRange when the count
// or a partial count exceeds int64. Used by tests and benches to compare
// estimates with true cardinalities.
StatusOr<int64_t> TrueResultSize(const Catalog& catalog,
                                 const QuerySpec& spec);

// Exact sizes of every composite along a left-deep join order: entry i is
// the true cardinality of joining order[0..i+1] with all applicable
// predicates (the quantity the paper's "correct answer is exactly 100"
// claims refer to). Executes order.size()-1 counting sub-queries.
StatusOr<std::vector<int64_t>> TruePrefixSizes(const Catalog& catalog,
                                               const QuerySpec& spec,
                                               const std::vector<int>& order);

}  // namespace joinest

#endif  // JOINEST_EXECUTOR_EXECUTE_H_
