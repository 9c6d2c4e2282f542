// Type-specialized batch kernels for the executor's inner loops.
//
// The generic execution path dispatches through Value (a variant) per row
// per operand: every predicate evaluation and every probe re-discovers the
// operand types it already knew at plan time, and pays the contract checks
// hoisted here. Tables are columnar with schema-enforced single-typed
// columns, so the physical type of every operand is provable ONCE per query
// shape — at CompilePlan time — from the table schemas. This module holds
// that proof:
//
//  * LayoutTypes resolves an operator layout to per-position TypeKinds;
//  * CompilePredicates lowers a filter's predicate list to CompiledPredicate
//    records, each tagged with the kernel that matches its operand types
//    (int64 fast path first, double — including int64 widened to double for
//    mixed numeric comparisons, exactly Value::ToNumeric's semantics — and
//    string);
//  * EvalCompiledPredicates runs the per-type inner loops over a batch.
//
// CompilePlan always specializes. The generic Value loops remain only as
// the fallback for shapes the kernels decline (mixed-type keys,
// string-vs-numeric). tests/parity_test.cc checks the kernels bit for bit
// against a brute-force enumeration over the base tables.
//
// Kernel selections are counted in executor_kernel_selected_total{type=}.

#ifndef JOINEST_EXECUTOR_KERNELS_H_
#define JOINEST_EXECUTOR_KERNELS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "executor/batch.h"
#include "query/predicate.h"
#include "query/query_spec.h"
#include "storage/catalog.h"
#include "types/value.h"

namespace joinest {

// Physical inner loop chosen for one compiled predicate.
enum class FilterKernel {
  kGeneric = 0,  // Value-based EvalCompare (fallback / oracle).
  kInt64,        // Both operands int64: native integer compare.
  kDouble,       // Both double, or mixed numeric widened to double.
  kString,       // Both strings.
};

const char* FilterKernelName(FilterKernel kernel);

// One local predicate lowered against the child layout's column types.
// Operand positions mirror FilterOperator's resolved left_pos/right_pos;
// right_pos < 0 means the right operand is the compiled constant.
struct CompiledPredicate {
  FilterKernel kernel = FilterKernel::kGeneric;
  CompareOp op = CompareOp::kEq;
  int left_pos = -1;
  int right_pos = -1;
  // kDouble kernel: whether each operand is physically a double (read
  // directly) or an int64 (widened — the ToNumeric semantics).
  bool left_is_double = false;
  bool right_is_double = false;
  int64_t const_i64 = 0;
  double const_f64 = 0;
  std::string const_str;
};

// Lowers `predicates` (with operand positions already resolved, -1 right
// position meaning constant) against per-position column `types`. Always
// fills `out` (size == predicates.size()); predicates whose operand types
// don't fit a specialized kernel come back kGeneric. Returns the number of
// non-generic kernels chosen.
int CompilePredicates(const std::vector<Predicate>& predicates,
                      const std::vector<int>& left_pos,
                      const std::vector<int>& right_pos,
                      const std::vector<TypeKind>& types,
                      std::vector<CompiledPredicate>* out);

// keep[i] &= pred(batch.row(i)) for every compiled predicate, over rows
// where keep[i] is still set. `keep` must be sized batch.size() and
// initialised to 1. Bit-identical to evaluating EvalPredicatesRow per row:
// the conjunction short-circuits per column instead of per row, but the
// predicates are pure, so the surviving set is the same.
void EvalCompiledPredicates(const RowBatch& batch,
                            const std::vector<CompiledPredicate>& predicates,
                            std::vector<char>& keep);

// Column-wise batch fill for scans: claims `count` slots from `batch` and
// fills them one source column at a time — int64 and double columns store
// natively through the unchecked accessors (one tight loop per column, hot
// source column resident in cache), string columns copy-assign. Slot i
// holds table row `row_ids[begin + i]` when `row_ids` is non-null (a sorted
// row-id selection), else row `begin + i`. `slots` is caller-owned scratch
// for the claimed slot pointers, reused across batches. Bit-identical to
// Table::CopyRowInto per row.
void FillBatchColumnwise(const Table& table, const int64_t* row_ids,
                         int64_t begin, int64_t count, RowBatch& batch,
                         std::vector<Row*>& slots);

// Per-position column types of an operator layout. Every ColumnRef must
// point at a base-table column (true for all operators below the
// aggregation: scans, filters and joins preserve base-column identity).
std::vector<TypeKind> LayoutTypes(const Catalog& catalog,
                                  const QuerySpec& spec,
                                  const std::vector<ColumnRef>& layout);

// Records one kernel selection in
// executor_kernel_selected_total{type=`type`}. Called at Specialize time —
// once per operator per compile, never per row.
void CountKernelSelection(const char* type);

}  // namespace joinest

#endif  // JOINEST_EXECUTOR_KERNELS_H_
