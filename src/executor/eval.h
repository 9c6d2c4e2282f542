// Predicate evaluation, column-at-a-time over typed cells.

#ifndef JOINEST_EXECUTOR_EVAL_H_
#define JOINEST_EXECUTOR_EVAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/predicate.h"
#include "types/cell.h"
#include "types/value.h"

namespace joinest {

// A local predicate (column vs constant, or column vs column) bound to the
// positions and types of its operands. Comparisons are exact across int64
// and double; string equality compares dictionary codes, and string
// ordering reads the strings.
struct BoundPredicate {
  CompareOp op = CompareOp::kEq;
  int left_pos = -1;
  int right_pos = -1;  // -1: the right operand is the constant.
  TypeKind left_type = TypeKind::kInt64;
  TypeKind right_type = TypeKind::kInt64;
  // The constant as a cell of right_type; a string no table holds gets -1,
  // a code no cell has.
  Cell constant = 0;
  std::string constant_text;  // String constants, for ordering.
};

// Binds local predicates to the positions of `layout` and their `types`.
// CHECK-fails when an operand is missing from the layout or a string meets
// a number.
std::vector<BoundPredicate> BindPredicates(
    const std::vector<Predicate>& predicates,
    const std::vector<ColumnRef>& layout, const std::vector<TypeKind>& types);

// keep[i] &= predicate(row i) for rows [0, n), reading the left operand
// from `left` and the right from `right` (null for a constant).
void KeepWhere(const BoundPredicate& predicate, const Cell* left,
               const Cell* right, int64_t n, char* keep);

// keep[i] = 1 exactly when row i of `source` (anything with
// `const Cell* column(int pos)`) passes every predicate, for rows [0, n).
template <typename Source>
void EvaluatePredicates(const std::vector<BoundPredicate>& predicates,
                        const Source& source, int64_t n,
                        std::vector<char>& keep) {
  keep.assign(static_cast<size_t>(n), 1);
  for (const BoundPredicate& p : predicates) {
    KeepWhere(p, source.column(p.left_pos),
              p.right_pos >= 0 ? source.column(p.right_pos) : nullptr, n,
              keep.data());
  }
}

}  // namespace joinest

#endif  // JOINEST_EXECUTOR_EVAL_H_
