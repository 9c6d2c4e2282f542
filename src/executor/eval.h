// Scalar and row-level predicate evaluation.

#ifndef JOINEST_EXECUTOR_EVAL_H_
#define JOINEST_EXECUTOR_EVAL_H_

#include <vector>

#include "executor/batch.h"
#include "query/predicate.h"
#include "stats/histogram.h"
#include "types/value.h"

namespace joinest {

// Evaluates `left op right`.
bool EvalCompare(const Value& left, CompareOp op, const Value& right);

// Evaluates a conjunction of local predicates over one row, with operand
// positions already resolved against the row's layout (left_pos / right_pos
// parallel to predicates; right_pos is -1 for column-vs-constant). The
// filter's generic remainder: the predicates no typed kernel accepted.
bool EvalPredicatesRow(const Row& row, const std::vector<Predicate>& predicates,
                       const std::vector<int>& left_pos,
                       const std::vector<int>& right_pos);

}  // namespace joinest

#endif  // JOINEST_EXECUTOR_EVAL_H_
