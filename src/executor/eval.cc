#include "executor/eval.h"

#include "common/logging.h"
#include "executor/operator.h"

namespace joinest {

bool EvalCompare(const Value& left, CompareOp op, const Value& right) {
  switch (op) {
    case CompareOp::kEq:
      return left == right;
    case CompareOp::kNe:
      return left != right;
    case CompareOp::kLt:
      return left < right;
    case CompareOp::kLe:
      return left <= right;
    case CompareOp::kGt:
      return left > right;
    case CompareOp::kGe:
      return left >= right;
  }
  return false;
}

std::vector<BoundPredicate> BindPredicates(
    const std::vector<Predicate>& predicates,
    const std::vector<ColumnRef>& layout, const std::vector<TypeKind>& types) {
  std::vector<BoundPredicate> bound;
  for (const Predicate& p : predicates) {
    JOINEST_CHECK(p.kind != Predicate::Kind::kJoin)
        << "local predicate expected, got " << p.ToString();
    BoundPredicate b;
    b.op = p.op;
    b.left_pos = FindInLayout(layout, p.left);
    JOINEST_CHECK_GE(b.left_pos, 0) << "predicate column missing from layout";
    b.left_type = types[static_cast<size_t>(b.left_pos)];
    if (p.kind == Predicate::Kind::kLocalColCol) {
      b.right_pos = FindInLayout(layout, p.right);
      JOINEST_CHECK_GE(b.right_pos, 0)
          << "predicate column missing from layout";
      b.right_type = types[static_cast<size_t>(b.right_pos)];
    } else {
      b.right_type = p.constant.type();
      if (b.right_type == TypeKind::kString) {
        b.constant_text = p.constant.AsString();
        b.constant =
            StringDictionary::Global().Find(b.constant_text).value_or(-1);
      } else {
        b.constant = ValueToCell(b.right_type, p.constant);
      }
    }
    JOINEST_CHECK((b.left_type == TypeKind::kString) ==
                  (b.right_type == TypeKind::kString))
        << "comparing " << TypeKindName(b.left_type) << " with "
        << TypeKindName(b.right_type);
    bound.push_back(std::move(b));
  }
  return bound;
}

namespace {

template <typename T>
int ThreeWay(T a, T b) {
  return (a > b) - (a < b);
}

// keep[i] &= (cmp(i) op 0); one loop per operator, so the comparison
// inlines into a tight pass over the rows.
template <typename Cmp>
void KeepIf(CompareOp op, int64_t n, char* keep, Cmp cmp) {
  switch (op) {
#define JOINEST_KEEP_CASE(OP, TEST)                            \
  case CompareOp::OP:                                          \
    for (int64_t i = 0; i < n; ++i) {                          \
      keep[i] = static_cast<char>(keep[i] & (cmp(i) TEST 0));  \
    }                                                          \
    return;
    JOINEST_KEEP_CASE(kEq, ==)
    JOINEST_KEEP_CASE(kNe, !=)
    JOINEST_KEEP_CASE(kLt, <)
    JOINEST_KEEP_CASE(kLe, <=)
    JOINEST_KEEP_CASE(kGt, >)
    JOINEST_KEEP_CASE(kGe, >=)
#undef JOINEST_KEEP_CASE
  }
}

// `right(i)` is row i's right operand cell.
template <typename Right>
void KeepWhereTyped(const BoundPredicate& p, const Cell* left, Right right,
                    int64_t n, char* keep) {
  const TypeKind lt = p.left_type;
  const TypeKind rt = p.right_type;
  if (lt == TypeKind::kString) {
    if (p.op == CompareOp::kEq || p.op == CompareOp::kNe) {
      KeepIf(p.op, n, keep, [&](int64_t i) {
        return static_cast<int>(left[i] != right(i));
      });
    } else {
      KeepIf(p.op, n, keep, [&](int64_t i) {
        return CompareCells(lt, left[i], rt, right(i));
      });
    }
  } else if (lt == TypeKind::kInt64 && rt == TypeKind::kInt64) {
    KeepIf(p.op, n, keep,
           [&](int64_t i) { return ThreeWay(left[i], right(i)); });
  } else if (lt == TypeKind::kDouble && rt == TypeKind::kDouble) {
    KeepIf(p.op, n, keep, [&](int64_t i) {
      return ThreeWay(CellDouble(left[i]), CellDouble(right(i)));
    });
  } else if (lt == TypeKind::kInt64) {
    KeepIf(p.op, n, keep, [&](int64_t i) {
      return CompareInt64Double(left[i], CellDouble(right(i)));
    });
  } else {
    KeepIf(p.op, n, keep, [&](int64_t i) {
      return -CompareInt64Double(right(i), CellDouble(left[i]));
    });
  }
}

}  // namespace

void KeepWhere(const BoundPredicate& predicate, const Cell* left,
               const Cell* right, int64_t n, char* keep) {
  if (right != nullptr) {
    KeepWhereTyped(predicate, left, [right](int64_t i) { return right[i]; },
                   n, keep);
  } else if (predicate.left_type == TypeKind::kString &&
             predicate.op != CompareOp::kEq &&
             predicate.op != CompareOp::kNe) {
    // The constant may be in no table, so it has no code to look up.
    const StringDictionary& dictionary = StringDictionary::Global();
    KeepIf(predicate.op, n, keep, [&](int64_t i) {
      const int c = dictionary.Lookup(left[i]).compare(predicate.constant_text);
      return (c > 0) - (c < 0);
    });
  } else {
    const Cell constant = predicate.constant;
    KeepWhereTyped(predicate, left, [constant](int64_t) { return constant; },
                   n, keep);
  }
}

}  // namespace joinest
