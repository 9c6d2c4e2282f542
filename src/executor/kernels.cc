#include "executor/kernels.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace joinest {

namespace {

// Comparison loop instantiated per (operand type, operator): the operands
// resolve to native loads and the comparison to one branch-free instruction
// — no variant index checks, no contract re-validation per row.
template <typename T, typename GetLeft, typename GetRight>
void ApplyCompare(const RowBatch& batch, CompareOp op, GetLeft get_left,
                  GetRight get_right, std::vector<char>& keep) {
  const int n = batch.size();
  switch (op) {
#define JOINEST_KERNEL_CASE(OP, CMP)                           \
  case CompareOp::OP:                                          \
    for (int i = 0; i < n; ++i) {                              \
      if (!keep[static_cast<size_t>(i)]) continue;             \
      const Row& row = batch.row(i);                           \
      keep[static_cast<size_t>(i)] =                           \
          static_cast<char>(get_left(row) CMP get_right(row)); \
    }                                                          \
    break;
    JOINEST_KERNEL_CASE(kEq, ==)
    JOINEST_KERNEL_CASE(kNe, !=)
    JOINEST_KERNEL_CASE(kLt, <)
    JOINEST_KERNEL_CASE(kLe, <=)
    JOINEST_KERNEL_CASE(kGt, >)
    JOINEST_KERNEL_CASE(kGe, >=)
#undef JOINEST_KERNEL_CASE
  }
}

bool IsNumeric(TypeKind kind) {
  return kind == TypeKind::kInt64 || kind == TypeKind::kDouble;
}

// FillBatchColumnwise's per-column loops; `row_of(i)` is slot i's table row.
template <typename RowOf>
void FillColumns(const Table& table, int64_t count, RowOf row_of,
                 const std::vector<Row*>& slots) {
  for (int c = 0; c < table.num_columns(); ++c) {
    const Value* src = table.column(c).data();
    const size_t col = static_cast<size_t>(c);
    switch (table.schema().column(c).type) {
      case TypeKind::kInt64:
        for (int64_t i = 0; i < count; ++i) {
          (*slots[static_cast<size_t>(i)])[col].StoreInt64(
              src[row_of(i)].int64_unchecked());
        }
        break;
      case TypeKind::kDouble:
        for (int64_t i = 0; i < count; ++i) {
          (*slots[static_cast<size_t>(i)])[col].StoreDouble(
              src[row_of(i)].double_unchecked());
        }
        break;
      case TypeKind::kString:
        for (int64_t i = 0; i < count; ++i) {
          (*slots[static_cast<size_t>(i)])[col] = src[row_of(i)];
        }
        break;
    }
  }
}

}  // namespace

const char* FilterKernelName(FilterKernel kernel) {
  switch (kernel) {
    case FilterKernel::kGeneric:
      return "filter_generic";
    case FilterKernel::kInt64:
      return "filter_int64";
    case FilterKernel::kDouble:
      return "filter_double";
    case FilterKernel::kString:
      return "filter_string";
  }
  return "filter_unknown";
}

int CompilePredicates(const std::vector<Predicate>& predicates,
                      const std::vector<int>& left_pos,
                      const std::vector<int>& right_pos,
                      const std::vector<TypeKind>& types,
                      std::vector<CompiledPredicate>* out) {
  JOINEST_CHECK_EQ(predicates.size(), left_pos.size());
  JOINEST_CHECK_EQ(predicates.size(), right_pos.size());
  out->clear();
  out->reserve(predicates.size());
  int specialized = 0;
  for (size_t i = 0; i < predicates.size(); ++i) {
    const Predicate& p = predicates[i];
    CompiledPredicate c;
    c.op = p.op;
    c.left_pos = left_pos[i];
    c.right_pos = right_pos[i];
    const TypeKind left = types[static_cast<size_t>(c.left_pos)];
    const TypeKind right =
        c.right_pos >= 0 ? types[static_cast<size_t>(c.right_pos)]
                         : p.constant.type();
    if (left == TypeKind::kInt64 && right == TypeKind::kInt64) {
      c.kernel = FilterKernel::kInt64;
      if (c.right_pos < 0) c.const_i64 = p.constant.AsInt64();
    } else if (IsNumeric(left) && IsNumeric(right)) {
      // At least one side is a double: the generic path compares through
      // Value::ToNumeric (int64 widened to double), so the kernel does the
      // same widening and stays bit-identical.
      c.kernel = FilterKernel::kDouble;
      c.left_is_double = left == TypeKind::kDouble;
      c.right_is_double = right == TypeKind::kDouble;
      if (c.right_pos < 0) c.const_f64 = p.constant.ToNumeric();
    } else if (left == TypeKind::kString && right == TypeKind::kString) {
      c.kernel = FilterKernel::kString;
      if (c.right_pos < 0) c.const_str = p.constant.AsString();
    } else {
      // String vs numeric: the generic path CHECK-fails on comparison (the
      // parser rejects these); decline rather than invent semantics.
      c.kernel = FilterKernel::kGeneric;
    }
    if (c.kernel != FilterKernel::kGeneric) ++specialized;
    out->push_back(std::move(c));
  }
  return specialized;
}

void EvalCompiledPredicates(const RowBatch& batch,
                            const std::vector<CompiledPredicate>& predicates,
                            std::vector<char>& keep) {
  for (const CompiledPredicate& c : predicates) {
    const int lp = c.left_pos;
    const int rp = c.right_pos;
    switch (c.kernel) {
      case FilterKernel::kInt64: {
        auto left = [lp](const Row& row) {
          return row[static_cast<size_t>(lp)].int64_unchecked();
        };
        if (rp >= 0) {
          ApplyCompare<int64_t>(
              batch, c.op, left,
              [rp](const Row& row) {
                return row[static_cast<size_t>(rp)].int64_unchecked();
              },
              keep);
        } else {
          const int64_t constant = c.const_i64;
          ApplyCompare<int64_t>(
              batch, c.op, left, [constant](const Row&) { return constant; },
              keep);
        }
        break;
      }
      case FilterKernel::kDouble: {
        const bool ld = c.left_is_double;
        auto left = [lp, ld](const Row& row) {
          const Value& v = row[static_cast<size_t>(lp)];
          return ld ? v.double_unchecked()
                    : static_cast<double>(v.int64_unchecked());
        };
        if (rp >= 0) {
          const bool rd = c.right_is_double;
          ApplyCompare<double>(
              batch, c.op, left,
              [rp, rd](const Row& row) {
                const Value& v = row[static_cast<size_t>(rp)];
                return rd ? v.double_unchecked()
                          : static_cast<double>(v.int64_unchecked());
              },
              keep);
        } else {
          const double constant = c.const_f64;
          ApplyCompare<double>(
              batch, c.op, left, [constant](const Row&) { return constant; },
              keep);
        }
        break;
      }
      case FilterKernel::kString: {
        auto left = [lp](const Row& row) -> const std::string& {
          return row[static_cast<size_t>(lp)].string_unchecked();
        };
        if (rp >= 0) {
          ApplyCompare<std::string>(
              batch, c.op, left,
              [rp](const Row& row) -> const std::string& {
                return row[static_cast<size_t>(rp)].string_unchecked();
              },
              keep);
        } else {
          const std::string& constant = c.const_str;
          ApplyCompare<std::string>(
              batch, c.op, left,
              [&constant](const Row&) -> const std::string& {
                return constant;
              },
              keep);
        }
        break;
      }
      case FilterKernel::kGeneric:
        // Handled by the caller via EvalPredicatesRow; compiled lists with
        // generic entries never reach this loop.
        JOINEST_CHECK(false) << "generic predicate in compiled filter";
    }
  }
}

void FillBatchColumnwise(const Table& table, const int64_t* row_ids,
                         int64_t begin, int64_t count, RowBatch& batch,
                         std::vector<Row*>& slots) {
  slots.clear();
  slots.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    Row& slot = batch.AppendSlot();
    slot.resize(static_cast<size_t>(table.num_columns()));
    slots.push_back(&slot);
  }
  if (row_ids == nullptr) {
    FillColumns(table, count, [begin](int64_t i) { return begin + i; },
                slots);
  } else {
    const int64_t* ids = row_ids + begin;
    FillColumns(table, count, [ids](int64_t i) { return ids[i]; }, slots);
  }
}

std::vector<TypeKind> LayoutTypes(const Catalog& catalog,
                                  const QuerySpec& spec,
                                  const std::vector<ColumnRef>& layout) {
  std::vector<TypeKind> types;
  types.reserve(layout.size());
  for (const ColumnRef& ref : layout) {
    JOINEST_CHECK_GE(ref.table, 0) << "layout column without table identity";
    const Table& table = catalog.table(
        spec.tables[static_cast<size_t>(ref.table)].catalog_id);
    types.push_back(table.schema().column(ref.column).type);
  }
  return types;
}

void CountKernelSelection(const char* type) {
  MetricsRegistry::Global()
      .GetCounter("executor_kernel_selected_total",
                  "Specialized kernel selections at plan compile time",
                  {{"type", type}})
      .Increment();
}

}  // namespace joinest
