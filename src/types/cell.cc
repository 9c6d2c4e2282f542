#include "types/cell.h"

#include <cmath>

#include "common/logging.h"

namespace joinest {

StringDictionary& StringDictionary::Global() {
  static StringDictionary* dictionary = new StringDictionary();
  return *dictionary;
}

Cell StringDictionary::Intern(std::string_view s) {
  MutexLock lock(mu_);
  const auto it = codes_.find(s);
  if (it != codes_.end()) return it->second;
  const Cell code = static_cast<Cell>(strings_.size());
  strings_.emplace_back(s);
  codes_.emplace(strings_.back(), code);
  return code;
}

std::optional<Cell> StringDictionary::Find(std::string_view s) const {
  MutexLock lock(mu_);
  const auto it = codes_.find(s);
  if (it == codes_.end()) return std::nullopt;
  return it->second;
}

const std::string& StringDictionary::Lookup(Cell code) const {
  MutexLock lock(mu_);
  JOINEST_CHECK(code >= 0 && static_cast<size_t>(code) < strings_.size())
      << "unknown string code " << code;
  // Deque elements never move on append, so the reference outlives the
  // lock.
  return strings_[static_cast<size_t>(code)];
}

Cell ValueToCell(TypeKind type, const Value& value) {
  JOINEST_CHECK(value.type() == type)
      << "type mismatch: " << TypeKindName(value.type()) << " value in a "
      << TypeKindName(type) << " column";
  switch (type) {
    case TypeKind::kInt64:
      return value.AsInt64();
    case TypeKind::kDouble:
      JOINEST_CHECK(!std::isnan(value.AsDouble()))
          << "NaN in a DOUBLE column";
      return DoubleCell(value.AsDouble());
    case TypeKind::kString:
      return StringDictionary::Global().Intern(value.AsString());
  }
  return 0;
}

Value CellToValue(TypeKind type, Cell cell) {
  switch (type) {
    case TypeKind::kInt64:
      return Value(cell);
    case TypeKind::kDouble:
      return Value(CellDouble(cell));
    case TypeKind::kString:
      return Value(StringDictionary::Global().Lookup(cell));
  }
  return Value();
}

namespace {

template <typename T>
int ThreeWay(T a, T b) {
  return (a > b) - (a < b);
}

}  // namespace

int CompareCells(TypeKind left_type, Cell left, TypeKind right_type,
                 Cell right) {
  JOINEST_CHECK((left_type == TypeKind::kString) ==
                (right_type == TypeKind::kString))
      << "comparing " << TypeKindName(left_type) << " with "
      << TypeKindName(right_type);
  if (left_type == TypeKind::kString) {
    if (left == right) return 0;
    const StringDictionary& dictionary = StringDictionary::Global();
    return dictionary.Lookup(left).compare(dictionary.Lookup(right)) < 0 ? -1
                                                                         : 1;
  }
  if (left_type == TypeKind::kInt64) {
    return right_type == TypeKind::kInt64
               ? ThreeWay(left, right)
               : CompareInt64Double(left, CellDouble(right));
  }
  return right_type == TypeKind::kDouble
             ? ThreeWay(CellDouble(left), CellDouble(right))
             : -CompareInt64Double(right, CellDouble(left));
}

KeyEncoding KeyEncodingFor(TypeKind own, TypeKind other) {
  JOINEST_CHECK((own == TypeKind::kString) == (other == TypeKind::kString))
      << "joining " << TypeKindName(own) << " with " << TypeKindName(other);
  switch (own) {
    case TypeKind::kInt64:
      return KeyEncoding::kInt64;
    case TypeKind::kDouble:
      return other == TypeKind::kInt64 ? KeyEncoding::kDoubleAsInt64
                                       : KeyEncoding::kDouble;
    case TypeKind::kString:
      return KeyEncoding::kString;
  }
  return KeyEncoding::kInt64;
}

Cell DecodeKey(KeyEncoding encoding, int64_t key) {
  JOINEST_CHECK(encoding != KeyEncoding::kDoubleAsInt64)
      << "a double-as-int64 key does not decode to a double cell";
  if (encoding != KeyEncoding::kDouble) return key;
  return key >= 0 ? key : key ^ INT64_MAX;  // The flip is an involution.
}

}  // namespace joinest
