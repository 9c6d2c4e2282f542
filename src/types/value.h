// Runtime value representation.
//
// Value is the API edge of typed storage: tables are built from Values and
// read back as Values (types/cell.h holds the 8-byte cells underneath).
// The estimation algorithms themselves only need value equality and
// ordering (for equality and range predicates).

#ifndef JOINEST_TYPES_VALUE_H_
#define JOINEST_TYPES_VALUE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <variant>

namespace joinest {

enum class TypeKind {
  kInt64 = 0,
  kDouble,
  kString,
};

const char* TypeKindName(TypeKind kind);

// A dynamically typed scalar. NULLs are intentionally unsupported: the paper
// works with NOT NULL join/predicate columns, and supporting three-valued
// logic would complicate every comparison for no reproduction value.
class Value {
 public:
  Value() : data_(int64_t{0}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}

  TypeKind type() const { return static_cast<TypeKind>(data_.index()); }

  int64_t AsInt64() const;
  double AsDouble() const;
  const std::string& AsString() const;

  // Numeric view: int64 widened to double; CHECK-fails for strings.
  double ToNumeric() const;

  std::string ToString() const;

  // Comparisons require identical types (CHECK-enforced), except that int64
  // and double compare exactly against each other: no widening, so int64
  // 2^53 + 1 neither equals nor sorts below double 2^53.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const;
  bool operator<=(const Value& other) const;
  bool operator>(const Value& other) const { return other < *this; }
  bool operator>=(const Value& other) const { return other <= *this; }

  size_t Hash() const;

 private:
  std::variant<int64_t, double, std::string> data_;
};

std::ostream& operator<<(std::ostream& os, const Value& value);

// The int64 that `d` equals exactly; nothing for a fractional double or one
// outside the int64 range.
std::optional<int64_t> ExactInt64(double d);

// Exact three-way comparison (-1, 0, 1) of an int64 with a non-NaN double.
int CompareInt64Double(int64_t a, double b);

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace joinest

#endif  // JOINEST_TYPES_VALUE_H_
