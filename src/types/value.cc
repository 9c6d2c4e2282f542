#include "types/value.h"

#include <cmath>
#include <ostream>

#include "common/logging.h"
#include "common/table_printer.h"

namespace joinest {

const char* TypeKindName(TypeKind kind) {
  switch (kind) {
    case TypeKind::kInt64:
      return "INT64";
    case TypeKind::kDouble:
      return "DOUBLE";
    case TypeKind::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

int64_t Value::AsInt64() const {
  JOINEST_CHECK(type() == TypeKind::kInt64) << "not an int64";
  return std::get<int64_t>(data_);
}

double Value::AsDouble() const {
  JOINEST_CHECK(type() == TypeKind::kDouble) << "not a double";
  return std::get<double>(data_);
}

const std::string& Value::AsString() const {
  JOINEST_CHECK(type() == TypeKind::kString) << "not a string";
  return std::get<std::string>(data_);
}

double Value::ToNumeric() const {
  switch (type()) {
    case TypeKind::kInt64:
      return static_cast<double>(std::get<int64_t>(data_));
    case TypeKind::kDouble:
      return std::get<double>(data_);
    case TypeKind::kString:
      JOINEST_CHECK(false) << "ToNumeric on string value";
  }
  return 0;
}

std::optional<int64_t> ExactInt64(double d) {
  // The range check must precede the cast: casting a double outside int64
  // range is undefined behaviour. 2^63 is exactly representable as a
  // double, so `d < 2^63` admits every in-range value.
  if (d >= -9223372036854775808.0 && d < 9223372036854775808.0 &&
      d == static_cast<double>(static_cast<int64_t>(d))) {
    return static_cast<int64_t>(d);
  }
  return std::nullopt;
}

int CompareInt64Double(int64_t a, double b) {
  if (b >= 9223372036854775808.0) return -1;
  if (b < -9223372036854775808.0) return 1;
  const double whole = std::trunc(b);
  const int64_t w = static_cast<int64_t>(whole);
  if (a != w) return a < w ? -1 : 1;
  // a == trunc(b): b's fraction decides.
  return (whole > b) - (whole < b);
}

std::string Value::ToString() const {
  switch (type()) {
    case TypeKind::kInt64:
      return std::to_string(std::get<int64_t>(data_));
    case TypeKind::kDouble:
      return FormatNumber(std::get<double>(data_));
    case TypeKind::kString:
      return std::get<std::string>(data_);
  }
  return "";
}

namespace {

// Exact three-way comparison of an int64 with a double, either way round.
int CompareMixed(const Value& a, const Value& b) {
  JOINEST_CHECK(a.type() != TypeKind::kString && b.type() != TypeKind::kString)
      << "comparing " << TypeKindName(a.type()) << " with "
      << TypeKindName(b.type());
  return a.type() == TypeKind::kInt64
             ? CompareInt64Double(a.AsInt64(), b.AsDouble())
             : -CompareInt64Double(b.AsInt64(), a.AsDouble());
}

}  // namespace

bool Value::operator==(const Value& other) const {
  if (type() == other.type()) return data_ == other.data_;
  return CompareMixed(*this, other) == 0;
}

bool Value::operator<(const Value& other) const {
  if (type() == other.type()) return data_ < other.data_;
  return CompareMixed(*this, other) < 0;
}

bool Value::operator<=(const Value& other) const {
  return *this < other || *this == other;
}

uint64_t HashDouble(double d) {
  // ExactInt64 range-checks before casting; doubles beyond int64 range
  // (where the unguarded cast would be UB) fall through to the plain double
  // hash, and can never equal an int64 anyway.
  if (const std::optional<int64_t> i = ExactInt64(d)) return HashInt64(*i);
  return std::hash<double>()(d);
}

size_t Value::Hash() const {
  switch (type()) {
    case TypeKind::kInt64:
      return HashInt64(std::get<int64_t>(data_));
    case TypeKind::kDouble:
      return HashDouble(std::get<double>(data_));
    case TypeKind::kString:
      return std::hash<std::string>()(std::get<std::string>(data_));
  }
  return 0;
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

}  // namespace joinest
