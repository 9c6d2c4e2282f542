// Typed column cells and the one rule for comparing them.
//
// Tables and executor batches store every cell in 8 bytes; the column's
// TypeKind (from the schema) says how to read it:
//
//   kInt64  — the value itself;
//   kDouble — the double's bit pattern (never NaN: NaN equals nothing, so
//             typed storage refuses it);
//   kString — a code from the process-wide StringDictionary. Two cells hold
//             one code exactly when they hold one string, whichever tables
//             they come from.
//
// Value stays the API edge: tables are built from and read back as Values,
// and CellToValue / ValueToCell convert at that edge.
//
// Equality of join and group keys follows one rule, fixed per pair of key
// columns by their two types (KeyEncodingFor): each side encodes its cell
// into an int64 key, and two cells are equal exactly when their keys are.
//
//   int64  vs int64  — the value itself;
//   double vs int64  — the int64 the double equals exactly, else no match;
//   double vs double — the double's value (-0.0 equal to 0.0), mapped to an
//                      order-preserving int64 that is never compared with
//                      an integer key;
//   string vs string — the dictionary code.
//
// Keys of one encoding also order consistently (the sort-merge join sorts
// on them), except string codes, whose order is interning order; only
// ordering predicates on strings (CompareCells) read the strings.

#ifndef JOINEST_TYPES_CELL_H_
#define JOINEST_TYPES_CELL_H_

#include <bit>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/thread_annotations.h"
#include "types/value.h"

namespace joinest {

using Cell = int64_t;

inline Cell DoubleCell(double v) { return std::bit_cast<Cell>(v); }
inline double CellDouble(Cell c) { return std::bit_cast<double>(c); }

// Interns strings for the process. Codes are dense from 0 in interning
// order and stay valid for the life of the process: the dictionary never
// shrinks, so every string any table ever held stays resident. Interning
// and lookup take the dictionary's mutex; a string's storage never moves
// once interned.
class StringDictionary {
 public:
  static StringDictionary& Global();

  // The code of `s`, interning it on first sight.
  Cell Intern(std::string_view s) JOINEST_EXCLUDES(mu_);
  // The code of `s` if some table interned it; nothing otherwise (then no
  // cell can hold it).
  std::optional<Cell> Find(std::string_view s) const JOINEST_EXCLUDES(mu_);
  const std::string& Lookup(Cell code) const JOINEST_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::deque<std::string> strings_ JOINEST_GUARDED_BY(mu_);
  std::unordered_map<std::string_view, Cell> codes_ JOINEST_GUARDED_BY(mu_);
};

// The edge conversions. ValueToCell interns strings and CHECK-fails on a
// NaN or on a value whose type is not `type`.
Cell ValueToCell(TypeKind type, const Value& value);
Value CellToValue(TypeKind type, Cell cell);

// Three-way comparison of two cells of the given types, exact across
// int64 and double (no widening); strings compare their text. CHECK-fails
// on a string against a number.
int CompareCells(TypeKind left_type, Cell left, TypeKind right_type,
                 Cell right);

// How a key cell of type `own` encodes when matched against `other`.
enum class KeyEncoding : uint8_t {
  kInt64,          // The value itself.
  kDoubleAsInt64,  // The int64 the double equals exactly, else no match.
  kDouble,         // Order-preserving image of the double, -0.0 as 0.0.
  kString,         // The dictionary code.
};

// CHECK-fails on a string against a number.
KeyEncoding KeyEncodingFor(TypeKind own, TypeKind other);

// Encodes `cell` into `*key`; false when the cell can equal no cell of the
// partner type (a fractional double against an int64 column).
inline bool EncodeKey(KeyEncoding encoding, Cell cell, int64_t* key) {
  switch (encoding) {
    case KeyEncoding::kInt64:
    case KeyEncoding::kString:
      *key = cell;
      return true;
    case KeyEncoding::kDoubleAsInt64: {
      const std::optional<int64_t> exact = ExactInt64(CellDouble(cell));
      if (!exact) return false;
      *key = *exact;
      return true;
    }
    case KeyEncoding::kDouble: {
      const double d = CellDouble(cell);
      const int64_t bits = d == 0 ? 0 : cell;  // -0.0 encodes as 0.0.
      // Negative doubles order in reverse of their bit patterns; flipping
      // the magnitude bits restores the order.
      *key = bits >= 0 ? bits : bits ^ INT64_MAX;
      return true;
    }
  }
  return false;
}

// The hash of a key cell. An int64 or double cell hashes as Value::Hash of
// its value, so an integral double and the int64 it equals hash alike; a
// string cell hashes its dictionary code. Cells that join under the key
// rule therefore hash alike.
inline uint64_t HashCell(TypeKind type, Cell cell) {
  return type == TypeKind::kDouble ? HashDouble(CellDouble(cell))
                                   : HashInt64(cell);
}

// Inverts EncodeKey for the encodings a column takes against its own type
// (kInt64, kDouble, kString): a group key back to a cell.
Cell DecodeKey(KeyEncoding encoding, int64_t key);

}  // namespace joinest

#endif  // JOINEST_TYPES_CELL_H_
