// In-memory columnar table.
//
// Each column is one vector of 8-byte cells typed by the schema: int64
// values, double bit patterns, or string codes interned process-wide when
// the table is built (types/cell.h). The estimation algorithms never touch
// tuples — they consume catalog statistics — but the executor scans these
// columns to produce the ground-truth result sizes and measured run times
// the benchmarks compare against. Values are the API edge: tables are built
// from them and read back as them.

#ifndef JOINEST_STORAGE_TABLE_H_
#define JOINEST_STORAGE_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "types/cell.h"
#include "types/schema.h"
#include "types/value.h"

namespace joinest {

class Table {
 public:
  explicit Table(Schema schema);

  // Builds a table directly from column vectors (all the same length, types
  // matching the schema).
  static Table FromColumns(Schema schema,
                           std::vector<std::vector<Value>> columns);

  const Schema& schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }
  int num_columns() const { return schema_.num_columns(); }

  // Appends one row; values must match the schema's types.
  void AppendRow(std::vector<Value> values);

  void Reserve(int64_t rows);

  Value at(int64_t row, int col) const;

  // Column `col`'s cells, read per schema().column(col).type.
  const std::vector<Cell>& cells(int col) const;

  // Materialises row `row` (used by tests and small examples; operators
  // read cells directly).
  std::vector<Value> Row(int64_t row) const;

  std::string ToString(int64_t max_rows = 10) const;

 private:
  Schema schema_;
  std::vector<std::vector<Cell>> columns_;
  int64_t num_rows_ = 0;
};

// Converts a typed vector into a Value column.
std::vector<Value> ToValueColumn(const std::vector<int64_t>& data);
std::vector<Value> ToValueColumn(const std::vector<double>& data);
std::vector<Value> ToValueColumn(const std::vector<std::string>& data);

}  // namespace joinest

#endif  // JOINEST_STORAGE_TABLE_H_
