#include "storage/table.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace joinest {

Table::Table(Schema schema)
    : schema_(std::move(schema)), columns_(schema_.num_columns()) {}

Table Table::FromColumns(Schema schema,
                         std::vector<std::vector<Value>> columns) {
  Table table(std::move(schema));
  JOINEST_CHECK_EQ(static_cast<int>(columns.size()), table.num_columns());
  int64_t rows = columns.empty() ? 0 : static_cast<int64_t>(columns[0].size());
  for (int c = 0; c < table.num_columns(); ++c) {
    JOINEST_CHECK_EQ(static_cast<int64_t>(columns[c].size()), rows)
        << "ragged columns";
    for (const Value& v : columns[c]) {
      JOINEST_CHECK(v.type() == table.schema_.column(c).type)
          << "type mismatch in column " << table.schema_.column(c).name;
    }
  }
  table.columns_ = std::move(columns);
  table.num_rows_ = rows;
  return table;
}

void Table::AppendRow(std::vector<Value> values) {
  JOINEST_CHECK_EQ(static_cast<int>(values.size()), num_columns());
  for (int c = 0; c < num_columns(); ++c) {
    JOINEST_CHECK(values[c].type() == schema_.column(c).type)
        << "type mismatch in column " << schema_.column(c).name;
    columns_[c].push_back(std::move(values[c]));
  }
  ++num_rows_;
}

void Table::Reserve(int64_t rows) {
  for (auto& column : columns_) column.reserve(rows);
}

const Value& Table::at(int64_t row, int col) const {
  JOINEST_CHECK_GE(row, 0);
  JOINEST_CHECK_LT(row, num_rows_);
  JOINEST_CHECK_GE(col, 0);
  JOINEST_CHECK_LT(col, num_columns());
  return columns_[col][row];
}

const std::vector<Value>& Table::column(int col) const {
  JOINEST_CHECK_GE(col, 0);
  JOINEST_CHECK_LT(col, num_columns());
  return columns_[col];
}

std::vector<Value> Table::Row(int64_t row) const {
  std::vector<Value> result;
  result.reserve(num_columns());
  for (int c = 0; c < num_columns(); ++c) result.push_back(at(row, c));
  return result;
}

void Table::CopyRowInto(int64_t row, std::vector<Value>& out) const {
  out.resize(num_columns());
  for (int c = 0; c < num_columns(); ++c) out[c] = columns_[c][row];
}

std::string Table::ToString(int64_t max_rows) const {
  std::ostringstream oss;
  oss << schema_.ToString() << " [" << num_rows_ << " rows]\n";
  const int64_t shown = std::min(max_rows, num_rows_);
  for (int64_t r = 0; r < shown; ++r) {
    for (int c = 0; c < num_columns(); ++c) {
      if (c > 0) oss << ", ";
      oss << at(r, c).ToString();
    }
    oss << "\n";
  }
  if (shown < num_rows_) oss << "... (" << (num_rows_ - shown) << " more)\n";
  return oss.str();
}

std::vector<Value> ToValueColumn(const std::vector<int64_t>& data) {
  std::vector<Value> result;
  result.reserve(data.size());
  for (int64_t v : data) result.emplace_back(v);
  return result;
}

std::vector<Value> ToValueColumn(const std::vector<double>& data) {
  std::vector<Value> result;
  result.reserve(data.size());
  for (double v : data) result.emplace_back(v);
  return result;
}

std::vector<Value> ToValueColumn(const std::vector<std::string>& data) {
  std::vector<Value> result;
  result.reserve(data.size());
  for (const std::string& v : data) result.emplace_back(v);
  return result;
}

}  // namespace joinest
