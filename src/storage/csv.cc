#include "storage/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <vector>

namespace joinest {

namespace {

bool NeedsQuoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

void WriteField(const std::string& field, std::ostream& out) {
  if (!NeedsQuoting(field)) {
    out << field;
    return;
  }
  out << '"';
  for (char c : field) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

// Splits one CSV record (handles quoted fields; a record never spans lines
// in our output, but embedded newlines inside quotes are accepted by the
// reader via the caller feeding whole records).
StatusOr<std::vector<std::string>> SplitRecord(const std::string& line,
                                               int line_number) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // Tolerate CRLF.
    } else {
      current += c;
    }
  }
  if (in_quotes) {
    return InvalidArgument("unterminated quote on line " +
                           std::to_string(line_number));
  }
  fields.push_back(std::move(current));
  return fields;
}

StatusOr<Value> ParseValue(const std::string& text, TypeKind type,
                           int line_number) {
  switch (type) {
    case TypeKind::kInt64: {
      char* end = nullptr;
      errno = 0;
      const long long v = std::strtoll(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
        return InvalidArgument("bad int64 '" + text + "' on line " +
                               std::to_string(line_number));
      }
      return Value(static_cast<int64_t>(v));
    }
    case TypeKind::kDouble: {
      // Typed storage holds finite doubles only: NaN equals nothing, and
      // an infinity has no place in min/max statistics.
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0' || !std::isfinite(v)) {
        return InvalidArgument("bad double '" + text + "' on line " +
                               std::to_string(line_number));
      }
      return Value(v);
    }
    case TypeKind::kString:
      return Value(text);
  }
  return InvalidArgument("unknown type");
}

}  // namespace

void WriteCsv(const Table& table, std::ostream& out) {
  const Schema& schema = table.schema();
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) out << ',';
    WriteField(schema.column(c).name, out);
  }
  out << '\n';
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < schema.num_columns(); ++c) {
      if (c > 0) out << ',';
      const Value value = table.at(r, c);
      if (value.type() == TypeKind::kDouble) {
        // Shortest round-trippable representation.
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.17g", value.AsDouble());
        WriteField(buffer, out);
      } else {
        WriteField(value.ToString(), out);
      }
    }
    out << '\n';
  }
}

Status WriteCsvFile(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return InvalidArgument("cannot open '" + path + "' for writing");
  WriteCsv(table, out);
  out.flush();
  if (!out) return Internal("write to '" + path + "' failed");
  return Status::OK();
}

StatusOr<Table> ReadCsv(const Schema& schema, std::istream& in) {
  std::string line;
  int line_number = 1;
  if (!std::getline(in, line)) {
    return InvalidArgument("empty CSV input (missing header)");
  }
  JOINEST_ASSIGN_OR_RETURN(std::vector<std::string> header,
                           SplitRecord(line, line_number));
  if (static_cast<int>(header.size()) != schema.num_columns()) {
    return InvalidArgument("header has " + std::to_string(header.size()) +
                           " columns; schema expects " +
                           std::to_string(schema.num_columns()));
  }
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (header[c] != schema.column(c).name) {
      return InvalidArgument("header column '" + header[c] +
                             "' does not match schema column '" +
                             schema.column(c).name + "'");
    }
  }
  Table table(schema);
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    JOINEST_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                             SplitRecord(line, line_number));
    if (static_cast<int>(fields.size()) != schema.num_columns()) {
      return InvalidArgument("line " + std::to_string(line_number) + " has " +
                             std::to_string(fields.size()) + " fields");
    }
    std::vector<Value> row;
    row.reserve(fields.size());
    for (int c = 0; c < schema.num_columns(); ++c) {
      JOINEST_ASSIGN_OR_RETURN(
          Value value,
          ParseValue(fields[c], schema.column(c).type, line_number));
      row.push_back(std::move(value));
    }
    table.AppendRow(std::move(row));
  }
  return table;
}

StatusOr<Table> ReadCsvFile(const Schema& schema, const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFound("cannot open '" + path + "'");
  return ReadCsv(schema, in);
}

}  // namespace joinest
