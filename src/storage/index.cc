#include "storage/index.h"

#include "common/logging.h"

namespace joinest {

HashIndex::HashIndex(const Table& table, int column) : column_(column) {
  const std::vector<Value>& data = table.column(column);
  map_.reserve(data.size());
  for (int64_t row = 0; row < table.num_rows(); ++row) {
    map_[data[row]].push_back(row);
  }
}

const std::vector<int64_t>& HashIndex::Lookup(const Value& value) const {
  const auto it = map_.find(value);
  return it == map_.end() ? empty_ : it->second;
}

}  // namespace joinest
