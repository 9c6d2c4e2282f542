// Secondary index over a single table column.
//
// The optimizer's access-path selection (Selinger [13]) chooses between a
// sequential scan and an index lookup; the executor's IndexNestedLoopJoin
// probes a HashIndex: equality lookups, O(1) expected.

#ifndef JOINEST_STORAGE_INDEX_H_
#define JOINEST_STORAGE_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/table.h"

namespace joinest {

class HashIndex {
 public:
  HashIndex(const Table& table, int column);

  // Row ids whose indexed column equals `value` (possibly empty).
  const std::vector<int64_t>& Lookup(const Value& value) const;

  int column() const { return column_; }
  size_t num_keys() const { return map_.size(); }

 private:
  int column_;
  std::unordered_map<Value, std::vector<int64_t>, ValueHash> map_;
  std::vector<int64_t> empty_;
};

}  // namespace joinest

#endif  // JOINEST_STORAGE_INDEX_H_
