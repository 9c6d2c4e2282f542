#include "executor/hash_table.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"

namespace joinest {

namespace {

// Slots for `keys` keys at load factor at most 1/2: a power of two, at
// least 16.
size_t HashCapacityFor(size_t keys) {
  size_t capacity = 16;
  while (capacity < 2 * keys) capacity <<= 1;
  return capacity;
}

}  // namespace

JoinHashTable::JoinHashTable(int width, const std::vector<int64_t>& keys,
                             const std::vector<char>& include)
    : width_(width) {
  JOINEST_CHECK_GE(width, 0);
  const size_t rows = include.size();
  JOINEST_CHECK_EQ(keys.size(), rows * static_cast<size_t>(width));
  const size_t included =
      static_cast<size_t>(std::count(include.begin(), include.end(), 1));
  capacity_ = HashCapacityFor(included);
  mask_ = capacity_ - 1;
  // Linear probing needs free slots to terminate; HashCapacityFor keeps
  // the load factor at or below 1/2.
  JOINEST_DCHECK_GE(capacity_, included * 2)
      << "hash table overloaded: " << included << " rows in " << capacity_
      << " slots";
  const size_t stride = static_cast<size_t>(width) + 1;
  slots_.assign(capacity_ * stride, 0);
  auto meta_of = [&](size_t slot) -> int64_t& {
    return slots_[slot * stride + static_cast<size_t>(width)];
  };
  // Pass 1: per-key cardinalities, remembering each row's slot.
  std::vector<uint32_t> row_slot(rows);
  for (size_t i = 0; i < rows; ++i) {
    if (!include[i]) continue;
    const int64_t* key = keys.data() + i * static_cast<size_t>(width);
    size_t slot = Hash(key) & mask_;
    while (meta_of(slot) != 0 && !EqualKeys(Entry(slot), key)) {
      slot = (slot + 1) & mask_;
    }
    if (meta_of(slot) == 0) {
      std::copy(key, key + width, slots_.begin() + slot * stride);
      ++num_keys_;
    }
    ++meta_of(slot);
    row_slot[i] = static_cast<uint32_t>(slot);
  }
  // Pass 2: prefix-sum the counts into span offsets; the count restarts at
  // zero as the scatter cursor.
  uint64_t offset = 0;
  for (size_t slot = 0; slot < capacity_; ++slot) {
    const uint64_t count = static_cast<uint64_t>(meta_of(slot));
    if (count == 0) continue;
    meta_of(slot) = static_cast<int64_t>(offset << 32);
    offset += count;
  }
  // Pass 3: scatter row indices; each count regrows to its final value.
  payload_.resize(included);
  for (size_t i = 0; i < rows; ++i) {
    if (!include[i]) continue;
    int64_t& meta = meta_of(row_slot[i]);
    const uint64_t m = static_cast<uint64_t>(meta);
    payload_[(m >> 32) + (m & 0xffffffffu)] = static_cast<uint32_t>(i);
    ++meta;
  }
  JOINEST_DCHECK_LE(num_keys_, included) << "more distinct keys than rows";
}

CountMap::CountMap(int width, size_t expected_keys)
    : width_(width), capacity_(HashCapacityFor(expected_keys)) {
  JOINEST_CHECK_GE(width, 0);
  slots_.assign(capacity_ * stride(), 0);
}

void CountMap::Grow() {
  std::vector<int64_t> old;
  old.swap(slots_);
  capacity_ *= 2;
  slots_.assign(capacity_ * stride(), 0);
  for (size_t at = 0; at < old.size(); at += stride()) {
    const int64_t* entry = old.data() + at;
    if (entry[width_] == 0) continue;
    std::copy(entry, entry + stride(), Entry(Find(entry)));
  }
}

}  // namespace joinest
