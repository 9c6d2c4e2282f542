// Flat open-addressing hash tables over encoded join keys.
//
// A key is a fixed-width tuple of int64 keys, one per key column, each
// encoded by the key rule (types/cell.h), so one path serves one or many
// key columns and every column type. One contiguous slot array (linear
// probing, power-of-two capacity, load factor at most 1/2) holds each
// distinct key inline beside its payload, so there is no per-key node and
// no per-key allocation:
//
//   JoinHashTable — immutable; the payload is the key's span of build-row
//                   indices, built in two passes (count per key,
//                   prefix-sum offsets, scatter);
//   CountMap      — accumulating; the payload is the key's count.

#ifndef JOINEST_EXECUTOR_HASH_TABLE_H_
#define JOINEST_EXECUTOR_HASH_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace joinest {

// 64-bit finalizer (splitmix64) — the same mix Value::Hash applies to
// int64.
inline uint64_t HashUint64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The hash of a `width`-key tuple; the empty tuple hashes to 0.
inline uint64_t HashKeys(const int64_t* key, int width) {
  uint64_t h = 0;
  for (int k = 0; k < width; ++k) {
    h = HashUint64(h ^ static_cast<uint64_t>(key[k]));
  }
  return h;
}

inline bool EqualKeys(const int64_t* a, const int64_t* b, int width) {
  for (int k = 0; k < width; ++k) {
    if (a[k] != b[k]) return false;
  }
  return true;
}

class JoinHashTable {
 public:
  // `keys` holds `width` (>= 0) encoded keys per build row, row-major;
  // build row i enters the table when include[i] is set (its key
  // encoded, and it passed whatever the caller filters on). Under a
  // zero-width key every row included is one key's.
  JoinHashTable(int width, const std::vector<int64_t>& keys,
                const std::vector<char>& include);

  // Matches are spans of build-row indices.
  struct Span {
    const uint32_t* data = nullptr;
    size_t size = 0;
    const uint32_t* begin() const { return data; }
    const uint32_t* end() const { return data + size; }
    bool empty() const { return size == 0; }
  };

  // The build rows whose key equals `key` (width() encoded keys).
  Span Probe(const int64_t* key) const {
    for (size_t slot = Hash(key) & mask_;; slot = (slot + 1) & mask_) {
      const int64_t* entry = Entry(slot);
      const uint64_t meta = static_cast<uint64_t>(entry[width_]);
      if (meta == 0) return Span{};
      if (EqualKeys(entry, key)) {
        return Span{payload_.data() + (meta >> 32), meta & 0xffffffffu};
      }
    }
  }

  // Warms the cache line of `key`'s home slot; a probe loop calls this for
  // a whole input batch before probing it.
  void Prefetch(const int64_t* key) const {
    __builtin_prefetch(Entry(Hash(key) & mask_));
  }

  // Calls fn(key, span) once per distinct key.
  template <typename Fn>
  void ForEachKey(Fn&& fn) const {
    for (size_t slot = 0; slot < capacity_; ++slot) {
      const int64_t* entry = Entry(slot);
      const uint64_t meta = static_cast<uint64_t>(entry[width_]);
      if (meta != 0) {
        fn(entry, Span{payload_.data() + (meta >> 32), meta & 0xffffffffu});
      }
    }
  }

  size_t num_rows() const { return payload_.size(); }
  size_t num_keys() const { return num_keys_; }

 private:
  uint64_t Hash(const int64_t* key) const { return HashKeys(key, width_); }
  bool EqualKeys(const int64_t* a, const int64_t* b) const {
    return joinest::EqualKeys(a, b, width_);
  }
  // A slot is `width_` keys then (begin << 32 | count); count 0 is empty.
  const int64_t* Entry(size_t slot) const {
    return slots_.data() + slot * static_cast<size_t>(width_ + 1);
  }

  int width_;
  size_t capacity_ = 0;  // Power of two.
  uint64_t mask_ = 0;
  size_t num_keys_ = 0;
  std::vector<int64_t> slots_;
  std::vector<uint32_t> payload_;  // Build-row indices grouped by key.
};

// Counts per key tuple that only accumulate: the grouped row counts ground
// truth carries from table to table. A slot is `width` keys then the key's
// count; counts are positive, so a zero count marks an empty slot. The map
// starts with room for the keys its caller expects and doubles, rehashing,
// only when it fills past half.
class CountMap {
 public:
  // `width` (>= 0) keys per tuple; room for `expected_keys`.
  CountMap(int width, size_t expected_keys);

  // Adds `weight` (>= 1) to the count of `key` (width() encoded keys);
  // false when the count would leave the int64 range.
  bool Add(const int64_t* key, int64_t weight) {
    size_t slot = Find(key);
    int64_t* entry = Entry(slot);
    if (entry[width_] == 0) {
      if (2 * (num_keys_ + 1) > capacity_) {
        Grow();
        slot = Find(key);
        entry = Entry(slot);
      }
      std::copy(key, key + width_, entry);
      ++num_keys_;
    }
    return !__builtin_add_overflow(entry[width_], weight, &entry[width_]);
  }

  // The count of `key`; 0 when absent.
  int64_t Count(const int64_t* key) const {
    return slots_[Find(key) * stride() + static_cast<size_t>(width_)];
  }

  // Calls fn(key, count) once per key.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t slot = 0; slot < capacity_; ++slot) {
      const int64_t* entry = slots_.data() + slot * stride();
      if (entry[width_] != 0) fn(entry, entry[width_]);
    }
  }

  size_t size() const { return num_keys_; }

 private:
  size_t stride() const { return static_cast<size_t>(width_) + 1; }
  int64_t* Entry(size_t slot) { return slots_.data() + slot * stride(); }
  // The slot holding `key`, else the empty slot where it would go.
  size_t Find(const int64_t* key) const {
    for (size_t slot = HashKeys(key, width_) & (capacity_ - 1);;
         slot = (slot + 1) & (capacity_ - 1)) {
      const int64_t* entry = slots_.data() + slot * stride();
      if (entry[width_] == 0 || EqualKeys(entry, key, width_)) return slot;
    }
  }
  void Grow();

  int width_;
  size_t capacity_;  // Power of two.
  size_t num_keys_ = 0;
  std::vector<int64_t> slots_;
};

}  // namespace joinest

#endif  // JOINEST_EXECUTOR_HASH_TABLE_H_
