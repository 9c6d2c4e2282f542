// Flat open-addressing hash table over encoded join keys.
//
// A key is a fixed-width tuple of int64 keys, one per key column, each
// encoded by the key rule (types/cell.h), so one path serves one or many
// key columns and every column type. One contiguous slot array (linear
// probing, power-of-two capacity) holds each distinct key inline beside
// its span of build-row indices; the build takes two passes (count per key,
// prefix-sum offsets, scatter). No per-key node or per-match vector
// allocations, and the finished table is immutable.

#ifndef JOINEST_EXECUTOR_HASH_TABLE_H_
#define JOINEST_EXECUTOR_HASH_TABLE_H_

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

class JoinHashTable {
 public:
  // `keys` holds `width` (>= 1) encoded keys per build row, row-major;
  // build row i enters the table when include[i] is set (its key
  // encoded, and it passed whatever the caller filters on).
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
  uint64_t Hash(const int64_t* key) const {
    uint64_t h = HashUint64(static_cast<uint64_t>(key[0]));
    for (int k = 1; k < width_; ++k) {
      h = HashUint64(h ^ static_cast<uint64_t>(key[k]));
    }
    return h;
  }
  bool EqualKeys(const int64_t* a, const int64_t* b) const {
    for (int k = 0; k < width_; ++k) {
      if (a[k] != b[k]) return false;
    }
    return true;
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

}  // namespace joinest

#endif  // JOINEST_EXECUTOR_HASH_TABLE_H_
