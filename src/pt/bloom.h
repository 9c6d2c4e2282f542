// Blocked (split-block) Bloom filter for predicate transfer.
//
// The filter is the carrier of sideways information passing: each join
// column that participates in an equivalence class gets a filter built from
// the rows that are still alive on one side, and the other class members
// probe it before their rows reach the hash joins. False positives only
// keep extra rows (they are filtered by the real join later); false
// negatives are impossible, which is what makes the reduction safe.
//
// Layout follows the split-block design used by Parquet/Impala: the bit
// array is an array of 256-bit blocks (8 x 32-bit words); a key hashes to
// one block and sets/tests one bit per word, each chosen by an odd-constant
// multiply of the low hash half. Every probe touches exactly one cache
// line.

#ifndef JOINEST_PT_BLOOM_H_
#define JOINEST_PT_BLOOM_H_

#include <cstdint>
#include <vector>

namespace joinest {

class BlockedBloomFilter {
 public:
  // Sizes the filter for `expected_keys` distinct keys at `bits_per_key`
  // bits each (block count rounded up to a power of two). The defaults give
  // a false-positive rate around 1-2%; callers size from the catalog's
  // distinct-count statistics (ColumnStats::distinct_count), not from row
  // counts, since only distinct values occupy bits.
  explicit BlockedBloomFilter(int64_t expected_keys,
                              double bits_per_key = 10.0);

  void Add(uint64_t hash);
  bool MightContain(uint64_t hash) const;

  // Batch probe: keep[i] = 1 if hashes[i] might be present, else 0. The
  // native RowBatch-sized path the reducer drives.
  void Probe(const uint64_t* hashes, int count, char* keep) const;

  int64_t num_blocks() const { return num_blocks_; }
  int64_t size_bytes() const {
    return static_cast<int64_t>(words_.size()) * static_cast<int64_t>(
        sizeof(uint32_t));
  }
  double bits_per_key() const { return bits_per_key_; }
  int64_t keys_added() const { return keys_added_; }

 private:
  static constexpr int kWordsPerBlock = 8;

  // Index of the block for `hash` (high half) and the per-word bit mask
  // pattern (low half).
  int64_t BlockIndex(uint64_t hash) const {
    return static_cast<int64_t>((hash >> 32) & block_mask_);
  }

  std::vector<uint32_t> words_;  // kWordsPerBlock per block.
  uint64_t block_mask_ = 0;      // num_blocks - 1 (power of two).
  int64_t num_blocks_ = 0;
  int64_t keys_added_ = 0;
  double bits_per_key_ = 0;
};

}  // namespace joinest

#endif  // JOINEST_PT_BLOOM_H_
