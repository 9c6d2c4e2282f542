#include "pt/bloom.h"

#include <algorithm>

#include "common/check.h"

namespace joinest {

namespace {

// Odd constants (one per word of a block) whose high product bits spread
// the low hash half over the 32 bit positions — the standard split-block
// salt set.
constexpr uint32_t kSalt[8] = {0x47b6137bu, 0x44974d91u, 0x8824ad5bu,
                               0xa2b7289du, 0x705495c7u, 0x2df1424bu,
                               0x9efc4947u, 0x5c6bfb31u};

// The eight bit masks (one per word) a key sets/tests within its block.
inline void BlockMask(uint32_t key, uint32_t mask[8]) {
  for (int i = 0; i < 8; ++i) {
    mask[i] = 1u << ((key * kSalt[i]) >> 27);
  }
}

int64_t NextPowerOfTwo(int64_t v) {
  int64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

BlockedBloomFilter::BlockedBloomFilter(int64_t expected_keys,
                                       double bits_per_key)
    : bits_per_key_(bits_per_key) {
  JOINEST_CHECK_GT(bits_per_key, 0.0) << "bits_per_key must be positive";
  const int64_t keys = std::max<int64_t>(expected_keys, 1);
  const double bits = static_cast<double>(keys) * bits_per_key;
  const int64_t blocks = static_cast<int64_t>(bits / 256.0) + 1;
  num_blocks_ = NextPowerOfTwo(blocks);
  block_mask_ = static_cast<uint64_t>(num_blocks_ - 1);
  words_.assign(static_cast<size_t>(num_blocks_) * kWordsPerBlock, 0u);
}

void BlockedBloomFilter::Add(uint64_t hash) {
  uint32_t mask[8];
  BlockMask(static_cast<uint32_t>(hash), mask);
  uint32_t* block = words_.data() + BlockIndex(hash) * kWordsPerBlock;
  for (int i = 0; i < kWordsPerBlock; ++i) block[i] |= mask[i];
  ++keys_added_;
}

bool BlockedBloomFilter::MightContain(uint64_t hash) const {
  uint32_t mask[8];
  BlockMask(static_cast<uint32_t>(hash), mask);
  const uint32_t* block = words_.data() + BlockIndex(hash) * kWordsPerBlock;
  for (int i = 0; i < kWordsPerBlock; ++i) {
    if ((block[i] & mask[i]) != mask[i]) return false;
  }
  return true;
}

void BlockedBloomFilter::Probe(const uint64_t* hashes, int count,
                               char* keep) const {
  for (int i = 0; i < count; ++i) {
    keep[i] = MightContain(hashes[i]) ? 1 : 0;
  }
}

}  // namespace joinest
