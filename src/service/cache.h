// Sharded LRU cache for analyzed queries, estimates and optimized plans.
//
// Keys are (query fingerprint, tables digest, options digest, kind), where
// the tables digest folds the digests of the tables the query reads
// (CatalogSnapshot::table_digest) in the query's table order: everything
// that can change a result participates, so a hit is always safe to serve
// — a cached value for key K is, by construction, what the cold path would
// recompute for K (the service tests assert bit-identical doubles). The
// snapshot version does not participate, so a republish that leaves a
// query's tables alone (a re-ANALYZE of unchanged data, a new table) keeps
// its entries hitting. Each entry also records the catalog ids and digests
// of the tables it read; when a publish changes some table's digest,
// Reclaim() drops the entries that read it: no query prepared on the new
// snapshot can hit them.
//
// Concurrency: the key space is hash-partitioned over N independent
// shards, each protected by its own mutex and maintaining its own LRU
// list. Lookups touch exactly one shard and hold its lock only for the
// hash probe + list splice; values are handed out as shared_ptr<const T>,
// so a value can be evicted while a reader still uses it.
//
// Observability: hits, misses, evictions, invalidations and current size
// are mirrored into the global MetricsRegistry
// (service_cache_{hits,misses,evictions,invalidated}_total{cache=...},
// service_cache_size{cache=...}) and kept as per-instance counters for
// Database::cache_stats().

#ifndef JOINEST_SERVICE_CACHE_H_
#define JOINEST_SERVICE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace joinest {

// What a cache entry holds; part of the key so one cache serves all kinds.
enum class CacheEntryKind {
  kAnalysis = 0,  // AnalyzedQuery + full-join / group / per-rule estimates.
  kPlan,          // OptimizedPlan.
};

struct ServiceCacheKey {
  uint64_t query_fingerprint = 0;
  // Digest of the read tables' digests, in the query's table order.
  uint64_t tables_digest = 0;
  uint64_t options_digest = 0;
  CacheEntryKind kind = CacheEntryKind::kAnalysis;

  bool operator==(const ServiceCacheKey& other) const {
    return query_fingerprint == other.query_fingerprint &&
           tables_digest == other.tables_digest &&
           options_digest == other.options_digest && kind == other.kind;
  }
};

struct ServiceCacheKeyHash {
  size_t operator()(const ServiceCacheKey& key) const {
    // The components are already FNV digests; a cheap combine suffices.
    uint64_t h = key.query_fingerprint;
    h = h * 1099511628211ull ^ key.tables_digest;
    h = h * 1099511628211ull ^ key.options_digest;
    h = h * 1099511628211ull ^ static_cast<uint64_t>(key.kind);
    return static_cast<size_t>(h);
  }
};

// One table a cached value was computed from: its catalog id and its
// digest in the snapshot the value was computed on.
struct SourceTable {
  int table_id = 0;
  uint64_t digest = 0;
};

// Point-in-time counter snapshot (Database::cache_stats()).
struct ServiceCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  // Entries Reclaim dropped: they read a table a republish changed.
  int64_t invalidated = 0;
  int64_t size = 0;

  double hit_rate() const {
    const int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

// Type-erased sharded LRU; the Database wraps Lookup/Insert with the
// concrete payload types. Thread-safe.
class ServiceCache {
 public:
  // `capacity` is the total entry budget, split evenly across shards
  // (each shard holds at least one entry). `label` distinguishes multiple
  // databases' series in the metrics registry.
  ServiceCache(int64_t capacity, int shards,
               const std::string& label = "default");

  ServiceCache(const ServiceCache&) = delete;
  ServiceCache& operator=(const ServiceCache&) = delete;

  // Returns the cached value and promotes it to most-recently-used, or
  // nullptr on miss. Counts a hit/miss.
  std::shared_ptr<const void> Lookup(const ServiceCacheKey& key);

  // Inserts (or replaces) the value for `key`, computed from `tables`,
  // evicting least-recently-used entries of the same shard while over
  // budget.
  void Insert(const ServiceCacheKey& key, std::shared_ptr<const void> value,
              std::vector<SourceTable> tables);

  // Drops every entry that read a table whose digest is no longer
  // `table_digests[table_id]` (the newly published snapshot's digests,
  // indexed by catalog id): no query prepared on that snapshot can hit it.
  // Walks every entry. Returns the number of entries dropped.
  int64_t Reclaim(const std::vector<uint64_t>& table_digests);

  int64_t size() const;
  int64_t capacity() const { return capacity_; }
  ServiceCacheStats Stats() const;

 private:
  struct Entry {
    ServiceCacheKey key;
    std::shared_ptr<const void> value;
    std::vector<SourceTable> tables;
  };
  struct Shard {
    Mutex mutex;
    // Front = most recently used.
    std::list<Entry> lru JOINEST_GUARDED_BY(mutex);
    std::unordered_map<ServiceCacheKey, std::list<Entry>::iterator,
                       ServiceCacheKeyHash>
        index JOINEST_GUARDED_BY(mutex);
  };

  Shard& ShardFor(const ServiceCacheKey& key) {
    return *shards_[ServiceCacheKeyHash()(key) % shards_.size()];
  }

  int64_t capacity_ = 0;
  int64_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Per-instance counters (cache_stats()).
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> invalidated_{0};

  // Registry mirrors (process-wide observability).
  Counter& hits_metric_;
  Counter& misses_metric_;
  Counter& evictions_metric_;
  Counter& invalidated_metric_;
  Gauge& size_metric_;
};

}  // namespace joinest

#endif  // JOINEST_SERVICE_CACHE_H_
