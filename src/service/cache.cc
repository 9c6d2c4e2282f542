#include "service/cache.h"

#include <algorithm>

#include "common/check.h"

namespace joinest {

namespace {

MetricLabels CacheLabels(const std::string& label) {
  return {{"cache", label}};
}

}  // namespace

ServiceCache::ServiceCache(int64_t capacity, int shards,
                           const std::string& label)
    : capacity_(capacity),
      hits_metric_(MetricsRegistry::Global().GetCounter(
          "service_cache_hits_total", "estimation service cache hits",
          CacheLabels(label))),
      misses_metric_(MetricsRegistry::Global().GetCounter(
          "service_cache_misses_total", "estimation service cache misses",
          CacheLabels(label))),
      evictions_metric_(MetricsRegistry::Global().GetCounter(
          "service_cache_evictions_total",
          "entries evicted by the LRU policy", CacheLabels(label))),
      invalidated_metric_(MetricsRegistry::Global().GetCounter(
          "service_cache_invalidated_total",
          "entries dropped because a republish changed a table they read",
          CacheLabels(label))),
      size_metric_(MetricsRegistry::Global().GetGauge(
          "service_cache_size", "entries currently cached",
          CacheLabels(label))) {
  JOINEST_CHECK_GE(capacity, 1);
  JOINEST_CHECK_GE(shards, 1);
  // No point in more shards than entries.
  const int num_shards =
      static_cast<int>(std::min<int64_t>(shards, capacity));
  per_shard_capacity_ = (capacity + num_shards - 1) / num_shards;
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const void> ServiceCache::Lookup(const ServiceCacheKey& key) {
  Shard& shard = ShardFor(key);
  std::shared_ptr<const void> value;
  {
    MutexLock lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      value = it->second->value;
    }
  }
  if (value != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    hits_metric_.Increment();
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    misses_metric_.Increment();
  }
  return value;
}

void ServiceCache::Insert(const ServiceCacheKey& key,
                          std::shared_ptr<const void> value,
                          std::vector<SourceTable> tables) {
  JOINEST_CHECK(value != nullptr);
  int64_t evicted = 0;
  // Destroy displaced values outside the shard lock.
  std::vector<std::shared_ptr<const void>> graveyard;
  {
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Refresh in place (two threads raced on the same cold key).
      graveyard.push_back(std::move(it->second->value));
      it->second->value = std::move(value);
      it->second->tables = std::move(tables);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{key, std::move(value), std::move(tables)});
      shard.index[key] = shard.lru.begin();
      while (static_cast<int64_t>(shard.lru.size()) > per_shard_capacity_) {
        graveyard.push_back(std::move(shard.lru.back().value));
        shard.index.erase(shard.lru.back().key);
        shard.lru.pop_back();
        ++evicted;
      }
    }
  }
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    evictions_metric_.Add(evicted);
  }
  size_metric_.Set(static_cast<double>(size()));
}

int64_t ServiceCache::Reclaim(const std::vector<uint64_t>& table_digests) {
  const auto stale = [&table_digests](const Entry& entry) {
    for (const SourceTable& table : entry.tables) {
      const size_t id = static_cast<size_t>(table.table_id);
      if (id >= table_digests.size() || table_digests[id] != table.digest) {
        return true;
      }
    }
    return false;
  };
  int64_t dropped = 0;
  std::vector<std::shared_ptr<const void>> graveyard;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mutex);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (stale(*it)) {
        graveyard.push_back(std::move(it->value));
        shard->index.erase(it->key);
        it = shard->lru.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  if (dropped > 0) {
    invalidated_.fetch_add(dropped, std::memory_order_relaxed);
    invalidated_metric_.Add(dropped);
  }
  size_metric_.Set(static_cast<double>(size()));
  return dropped;
}

int64_t ServiceCache::size() const {
  int64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mutex);
    total += static_cast<int64_t>(shard->lru.size());
  }
  return total;
}

ServiceCacheStats ServiceCache::Stats() const {
  ServiceCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.invalidated = invalidated_.load(std::memory_order_relaxed);
  stats.size = size();
  return stats;
}

}  // namespace joinest
