#include "estimator/feedback_store.h"

#include <cmath>

#include "common/check.h"
#include "obs/metrics.h"

namespace joinest {

namespace {

// Cardinalities within this relative tolerance are "the same observation":
// re-recording them must not bump the epoch (and so must not invalidate
// cached estimates computed from them).
constexpr double kSameRowsTolerance = 1e-12;

// Registered once: the lookup path is the estimation hot path, and the
// registry's name lookup takes a mutex.
Counter& HitsCounter() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "feedback_hits_total", "estimations served an observed cardinality");
  return counter;
}

Counter& MissesCounter() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "feedback_misses_total",
      "estimations that consulted the feedback store and fell back to "
      "statistics");
  return counter;
}

Counter& RecordsCounter() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "feedback_records_total", "observed cardinalities offered to the store");
  return counter;
}

Gauge& SizeGauge() {
  static Gauge& gauge = MetricsRegistry::Global().GetGauge(
      "feedback_store_size", "observations currently stored");
  return gauge;
}

}  // namespace

FeedbackStore::FeedbackStore(Options options) : options_(options) {
  JOINEST_CHECK_GE(options_.capacity, 1) << "feedback store capacity";
}

void FeedbackStore::EvictOneLocked() {
  auto victim = observations_.begin();
  for (auto it = observations_.begin(); it != observations_.end(); ++it) {
    if (it->second.last_recorded < victim->second.last_recorded) victim = it;
  }
  observations_.erase(victim);
}

void FeedbackStore::Record(uint64_t fingerprint, uint64_t snapshot_version,
                           double rows) {
  if (!std::isfinite(rows) || rows < 0.0) return;
  RecordsCounter().Increment();
  bool changed = false;
  {
    MutexLock lock(mutex_);
    const auto [it, inserted] = observations_.emplace(
        fingerprint, Observation{rows, snapshot_version, record_seq_});
    if (inserted) {
      changed = true;
      if (static_cast<int64_t>(observations_.size()) > options_.capacity) {
        EvictOneLocked();
      }
    } else {
      Observation& obs = it->second;
      const double scale = std::max(std::fabs(obs.rows), std::fabs(rows));
      // A new version stamp alone is no change: estimates read the rows.
      changed = std::fabs(obs.rows - rows) > kSameRowsTolerance * scale;
      obs.rows = rows;
      obs.snapshot_version = snapshot_version;
      obs.last_recorded = record_seq_;
    }
    ++record_seq_;
    count_.store(static_cast<int64_t>(observations_.size()),
                 std::memory_order_release);
  }
  if (changed) epoch_.fetch_add(1, std::memory_order_acq_rel);
  SizeGauge().Set(static_cast<double>(size()));
}

std::optional<double> FeedbackStore::Lookup(uint64_t fingerprint) const {
  std::optional<double> rows;
  {
    MutexLock lock(mutex_);
    const auto it = observations_.find(fingerprint);
    if (it != observations_.end()) rows = it->second.rows;
  }
  if (rows.has_value()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    HitsCounter().Increment();
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    MissesCounter().Increment();
  }
  return rows;
}

void FeedbackStore::InvalidateBefore(uint64_t snapshot_version) {
  bool dropped = false;
  {
    MutexLock lock(mutex_);
    for (auto it = observations_.begin(); it != observations_.end();) {
      if (it->second.snapshot_version < snapshot_version) {
        it = observations_.erase(it);
        dropped = true;
      } else {
        ++it;
      }
    }
    count_.store(static_cast<int64_t>(observations_.size()),
                 std::memory_order_release);
  }
  if (dropped) epoch_.fetch_add(1, std::memory_order_acq_rel);
  SizeGauge().Set(static_cast<double>(size()));
}

void FeedbackStore::Clear() {
  bool dropped = false;
  {
    MutexLock lock(mutex_);
    dropped = !observations_.empty();
    observations_.clear();
    count_.store(0, std::memory_order_release);
  }
  if (dropped) epoch_.fetch_add(1, std::memory_order_acq_rel);
  SizeGauge().Set(0.0);
}

}  // namespace joinest
