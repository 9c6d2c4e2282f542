// Observed join cardinalities the estimator consults before falling back
// to statistics-only estimation (Algorithm ELS).
//
// EXPLAIN ANALYZE computes the exact size of every join prefix, and every
// executed query knows its final COUNT(*). Those actuals are the very
// quantities Rules LS/M/SS estimate — so the service records them here,
// keyed by a canonical sub-plan fingerprint (service/fingerprint.h's
// SubPlanFingerprint: the table subset plus every predicate local to it,
// order-independent), and the estimator serves a matching observation
// instead of its own estimate. Sub-plans without an observation compose
// Glue-style (PAPERS.md: 2112.03458): an observed partial prefix or
// single-table cardinality anchors the incremental computation, and the
// statistics-only join selectivities extend it to the unobserved tables.
//
// Consistency:
//   * Every observation is stamped with the catalog snapshot version it was
//     last measured against. `InvalidateBefore(version)` drops observations
//     from older snapshots — the service calls it when a republish changes
//     some table's digest (new statistics), so no observation survives a
//     statistics change. A republish that changes no digest (a re-ANALYZE
//     of unchanged data) ages nothing. Aging is all-or-nothing, not per
//     table: the keys are whole sub-plans.
//   * Every materially new observation bumps a monotone epoch, and the epoch
//     is mixed into the estimation-options digest (service/fingerprint.cc) —
//     a cached estimate can never be served across a feedback refresh,
//     mirroring RuntimeSelectivityStore. Re-recording equal rows under a
//     newer snapshot version updates the stamp without bumping the epoch.
//   * The store is thread-safe (one mutex; lookups on the estimation hot
//     path short-circuit through an atomic size when the store is empty) and
//     shared by every session of a Database. Sessions without the feedback
//     feature never consult it — their estimates stay byte-identical to the
//     paper-faithful pipeline.
//
// Layering: the estimator cannot link the service (joinest_service sits on
// top of joinest_estimator), so the canonical fingerprint routine is
// injected as a plain function pointer (SubPlanFingerprintFn) via
// EstimationOptions::feedback. The pointer does not participate in cache
// digests; only the store's presence and epoch do.

#ifndef JOINEST_ESTIMATOR_FEEDBACK_STORE_H_
#define JOINEST_ESTIMATOR_FEEDBACK_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_annotations.h"
#include "query/query_spec.h"
#include "storage/catalog.h"

namespace joinest {

// Canonical digest of one join sub-plan: the tables in `mask` (bit t set ⇔
// query-local table t participates) plus the predicates fully contained in
// the mask. The canonical implementation is service/fingerprint.h's
// SubPlanFingerprint; the estimator only ever calls through this pointer.
using SubPlanFingerprintFn = uint64_t (*)(const Catalog& catalog,
                                          const QuerySpec& spec,
                                          const std::vector<Predicate>&
                                              predicates,
                                          uint64_t mask);

// Thread-safe, last-write-wins, bounded. Writers are the service's
// Execute/ExplainAnalyze paths; readers are concurrent estimations.
class FeedbackStore {
 public:
  struct Options {
    // Observations kept; beyond it the least-recently-recorded entry is
    // evicted (a feedback store is a cache of recent traffic, not an audit
    // log). Must be >= 1.
    int64_t capacity = 4096;
  };

  FeedbackStore() : FeedbackStore(Options()) {}
  explicit FeedbackStore(Options options);
  FeedbackStore(const FeedbackStore&) = delete;
  FeedbackStore& operator=(const FeedbackStore&) = delete;

  // Records an observed cardinality for the sub-plan `fingerprint`, measured
  // against catalog snapshot `snapshot_version`. Negative/non-finite rows
  // are ignored. Bumps the epoch only when the stored rows materially
  // change (a new stamp alone does not), so re-executing a converged
  // workload keeps cache keys stable across republishes.
  void Record(uint64_t fingerprint, uint64_t snapshot_version, double rows);

  // The observed cardinality for `fingerprint`, if any. Counts a hit or a
  // miss in the metrics registry (feedback_{hits,misses}_total); the
  // empty() fast path below is the way to probe without counting.
  std::optional<double> Lookup(uint64_t fingerprint) const;

  // Drops every observation measured against a snapshot older than
  // `snapshot_version`; bumps the epoch iff something was dropped. Called by
  // the service when a republish changes some table's statistics.
  void InvalidateBefore(uint64_t snapshot_version);

  void Clear();

  // Monotone: bumped by every material change (new observation, changed
  // value, invalidation, eviction). Mixed into the estimation-options
  // digest so cached estimates refresh when observations do.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // Lock-free; lets the estimation hot path skip fingerprint computation
  // entirely while no observation exists.
  bool empty() const { return count_.load(std::memory_order_acquire) == 0; }
  int64_t size() const { return count_.load(std::memory_order_acquire); }

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct Observation {
    double rows = 0;
    uint64_t snapshot_version = 0;
    int64_t last_recorded = 0;  // Record sequence, for eviction order.
  };

  void EvictOneLocked() JOINEST_REQUIRES(mutex_);

  const Options options_;
  mutable Mutex mutex_;
  std::map<uint64_t, Observation> observations_ JOINEST_GUARDED_BY(mutex_);
  int64_t record_seq_ JOINEST_GUARDED_BY(mutex_) = 0;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<int64_t> count_{0};
  // Mutable: Lookup is logically const but counts its own traffic.
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
};

}  // namespace joinest

#endif  // JOINEST_ESTIMATOR_FEEDBACK_STORE_H_
