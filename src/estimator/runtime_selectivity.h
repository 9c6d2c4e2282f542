// Observed runtime selectivities the estimator consults before falling back
// to pure statistics.
//
// The predicate-transfer reducer measures, per join column, the fraction of
// a table's rows whose value actually occurs on the other side of the
// join's equivalence class (the Bloom-filter pass rate), and per table the
// fraction of rows surviving all transfers. Those observations are exactly
// the quantities Algorithm ELS approximates from catalog statistics —
// effective join-column cardinality d' and effective table cardinality
// ||R||' — so the estimator can refine both:
//
//   ||R||' <- survival x ||R||'          (rows that can reach the joins)
//   d'_x   <- max(1, pass_rate x d'_x)   (distincts with a join partner)
//
// and the standard S_J = 1/max(d'_l, d'_r) machinery then runs unchanged.
// The store is keyed by catalog table NAME (not query-local index) so a
// rate observed while executing one query transfers to estimates for other
// queries touching the same tables.
//
// Consistency with the service cache: every materially new observation
// bumps a monotone epoch, and the epoch is mixed into the estimation
// options digest (service/fingerprint.cc) — a cached estimate can never be
// served across a selectivity refresh. The store is flag-gated per session
// (EstimatorFeatures::runtime_selectivities, set through
// Session::Options::set_features); the default leaves the estimator
// paper-faithful.

#ifndef JOINEST_ESTIMATOR_RUNTIME_SELECTIVITY_H_
#define JOINEST_ESTIMATOR_RUNTIME_SELECTIVITY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace joinest {

// Thread-safe, last-write-wins. Shared between the Database (writer: each
// predicate-transfer run records) and sessions (readers: estimation).
class RuntimeSelectivityStore {
 public:
  // Fraction of `table`'s post-local-filter rows that survived every
  // transfer. Clamped to [0, 1].
  void RecordTableSurvival(const std::string& table, double fraction);
  // Combined pass rate of the transfers probed on `table`.`column`
  // (product over passes). Clamped to [0, 1].
  void RecordColumnPassRate(const std::string& table, int column,
                            double rate);

  std::optional<double> TableSurvival(const std::string& table) const;
  std::optional<double> ColumnPassRate(const std::string& table,
                                       int column) const;

  // Monotone: bumped by every Record* call that changes a stored value
  // (new key, or a materially different rate). Unchanged re-recordings keep
  // the epoch stable so repeated executions of a converged workload still
  // hit the estimate cache.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  int64_t size() const;
  // Drops every rate recorded for the named tables (their statistics
  // changed). Bumps the epoch iff something was dropped.
  void ForgetTables(const std::vector<std::string>& tables);

 private:
  mutable Mutex mutex_;
  std::map<std::string, double> tables_ JOINEST_GUARDED_BY(mutex_);
  std::map<std::pair<std::string, int>, double> columns_
      JOINEST_GUARDED_BY(mutex_);
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace joinest

#endif  // JOINEST_ESTIMATOR_RUNTIME_SELECTIVITY_H_
