// The single declaration table of every joinest metric family name.
//
// Every name passed to MetricsRegistry::Get{Counter,Gauge,Histogram} in
// src/, bench/ and examples/ must appear here, and every name here must be
// used somewhere — enforced by the `metric-name-registry` checker in
// tools/lint (ctest -L analysis). The point is typo-proofing the telemetry
// contract: a bench JSON gate and the registry series it reads drift
// silently when one side misspells a name, and nothing crashes — the gate
// just compares against a permanently-zero series. With the table, the
// misspelled side fails lint instead. (Tests are exempt: they exercise the
// registry with ad-hoc names by design.)
//
// Kept as an X-macro so consumers can generate code over the list;
// IsDeclaredMetricName() below is the runtime view, used by obs_test to
// pin the contract.

#ifndef JOINEST_OBS_METRIC_NAMES_H_
#define JOINEST_OBS_METRIC_NAMES_H_

#include <string_view>

// clang-format off
#define JOINEST_METRIC_NAMES(X)                                              \
  /* --- estimator ------------------------------------------------------ */ \
  X(estimator_qerror)                       /* per-rule q-error histogram */ \
  X(estimator_queries_total)                                                 \
  /* --- cardinality feedback (estimator/feedback_store.cc) -------------- */ \
  X(feedback_hits_total)                                                     \
  X(feedback_misses_total)                                                   \
  X(feedback_records_total)                                                  \
  X(feedback_store_size)                                                     \
  /* --- executor ------------------------------------------------------- */ \
  X(executor_hashjoin_build_keys_total)                                      \
  X(executor_hashjoin_build_rows_total)                                      \
  X(executor_hashjoin_builds_total)                                          \
  X(executor_kernel_selected_total)         /* label: type= */               \
  X(executor_morsel_rows_total)             /* ground-truth rows scanned */ \
  /* --- shared thread pool (obs/pool_obs.cc) --------------------------- */ \
  X(pool_queue_depth)                                                        \
  X(pool_steals_total)                                                       \
  X(pool_tasks_total)                       /* label: source= */             \
  /* --- predicate transfer --------------------------------------------- */ \
  X(pt_pass_rate)                           /* labels: table=,column= */     \
  X(pt_rows_pruned)                                                          \
  X(pt_runs)                                                                 \
  /* --- accuracy monitor (obs/accuracy_monitor.cc) --------------------- */ \
  X(estimator_qerror_drift)                 /* labels: rule=,level= */       \
  X(service_accuracy_alerts_total)                                           \
  /* --- flight recorder (obs/flight_recorder.cc) ------------------------ */ \
  X(recorder_records_total)                 /* label: api= */                \
  X(recorder_skipped_total)                 /* label: policy= */             \
  /* --- estimation service --------------------------------------------- */ \
  X(service_cache_evictions_total)          /* label: cache= */              \
  X(service_cache_hit_rate)                                                  \
  X(service_cache_hits_total)                                                \
  X(service_cache_invalidated_total)                                         \
  X(service_cache_misses_total)                                              \
  X(service_cache_size)                                                      \
  X(service_estimate_seconds)               /* label: path=cold|warm */      \
  X(service_snapshot_version)               /* label: db= */                 \
  /* --- bench exports (BENCH_*.json gates read these) ------------------ */ \
  X(bench_accuracy_gmean_ratio)                                              \
  X(bench_executor_count)                                                    \
  X(bench_executor_rows_per_sec)            /* label: mode= */               \
  X(bench_executor_seconds)                                                  \
  X(bench_executor_speedup_vs_seed_tuple)                                    \
  X(bench_feedback_convergence_ratio)                                        \
  X(bench_feedback_p95_qerror)              /* label: pass= */               \
  X(bench_feedback_queries_per_sec)                                          \
  X(bench_feedback_seconds)                                                  \
  X(bench_pt_rows_per_sec)                                                   \
  X(bench_pt_seconds)                                                        \
  X(bench_pt_speedup)                                                        \
  X(bench_service_queries_per_sec)                                           \
  X(bench_service_seconds)                                                   \
  X(bench_service_warm_speedup)
// clang-format on

namespace joinest {

// True iff `name` is a family name declared in JOINEST_METRIC_NAMES.
bool IsDeclaredMetricName(std::string_view name);

}  // namespace joinest

#endif  // JOINEST_OBS_METRIC_NAMES_H_
