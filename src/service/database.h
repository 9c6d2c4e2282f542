// The joinest estimation service: a thread-safe `Database` facade over the
// whole pipeline (storage → stats → rewrite → estimator → optimizer →
// executor → obs), plus per-client `Session`s.
//
// Lifecycle:
//
//   auto db = Database::Open(Database::Options()
//                                .set_cache_capacity(4096));   // validated
//   db->LoadTable("S", std::move(table));       // ANALYZE + new snapshot
//   auto session = db->CreateSession(
//       Session::Options().set_preset(AlgorithmPreset::kELS)); // validated
//   auto prepared = session->Prepare("SELECT COUNT(*) FROM S, M "
//                                    "WHERE S.s = M.m");
//   auto estimate = session->Estimate(*prepared);   // cached after 1st call
//   auto plan     = session->Optimize(*prepared);   // cached plan
//   auto result   = session->Execute(*prepared);    // runs the cached plan
//
// Concurrency model:
//   * The catalog is immutable-by-snapshot. Mutations (LoadTable, Analyze,
//     SetTableStats, ImportTables) serialise behind a writer mutex, build a
//     derived snapshot sharing the table payloads, and publish it with an
//     atomic shared_ptr swap. Readers never block: Prepare pins the current
//     snapshot into the PreparedQuery, and every later call on that
//     prepared query (Estimate/Optimize/Execute/ExplainAnalyze) runs
//     against the pinned snapshot — consistent even while ANALYZE
//     republishes concurrently.
//   * Results are memoised in a sharded LRU keyed by (canonical query
//     fingerprint, digests of the tables the query reads, options digest)
//     — see service/fingerprint.h and service/cache.h. Cache hits return
//     values bit-identical to what the cold path computes. A republish
//     reclaims only the entries that read a table whose digest changed, so
//     a re-ANALYZE of unchanged data keeps every entry, and a hit may carry
//     a value computed on an earlier snapshot with equal digests.
//   * A Database and its snapshots/caches are fully thread-safe. A Session
//     is a lightweight view (Database pointer + validated options) that is
//     itself safe to share across threads, but the intended pattern is one
//     Session per thread or request.
//
// Error handling: every fallible entry point returns Status/StatusOr.
// Options are validated once, at Open/CreateSession time, so invalid
// combinations (negative restarts, bushy enumeration off-DP, zero sample
// fractions) fail at configure time instead of deep inside enumeration.

#ifndef JOINEST_SERVICE_DATABASE_H_
#define JOINEST_SERVICE_DATABASE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "estimator/analyzed_query.h"
#include "estimator/features.h"
#include "estimator/feedback_store.h"
#include "estimator/presets.h"
#include "executor/execute.h"
#include "obs/accuracy_monitor.h"
#include "obs/explain_analyze.h"
#include "obs/flight_recorder.h"
#include "optimizer/optimizer.h"
#include "pt/reducer.h"
#include "query/query_spec.h"
#include "service/cache.h"
#include "service/snapshot.h"
#include "storage/analyze.h"

// Published-snapshot storage: std::atomic<std::shared_ptr> when usable.
// GCC 12's implementation (_Sp_atomic) synchronises through a lock bit
// packed into the control-block pointer word — correct, but invisible to
// ThreadSanitizer until the _GLIBCXX_TSAN annotations (GCC PR 101761),
// so sanitizer builds take the mutex fallback instead of suppressing.
#ifndef JOINEST_SERVICE_ATOMIC_SNAPSHOT
#if !defined(__cpp_lib_atomic_shared_ptr) || defined(__SANITIZE_THREAD__)
#define JOINEST_SERVICE_ATOMIC_SNAPSHOT 0
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define JOINEST_SERVICE_ATOMIC_SNAPSHOT 0
#else
#define JOINEST_SERVICE_ATOMIC_SNAPSHOT 1
#endif
#else
#define JOINEST_SERVICE_ATOMIC_SNAPSHOT 1
#endif
#endif

namespace joinest {

class Database;
class Session;

// Standalone validators for the pre-facade options structs; the facade's
// Options::Validate() compose them, and direct users of the lower layers
// can call them too.
Status ValidateAnalyzeOptions(const AnalyzeOptions& options);
Status ValidateEstimationOptions(const EstimationOptions& options);
Status ValidateOptimizerOptions(const OptimizerOptions& options);

// A parsed query pinned to the catalog snapshot it was resolved against.
// Value type: cheap to copy (the snapshot is shared). Reusable across
// Estimate/Optimize/Execute calls and across threads.
struct PreparedQuery {
  std::string sql;
  QuerySpec spec;
  // Canonical fingerprint of `spec` (service/fingerprint.h).
  uint64_t fingerprint = 0;
  // The snapshot every call on this prepared query runs against.
  std::shared_ptr<const CatalogSnapshot> snapshot;
  // Wall-clock of the Prepare call (parse + resolve + fingerprint), carried
  // so flight-recorder records can report the full latency breakdown.
  double parse_seconds = 0.0;

  uint64_t snapshot_version() const {
    return snapshot ? snapshot->version() : 0;
  }
};

// Result of Session::Estimate. Holds a shared reference to the (possibly
// cached) analysis, which co-owns the snapshot it was computed against.
class EstimateResult {
 public:
  // Full-join estimate under the session's configured rule.
  double rows() const;
  // GROUP BY group-count estimate (== rows() without GROUP BY).
  double groups() const;

  // The same query estimated under each paper preset pipeline (ELS / SM /
  // SSS), computed together on the cold path and cached as one unit.
  struct RuleEstimate {
    std::string rule;
    double rows = 0;
  };
  const std::vector<RuleEstimate>& per_rule() const;

  // Full preliminary-phase output (closure, profiles, traces).
  const AnalyzedQuery& analysis() const;

  bool cache_hit() const { return cache_hit_; }
  // The snapshot the value was computed on. A cache hit may name an earlier
  // snapshot than the prepared query's, one whose digests of the query's
  // tables are equal.
  uint64_t snapshot_version() const;

 private:
  friend class Session;
  struct Payload;
  std::shared_ptr<const Payload> payload_;
  bool cache_hit_ = false;
};

// Result of Session::Optimize: a shared, immutable optimized plan. The
// underlying PlanNode tree lives in the cache (or in this handle alone on
// a cache bypass) and is co-owned, so it stays valid for the handle's
// lifetime even across evictions and snapshot republishes.
class PlannedQuery {
 public:
  const PlanNode& plan() const;
  double estimated_cost() const;
  double estimated_rows() const;
  const std::vector<int>& join_order() const;
  const std::vector<double>& intermediate_estimates() const;
  // Rendering against the plan's own snapshot and spec.
  std::string ToString() const;

  bool cache_hit() const { return cache_hit_; }
  // The snapshot the plan was computed on; as for EstimateResult, a hit
  // may name an earlier snapshot with equal digests.
  uint64_t snapshot_version() const;

 private:
  friend class Session;
  struct Payload;
  std::shared_ptr<const Payload> payload_;
  bool cache_hit_ = false;
};

// Result of Session::Execute.
struct ExecuteResult {
  ExecutionResult execution;
  // The plan that ran (cache_hit() tells whether it was memoised).
  PlannedQuery plan;
  // The predicate-transfer reduction that preceded the run (pass rates,
  // per-table survival, timing). Null when the session has predicate
  // transfer off or the query had nothing to transfer.
  std::shared_ptr<const PtResult> predicate_transfer;
};

class Session {
 public:
  class Options {
   public:
    // Estimation preset shorthand (overwrites the estimation options and
    // re-syncs the paper knobs of the feature set; extension features are
    // preserved).
    Options& set_preset(AlgorithmPreset preset);
    // The estimator feature set (estimator/features.h): transitive
    // closure, histogram-join selectivity, runtime selectivities
    // (predicate transfer) and cardinality feedback, as one validated
    // value. THE front door for extension configuration — the facade
    // translates it into the underlying EstimationOptions and store wiring
    // at CreateSession time, so sessions never poke raw EstimationOptions
    // extension fields (enforced by the `estimation-options-pokes` lint).
    Options& set_features(EstimatorFeatures features);
    // Fine-grained estimation knobs. Kept in sync with the optimizer's
    // embedded copy — there is exactly one estimation configuration per
    // session. Prefer set_preset + set_features.
    Options& set_estimation(EstimationOptions estimation);
    // Full optimizer configuration (embeds the estimation options).
    Options& set_optimizer(OptimizerOptions optimizer);
    // Serve Estimate/Optimize from the database's cache (default on).
    // Off, every call recomputes — the benchmark's cold path.
    Options& set_use_cache(bool use_cache);
    // ExplainAnalyze: capture a trace of the run.
    Options& set_capture_trace(bool capture);
    // ExplainAnalyze: run the counting sub-queries that provide exact
    // per-join-level cardinalities (expensive on big data).
    Options& set_with_true_cardinalities(bool with_true);
    const EstimationOptions& estimation() const {
      return optimizer_.estimation;
    }
    const OptimizerOptions& optimizer() const { return optimizer_; }
    const EstimatorFeatures& features() const { return features_; }
    bool use_cache() const { return use_cache_; }
    bool capture_trace() const { return capture_trace_; }
    bool with_true_cardinalities() const { return with_true_cardinalities_; }
    bool feedback() const { return features_.feedback; }

    // Checks every knob combination that can be rejected without a query:
    // restarts/moves >= 1 for randomized enumerators, SA temperature and
    // cooling in range, non-empty method list, non-negative costs, bushy
    // enumeration only under DP, and a coherent feature set.
    Status Validate() const;

   private:
    OptimizerOptions optimizer_;
    // Kept in sync with optimizer_.estimation: set_features pushes its
    // paper knobs into the estimation options; set_preset/set_estimation/
    // set_optimizer pull theirs back out. The extension flags
    // (runtime_selectivities, feedback) live only here — the matching
    // store pointers are injected per call by Session::EffectiveEstimation.
    EstimatorFeatures features_;
    bool use_cache_ = true;
    bool capture_trace_ = true;
    bool with_true_cardinalities_ = true;
  };

  // Parses and resolves `sql` against the database's CURRENT snapshot and
  // pins that snapshot into the result.
  StatusOr<PreparedQuery> Prepare(const std::string& sql) const;

  // Estimation under the session's options; memoised. The cold path also
  // computes the per-preset (ELS/SM/SSS) estimates so one cache entry
  // answers the paper's whole comparison.
  StatusOr<EstimateResult> Estimate(const PreparedQuery& prepared) const;
  // Convenience: Prepare + Estimate.
  StatusOr<EstimateResult> Estimate(const std::string& sql) const;

  // Cost-based optimization under the session's options; memoised.
  StatusOr<PlannedQuery> Optimize(const PreparedQuery& prepared) const;
  StatusOr<PlannedQuery> Optimize(const std::string& sql) const;

  // Optimize (memoised) + execute against the prepared snapshot.
  StatusOr<ExecuteResult> Execute(const PreparedQuery& prepared) const;
  StatusOr<ExecuteResult> Execute(const std::string& sql) const;

  // Optimize (memoised) + EXPLAIN ANALYZE report (obs/explain_analyze.h)
  // under the session's trace/ground-truth knobs. Never cached: it runs
  // the plan by definition.
  StatusOr<ExplainAnalyzeReport> ExplainAnalyze(
      const PreparedQuery& prepared) const;
  StatusOr<ExplainAnalyzeReport> ExplainAnalyze(const std::string& sql) const;

  const Options& options() const { return options_; }
  Database& database() const { return *database_; }

 private:
  friend class Database;
  Session(Database* database, Options options);

  // The session's estimation/optimizer options with the database's
  // runtime-selectivity store injected when predicate transfer is on. Used
  // for BOTH the cache-key digest and the computation, so cached results
  // always match what the cold path would produce.
  EstimationOptions EffectiveEstimation() const;
  OptimizerOptions EffectiveOptimizer() const;
  // Runs the reduction for Execute/ExplainAnalyze and records the observed
  // rates. Returns null when transfer is off or the query is single-table.
  StatusOr<std::shared_ptr<const PtResult>> MaybeRunPredicateTransfer(
      const PreparedQuery& prepared) const;

  // The estimation pipeline behind the public Estimate, without the
  // flight-recorder offer: Execute/ExplainAnalyze reuse it to fetch the
  // per-rule estimates for their own records without logging a second,
  // synthetic Estimate record. `seconds` (optional) receives the call's
  // wall-clock.
  StatusOr<EstimateResult> EstimateImpl(const PreparedQuery& prepared,
                                        double* seconds) const;
  // Fills the fields shared by every record (fingerprint, snapshot version,
  // headline rule name, per-rule estimates).
  QueryRecord BaseRecord(const PreparedQuery& prepared,
                         const EstimateResult& estimate) const;
  // BaseRecord plus what every executed query's record carries (Execute and
  // ExplainAnalyze alike): the measured count against each estimate, the
  // predicate-transfer evidence (`pt` may be null) and the executed plan's
  // operator count.
  QueryRecord ExecutedRecord(const PreparedQuery& prepared,
                             const EstimateResult& estimate, double actual,
                             const PtResult* pt,
                             int64_t operators_total) const;

  // The options digests of the cache keys. When the effective options hold
  // no observation store they never change, so the constructor takes both
  // digests once and every lookup reuses them; a store's epoch moves, so
  // with one attached these stay empty and each call digests its own
  // EffectiveEstimation()/EffectiveOptimizer().
  uint64_t EstimationDigest(const EstimationOptions& estimation) const;
  uint64_t OptimizerDigest(const OptimizerOptions& optimizer) const;

  Database* database_;
  Options options_;
  std::optional<uint64_t> estimation_digest_;
  std::optional<uint64_t> optimizer_digest_;
};

class Database {
 public:
  class Options {
   public:
    // Default statistics collection for LoadTable/Analyze.
    Options& set_analyze(AnalyzeOptions analyze);
    // Total cache budget in entries, and the number of LRU shards it is
    // partitioned over.
    Options& set_cache_capacity(int64_t entries);
    Options& set_cache_shards(int shards);
    // Label distinguishing this database's cache series in the metrics
    // registry (tests and multi-tenant processes).
    Options& set_cache_label(std::string label);
    // Flight recorder (obs/flight_recorder.h): capture policy and ring
    // sizing. Disabled by default — paper-faithful sessions stay
    // byte-identical with no recorder in the loop.
    Options& set_recorder(FlightRecorder::Options recorder);
    // Accuracy drift monitor (obs/accuracy_monitor.h). Only consulted for
    // records the recorder captures, so it is inert while the recorder is
    // disabled.
    Options& set_accuracy(AccuracyMonitor::Options accuracy);
    // Capacity (in observations) of the cardinality feedback store shared
    // by this database's feedback-enabled sessions. The store itself is
    // always constructed — it costs nothing until a session with
    // EstimatorFeatures::feedback actually records into it.
    Options& set_feedback_capacity(int64_t observations);

    const AnalyzeOptions& analyze() const { return analyze_; }
    int64_t cache_capacity() const { return cache_capacity_; }
    int cache_shards() const { return cache_shards_; }
    const std::string& cache_label() const { return cache_label_; }
    const FlightRecorder::Options& recorder() const { return recorder_; }
    const AccuracyMonitor::Options& accuracy() const { return accuracy_; }
    int64_t feedback_capacity() const { return feedback_capacity_; }

    Status Validate() const;

   private:
    AnalyzeOptions analyze_;
    int64_t cache_capacity_ = 4096;
    int cache_shards_ = 16;
    std::string cache_label_ = "default";
    FlightRecorder::Options recorder_;
    AccuracyMonitor::Options accuracy_;
    int64_t feedback_capacity_ = 4096;
  };

  // Validates `options` and opens an empty database (snapshot version 0).
  static StatusOr<std::unique_ptr<Database>> Open();
  static StatusOr<std::unique_ptr<Database>> Open(Options options);

  // Direct construction for callers with statically known-good options;
  // CHECK-fails on invalid ones. Prefer Open().
  Database();
  explicit Database(Options options);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // ----- Mutations: each builds and atomically publishes a new snapshot.

  // Registers a table, analysing it with the database's default (or the
  // given) AnalyzeOptions.
  Status LoadTable(const std::string& name, Table table);
  Status LoadTable(const std::string& name, Table table,
                   const AnalyzeOptions& options);
  // Registers a table with caller-supplied statistics (what-if catalogs).
  Status LoadTableWithStats(const std::string& name, Table table,
                            TableStats stats);
  // Moves every table of a hand-built catalog in (payloads shared). The
  // bridge for dataset builders that predate the facade
  // (BuildPaperDataset & co.).
  Status ImportTables(Catalog source);

  // Re-collects statistics: the service-layer ANALYZE. One republish for
  // the whole batch.
  Status Analyze();  // All tables, default options.
  Status Analyze(const AnalyzeOptions& options);
  Status AnalyzeTable(const std::string& name, const AnalyzeOptions& options);

  // Replaces one table's statistics (what-if analysis, stats import).
  Status SetTableStats(const std::string& name, TableStats stats);

  // ----- Reads.

  // The current snapshot (never null; version 0 is the empty bootstrap).
  // Lock-free; the returned shared_ptr keeps the snapshot alive.
  std::shared_ptr<const CatalogSnapshot> snapshot() const;

  StatusOr<Session> CreateSession(Session::Options options = {}) const;

  ServiceCacheStats cache_stats() const { return cache_->Stats(); }
  const Options& options() const { return options_; }

  // ----- Flight recorder / accuracy monitor.

  // The query flight recorder. Sessions offer a QueryRecord per
  // Estimate/Execute/ExplainAnalyze call (cache hits included); the
  // configured capture policy decides what is kept.
  FlightRecorder& recorder() const { return *recorder_; }
  // Rolling per-(rule, join-level, snapshot) q-error windows fed from
  // captured executed records; raises estimator_qerror_drift gauges.
  AccuracyMonitor& accuracy_monitor() const { return *accuracy_monitor_; }

  // Captured records, oldest first (most recent last_n when last_n > 0).
  std::vector<QueryRecord> QueryLog(size_t last_n = 0) const {
    return recorder_->Snapshot(last_n);
  }
  // The same records as NDJSON lines / one JSON document
  // (tools/check_querylog.py validates the NDJSON shape).
  std::string QueryLogNdjson(size_t last_n = 0) const {
    return QueryRecordsToNdjson(QueryLog(last_n));
  }
  std::string QueryLogJson(size_t last_n = 0) const {
    return QueryRecordsToJson(QueryLog(last_n));
  }

  // Observed predicate-transfer selectivities, shared by every session of
  // this database (keyed by catalog table name, so observations transfer
  // across queries). Estimation consults it only in sessions whose
  // features() have runtime_selectivities on.
  RuntimeSelectivityStore& runtime_selectivities() const {
    return *runtime_selectivities_;
  }

  // Observed sub-plan cardinalities (estimator/feedback_store.h), shared by
  // every session of this database and keyed by canonical sub-plan
  // fingerprint (service/fingerprint.h's SubPlanFingerprint). Populated by
  // Execute/ExplainAnalyze in sessions with EstimatorFeatures::feedback;
  // consulted by Estimate/Optimize in those same sessions. A republish that
  // changes some table's digest (Analyze/AnalyzeTable/SetTableStats with
  // new statistics) invalidates observations from older snapshots; one
  // that changes no digest keeps them.
  FeedbackStore& feedback_store() const { return *feedback_store_; }

 private:
  friend class Session;

  ServiceCache& cache() const { return *cache_; }

  // Session capture hook: offers `record` to the recorder and, when it is
  // captured and carries an actual cardinality, feeds the accuracy monitor.
  void RecordQuery(const QueryRecord& record) const;

  // Runs `mutate` on a builder seeded from the current snapshot, then
  // publishes the result as the next version. Serialised by writer_mutex_.
  template <typename Fn>
  Status Mutate(Fn&& mutate);

  // Makes `snapshot` current. When it changes some table's digest, reclaims
  // the cache entries that read a changed table and ages the runtime-
  // selectivity and feedback stores together.
  void Publish(std::shared_ptr<const CatalogSnapshot> snapshot);

  Options options_;
  std::unique_ptr<ServiceCache> cache_;
  // shared_ptr: EstimationOptions holds a co-owning reference while cached
  // analyses are alive.
  std::shared_ptr<RuntimeSelectivityStore> runtime_selectivities_;
  std::shared_ptr<FeedbackStore> feedback_store_;
  std::unique_ptr<FlightRecorder> recorder_;
  std::unique_ptr<AccuracyMonitor> accuracy_monitor_;

  // Writers serialise here; readers go straight to snapshot_. Lock order:
  // writer_mutex_ before snapshot_mutex_ (Mutate holds the former across
  // Publish, which briefly takes the latter). Expressed as ACQUIRED_BEFORE
  // only in the fallback branch below — the member does not exist in the
  // atomic configuration.
#if JOINEST_SERVICE_ATOMIC_SNAPSHOT
  Mutex writer_mutex_;
#else
  Mutex writer_mutex_ JOINEST_ACQUIRED_BEFORE(snapshot_mutex_);
#endif
  uint64_t next_version_ JOINEST_GUARDED_BY(writer_mutex_) = 1;

  // Atomically swapped publication point. Guarded by its own tiny mutex
  // when the toolchain lacks a tsan-visible std::atomic<std::shared_ptr>.
#if JOINEST_SERVICE_ATOMIC_SNAPSHOT
  std::atomic<std::shared_ptr<const CatalogSnapshot>> snapshot_;
#else
  mutable Mutex snapshot_mutex_;
  std::shared_ptr<const CatalogSnapshot> snapshot_
      JOINEST_GUARDED_BY(snapshot_mutex_);
#endif
};

}  // namespace joinest

#endif  // JOINEST_SERVICE_DATABASE_H_
