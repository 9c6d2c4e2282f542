#include "service/database.h"

#include <chrono>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "obs/pool_obs.h"
#include "query/parser.h"
#include "service/fingerprint.h"

namespace joinest {

// ---------------------------------------------------------- Validation

Status ValidateAnalyzeOptions(const AnalyzeOptions& options) {
  if (!(options.sample_fraction > 0.0) || options.sample_fraction > 1.0 ||
      !std::isfinite(options.sample_fraction)) {
    return InvalidArgument("analyze: sample_fraction must be in (0, 1]");
  }
  if (options.histogram_buckets < 1) {
    return InvalidArgument("analyze: histogram_buckets must be >= 1");
  }
  if (options.end_biased_singletons < 0) {
    return InvalidArgument("analyze: end_biased_singletons must be >= 0");
  }
  if (options.num_partitions < 1) {
    return InvalidArgument("analyze: num_partitions must be >= 1");
  }
  if (options.sketch.hll_precision < 4 || options.sketch.hll_precision > 18) {
    return InvalidArgument("analyze: sketch.hll_precision must be in [4, 18]");
  }
  if (options.sketch.cms_depth < 1 || options.sketch.cms_width < 1) {
    return InvalidArgument("analyze: sketch CMS dimensions must be >= 1");
  }
  if (options.sketch.top_k < 0) {
    return InvalidArgument("analyze: sketch.top_k must be >= 0");
  }
  if (options.sketch.reservoir_capacity < 1) {
    return InvalidArgument("analyze: sketch.reservoir_capacity must be >= 1");
  }
  return Status::OK();
}

Status ValidateEstimationOptions(const EstimationOptions& options) {
  // Every combination of the estimation knobs is currently meaningful; the
  // hook exists so later knobs get a single validation point.
  (void)options;
  return Status::OK();
}

Status ValidateOptimizerOptions(const OptimizerOptions& options) {
  JOINEST_RETURN_IF_ERROR(ValidateEstimationOptions(options.estimation));
  if (options.methods.empty()) {
    return InvalidArgument("optimizer: the join-method list must not be "
                           "empty");
  }
  if (options.randomized.restarts < 1) {
    return InvalidArgument("optimizer: randomized.restarts must be >= 1");
  }
  if (options.randomized.max_moves < 1) {
    return InvalidArgument("optimizer: randomized.max_moves must be >= 1");
  }
  if (!(options.randomized.initial_temperature > 0.0) ||
      !std::isfinite(options.randomized.initial_temperature)) {
    return InvalidArgument(
        "optimizer: randomized.initial_temperature must be positive");
  }
  if (!(options.randomized.cooling > 0.0) ||
      !(options.randomized.cooling < 1.0)) {
    return InvalidArgument("optimizer: randomized.cooling must be in (0, 1)");
  }
  if (options.allow_bushy &&
      options.enumerator !=
          OptimizerOptions::Enumerator::kDynamicProgramming) {
    return InvalidArgument("optimizer: allow_bushy requires the "
                           "dynamic-programming enumerator");
  }
  for (double cost : {options.cost.scan_tuple_cost, options.cost.filter_cost,
                      options.cost.compare_cost, options.cost.hash_build_cost,
                      options.cost.hash_probe_cost, options.cost.sort_factor,
                      options.cost.merge_cost, options.cost.index_build_cost,
                      options.cost.index_probe_cost,
                      options.cost.output_tuple_cost}) {
    if (!std::isfinite(cost) || cost < 0.0) {
      return InvalidArgument("optimizer: cost parameters must be finite and "
                             ">= 0");
    }
  }
  return Status::OK();
}

// ------------------------------------------------------ Session options

namespace {

// Keeps the two views consistent: features_ is the public face of the
// paper knobs; optimizer_.estimation is what the pipeline consumes. The
// facade is the one sanctioned translator between them, hence the
// lint:allow on the raw field writes.
void PullFeaturesFromEstimation(const EstimationOptions& estimation,
                                EstimatorFeatures& features) {
  features.transitive_closure = estimation.transitive_closure;
  features.histogram_join_selectivity = estimation.histogram_join_selectivity;
}

void PushFeaturesIntoEstimation(const EstimatorFeatures& features,
                                EstimationOptions& estimation) {
  // lint:allow(estimation-options-pokes) — the facade's translation point.
  estimation.transitive_closure = features.transitive_closure;
  // lint:allow(estimation-options-pokes) — the facade's translation point.
  estimation.histogram_join_selectivity = features.histogram_join_selectivity;
}

// EstimationOptionsDigest with the rule (and the representative pick it
// may use) left out. AnalyzedQuery::Create reads the rule only for a metric
// label, so analyses whose digests agree here agree on every estimate taken
// under an explicit rule.
uint64_t DigestApartFromRule(EstimationOptions options) {
  // lint:allow(estimation-options-pokes) — normalises a copy for comparison.
  options.rule = SelectivityRule::kLargest;
  // lint:allow(estimation-options-pokes) — normalises a copy for comparison.
  options.representative = RepresentativePick::kLargest;
  return EstimationOptionsDigest(options);
}

}  // namespace

Session::Options& Session::Options::set_preset(AlgorithmPreset preset) {
  optimizer_.estimation = PresetOptions(preset);
  PullFeaturesFromEstimation(optimizer_.estimation, features_);
  return *this;
}

Session::Options& Session::Options::set_features(EstimatorFeatures features) {
  features_ = features;
  PushFeaturesIntoEstimation(features_, optimizer_.estimation);
  return *this;
}

Session::Options& Session::Options::set_estimation(
    EstimationOptions estimation) {
  optimizer_.estimation = std::move(estimation);
  PullFeaturesFromEstimation(optimizer_.estimation, features_);
  return *this;
}

Session::Options& Session::Options::set_optimizer(OptimizerOptions optimizer) {
  optimizer_ = std::move(optimizer);
  PullFeaturesFromEstimation(optimizer_.estimation, features_);
  return *this;
}

Session::Options& Session::Options::set_use_cache(bool use_cache) {
  use_cache_ = use_cache;
  return *this;
}

Session::Options& Session::Options::set_capture_trace(bool capture) {
  capture_trace_ = capture;
  return *this;
}

Session::Options& Session::Options::set_with_true_cardinalities(
    bool with_true) {
  with_true_cardinalities_ = with_true;
  return *this;
}

Status Session::Options::Validate() const {
  JOINEST_RETURN_IF_ERROR(features_.Validate());
  return ValidateOptimizerOptions(optimizer_);
}

// ----------------------------------------------------- Database options

Database::Options& Database::Options::set_analyze(AnalyzeOptions analyze) {
  analyze_ = std::move(analyze);
  return *this;
}

Database::Options& Database::Options::set_cache_capacity(int64_t entries) {
  cache_capacity_ = entries;
  return *this;
}

Database::Options& Database::Options::set_cache_shards(int shards) {
  cache_shards_ = shards;
  return *this;
}

Database::Options& Database::Options::set_cache_label(std::string label) {
  cache_label_ = std::move(label);
  return *this;
}

Database::Options& Database::Options::set_recorder(
    FlightRecorder::Options recorder) {
  recorder_ = recorder;
  return *this;
}

Database::Options& Database::Options::set_accuracy(
    AccuracyMonitor::Options accuracy) {
  accuracy_ = accuracy;
  return *this;
}

Database::Options& Database::Options::set_feedback_capacity(
    int64_t observations) {
  feedback_capacity_ = observations;
  return *this;
}

Status Database::Options::Validate() const {
  if (feedback_capacity_ < 1 || feedback_capacity_ > (int64_t{1} << 30)) {
    return InvalidArgument("database: feedback_capacity must be in [1, 2^30]");
  }
  if (cache_capacity_ < 1 || cache_capacity_ > (int64_t{1} << 30)) {
    return InvalidArgument("database: cache_capacity must be in [1, 2^30]");
  }
  if (cache_shards_ < 1 || cache_shards_ > 4096) {
    return InvalidArgument("database: cache_shards must be in [1, 4096]");
  }
  if (cache_label_.empty()) {
    return InvalidArgument("database: cache_label must not be empty");
  }
  JOINEST_RETURN_IF_ERROR(recorder_.Validate());
  JOINEST_RETURN_IF_ERROR(accuracy_.Validate());
  return ValidateAnalyzeOptions(analyze_);
}

// ------------------------------------------------------------- Payloads

struct EstimateResult::Payload {
  std::shared_ptr<const CatalogSnapshot> snapshot;  // Keeps analyzed valid.
  AnalyzedQuery analyzed;
  double rows = 0;
  double groups = 0;
  std::vector<RuleEstimate> per_rule;
};

double EstimateResult::rows() const {
  JOINEST_CHECK(payload_ != nullptr);
  return payload_->rows;
}

double EstimateResult::groups() const {
  JOINEST_CHECK(payload_ != nullptr);
  return payload_->groups;
}

const std::vector<EstimateResult::RuleEstimate>& EstimateResult::per_rule()
    const {
  JOINEST_CHECK(payload_ != nullptr);
  return payload_->per_rule;
}

const AnalyzedQuery& EstimateResult::analysis() const {
  JOINEST_CHECK(payload_ != nullptr);
  return payload_->analyzed;
}

uint64_t EstimateResult::snapshot_version() const {
  JOINEST_CHECK(payload_ != nullptr);
  return payload_->snapshot->version();
}

struct PlannedQuery::Payload {
  std::shared_ptr<const CatalogSnapshot> snapshot;  // Keeps the plan valid.
  QuerySpec spec;
  OptimizedPlan plan;
};

const PlanNode& PlannedQuery::plan() const {
  JOINEST_CHECK(payload_ != nullptr);
  return *payload_->plan.root;
}

double PlannedQuery::estimated_cost() const {
  JOINEST_CHECK(payload_ != nullptr);
  return payload_->plan.estimated_cost;
}

double PlannedQuery::estimated_rows() const {
  JOINEST_CHECK(payload_ != nullptr);
  return payload_->plan.estimated_rows;
}

const std::vector<int>& PlannedQuery::join_order() const {
  JOINEST_CHECK(payload_ != nullptr);
  return payload_->plan.join_order;
}

const std::vector<double>& PlannedQuery::intermediate_estimates() const {
  JOINEST_CHECK(payload_ != nullptr);
  return payload_->plan.intermediate_estimates;
}

std::string PlannedQuery::ToString() const {
  JOINEST_CHECK(payload_ != nullptr);
  return PlanToString(*payload_->plan.root, payload_->snapshot->catalog(),
                      payload_->spec);
}

uint64_t PlannedQuery::snapshot_version() const {
  JOINEST_CHECK(payload_ != nullptr);
  return payload_->snapshot->version();
}

// -------------------------------------------------------------- Session

namespace {

// Cold/warm estimate latency, registered once (the registry lookup takes a
// mutex — too hot for the cache-hit path).
HistogramMetric& EstimateSeconds(bool warm) {
  static HistogramMetric& cold = MetricsRegistry::Global().GetHistogram(
      "service_estimate_seconds", "Session::Estimate latency",
      HistogramBuckets::Seconds(), {{"path", "cold"}});
  static HistogramMetric& hot = MetricsRegistry::Global().GetHistogram(
      "service_estimate_seconds", "Session::Estimate latency",
      HistogramBuckets::Seconds(), {{"path", "warm"}});
  return warm ? hot : cold;
}

Status CheckPrepared(const PreparedQuery& prepared) {
  if (prepared.snapshot == nullptr) {
    return InvalidArgument("prepared query carries no snapshot (was it "
                           "default-constructed?)");
  }
  return Status::OK();
}

// The cache key's table component: the pinned snapshot's digests of the
// tables `prepared` reads, in spec.tables order. Every lookup builds it, and
// the digests are already FNV outputs, so one multiply per table combines
// them (as ServiceCacheKeyHash does) where Fingerprint would take eight.
uint64_t TablesDigest(const PreparedQuery& prepared) {
  uint64_t digest = 14695981039346656037ull;
  for (const TableRef& table : prepared.spec.tables) {
    digest = digest * 1099511628211ull ^
             prepared.snapshot->table_digest(table.catalog_id);
  }
  return digest;
}

// What a cache entry records for Reclaim: the tables `prepared` reads and
// their digests in its pinned snapshot.
std::vector<SourceTable> SourceTables(const PreparedQuery& prepared) {
  std::vector<SourceTable> tables;
  tables.reserve(prepared.spec.tables.size());
  for (const TableRef& table : prepared.spec.tables) {
    tables.push_back(SourceTable{
        table.catalog_id, prepared.snapshot->table_digest(table.catalog_id)});
  }
  return tables;
}

}  // namespace

Session::Session(Database* database, Options options)
    : database_(database), options_(std::move(options)) {
  // The stores' epochs are the only inputs of the options digests that
  // move after this point.
  const EstimationOptions estimation = EffectiveEstimation();
  if (estimation.runtime_selectivities == nullptr &&
      estimation.feedback.store == nullptr) {
    estimation_digest_ = EstimationOptionsDigest(estimation);
    optimizer_digest_ = OptimizerOptionsDigest(EffectiveOptimizer());
  }
}

uint64_t Session::EstimationDigest(const EstimationOptions& estimation) const {
  return estimation_digest_.has_value() ? *estimation_digest_
                                        : EstimationOptionsDigest(estimation);
}

uint64_t Session::OptimizerDigest(const OptimizerOptions& optimizer) const {
  return optimizer_digest_.has_value() ? *optimizer_digest_
                                       : OptimizerOptionsDigest(optimizer);
}

EstimationOptions Session::EffectiveEstimation() const {
  EstimationOptions estimation = options_.estimation();
  if (options_.features().runtime_selectivities) {
    // lint:allow(estimation-options-pokes) — the facade's injection point.
    estimation.runtime_selectivities = database_->runtime_selectivities_;
  }
  if (options_.feedback()) {
    // lint:allow(estimation-options-pokes) — the facade's injection point.
    estimation.feedback.store = database_->feedback_store_;
    // lint:allow(estimation-options-pokes) — the facade's injection point.
    estimation.feedback.fingerprint = &SubPlanFingerprint;
    // lint:allow(estimation-options-pokes) — the facade's injection point.
    estimation.feedback.min_tables = options_.features().feedback_min_tables;
  }
  return estimation;
}

OptimizerOptions Session::EffectiveOptimizer() const {
  OptimizerOptions optimizer = options_.optimizer();
  // Same injection for the optimizer's embedded copy, so plan enumeration
  // and the headline estimate agree about every observation.
  optimizer.estimation = EffectiveEstimation();
  return optimizer;
}

StatusOr<std::shared_ptr<const PtResult>> Session::MaybeRunPredicateTransfer(
    const PreparedQuery& prepared) const {
  if (!options_.features().runtime_selectivities ||
      prepared.spec.num_tables() < 2) {
    return std::shared_ptr<const PtResult>();
  }
  JOINEST_ASSIGN_OR_RETURN(
      PtResult pt,
      RunPredicateTransfer(prepared.snapshot->catalog(), prepared.spec));
  auto shared = std::make_shared<const PtResult>(std::move(pt));
  // Feed the observed rates back; later Estimate/Optimize calls in
  // transfer-enabled sessions see them (the store epoch in the options
  // digest invalidates stale cached analyses).
  RecordRuntimeSelectivities(*shared, *database_->runtime_selectivities_);
  return shared;
}

StatusOr<PreparedQuery> Session::Prepare(const std::string& sql) const {
  const auto start = std::chrono::steady_clock::now();
  PreparedQuery prepared;
  prepared.snapshot = database_->snapshot();
  prepared.sql = sql;
  JOINEST_ASSIGN_OR_RETURN(prepared.spec,
                           ParseQuery(prepared.snapshot->catalog(), sql));
  prepared.fingerprint = QuerySpecFingerprint(prepared.spec);
  prepared.parse_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  return prepared;
}

QueryRecord Session::BaseRecord(const PreparedQuery& prepared,
                                const EstimateResult& estimate) const {
  QueryRecord record;
  record.fingerprint = prepared.fingerprint;
  record.snapshot_version = prepared.snapshot->version();
  record.rule = SelectivityRuleName(options_.estimation().rule);
  record.estimated_rows = estimate.rows();
  record.parse_seconds = prepared.parse_seconds;
  record.per_rule.reserve(estimate.per_rule().size());
  for (const EstimateResult::RuleEstimate& rule : estimate.per_rule()) {
    record.per_rule.push_back(
        QueryRecord::RuleEstimate{rule.rule, rule.rows, 0.0});
  }
  return record;
}

StatusOr<EstimateResult> Session::Estimate(
    const PreparedQuery& prepared) const {
  double seconds = 0.0;
  JOINEST_ASSIGN_OR_RETURN(EstimateResult result,
                           EstimateImpl(prepared, &seconds));
  if (database_->recorder().enabled()) {
    QueryRecord record = BaseRecord(prepared, result);
    record.api = QueryRecord::Api::kEstimate;
    record.cache_hit = result.cache_hit();
    record.estimate_seconds = seconds;
    record.total_seconds = seconds;
    database_->RecordQuery(record);
  }
  return result;
}

StatusOr<EstimateResult> Session::EstimateImpl(const PreparedQuery& prepared,
                                               double* seconds) const {
  const auto call_start = std::chrono::steady_clock::now();
  const auto elapsed = [call_start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         call_start)
        .count();
  };
  JOINEST_RETURN_IF_ERROR(CheckPrepared(prepared));
  const EstimationOptions estimation = EffectiveEstimation();
  const ServiceCacheKey key{prepared.fingerprint, TablesDigest(prepared),
                            EstimationDigest(estimation),
                            CacheEntryKind::kAnalysis};
  if (options_.use_cache()) {
    if (std::shared_ptr<const void> hit = database_->cache().Lookup(key)) {
      const double warm_seconds = elapsed();
      EstimateSeconds(/*warm=*/true).Observe(warm_seconds);
      if (seconds != nullptr) *seconds = warm_seconds;
      EstimateResult result;
      result.payload_ =
          std::static_pointer_cast<const EstimateResult::Payload>(hit);
      result.cache_hit_ = true;
      return result;
    }
  }

  const Catalog& catalog = prepared.snapshot->catalog();
  JOINEST_ASSIGN_OR_RETURN(
      AnalyzedQuery analyzed,
      AnalyzedQuery::Create(catalog, prepared.spec, estimation));

  auto payload = std::make_shared<EstimateResult::Payload>(
      EstimateResult::Payload{prepared.snapshot, std::move(analyzed), 0, 0,
                              {}});
  payload->rows = payload->analyzed.EstimateFullJoin();
  payload->groups = payload->analyzed.EstimateGroupCount();

  // The paper's comparison rules, computed while everything is hot; a
  // cache hit then answers the whole §8 row at once. The headline analysis
  // answers the rows of the preset it matches apart from the rule.
  static const uint64_t kElsDigest =
      DigestApartFromRule(PresetOptions(AlgorithmPreset::kELS));
  static const uint64_t kStandardDigest =
      DigestApartFromRule(PresetOptions(AlgorithmPreset::kSM));
  const uint64_t headline_digest = DigestApartFromRule(estimation);
  const AnalyzedQuery* headline = &payload->analyzed;
  std::vector<int> order(static_cast<size_t>(prepared.spec.num_tables()));
  std::iota(order.begin(), order.end(), 0);
  JOINEST_ASSIGN_OR_RETURN(
      const PaperRuleEstimates rules,
      EstimatePaperRules(catalog, prepared.spec, order,
                         headline_digest == kElsDigest ? headline : nullptr,
                         headline_digest == kStandardDigest ? headline
                                                            : nullptr));
  payload->per_rule = {{"LS", rules.ls.back()},
                       {"M", rules.m.back()},
                       {"SS", rules.ss.back()}};

  if (options_.use_cache()) {
    database_->cache().Insert(key, payload, SourceTables(prepared));
  }

  const double cold_seconds = elapsed();
  EstimateSeconds(/*warm=*/false).Observe(cold_seconds);
  if (seconds != nullptr) *seconds = cold_seconds;
  EstimateResult result;
  result.payload_ = std::move(payload);
  result.cache_hit_ = false;
  return result;
}

StatusOr<EstimateResult> Session::Estimate(const std::string& sql) const {
  JOINEST_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(sql));
  return Estimate(prepared);
}

StatusOr<PlannedQuery> Session::Optimize(const PreparedQuery& prepared) const {
  JOINEST_RETURN_IF_ERROR(CheckPrepared(prepared));
  const OptimizerOptions optimizer = EffectiveOptimizer();
  const ServiceCacheKey key{prepared.fingerprint, TablesDigest(prepared),
                            OptimizerDigest(optimizer),
                            CacheEntryKind::kPlan};
  if (options_.use_cache()) {
    if (std::shared_ptr<const void> hit = database_->cache().Lookup(key)) {
      PlannedQuery result;
      result.payload_ =
          std::static_pointer_cast<const PlannedQuery::Payload>(hit);
      result.cache_hit_ = true;
      return result;
    }
  }

  JOINEST_ASSIGN_OR_RETURN(
      OptimizedPlan plan,
      OptimizeQuery(prepared.snapshot->catalog(), prepared.spec, optimizer));
  auto payload = std::make_shared<PlannedQuery::Payload>(PlannedQuery::Payload{
      prepared.snapshot, prepared.spec, std::move(plan)});

  if (options_.use_cache()) {
    database_->cache().Insert(key, payload, SourceTables(prepared));
  }

  PlannedQuery result;
  result.payload_ = std::move(payload);
  result.cache_hit_ = false;
  return result;
}

StatusOr<PlannedQuery> Session::Optimize(const std::string& sql) const {
  JOINEST_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(sql));
  return Optimize(prepared);
}

namespace {

// Copies the predicate-transfer evidence and plan size into a record.
void FillRuntimeFields(const PtResult* pt, const ExecutionResult& execution,
                       QueryRecord& record) {
  if (pt != nullptr) {
    record.pt_seconds = pt->seconds;
    record.pt_rows_pruned = static_cast<double>(pt->rows_pruned());
    record.pt_filters.reserve(pt->filters.size());
    for (const PtFilterStats& f : pt->filters) {
      record.pt_filters.push_back(
          QueryRecord::PtFilter{f.table_name, f.column_name, f.pass_rate});
    }
  }
  record.operators_total = execution.operators_total;
}

// Bitmask covering every query-local table.
uint64_t FullTableMask(int num_tables) {
  return num_tables >= 64 ? ~uint64_t{0}
                          : (uint64_t{1} << num_tables) - 1;
}

}  // namespace

StatusOr<ExecuteResult> Session::Execute(const PreparedQuery& prepared) const {
  const auto call_start = std::chrono::steady_clock::now();
  JOINEST_ASSIGN_OR_RETURN(PlannedQuery planned, Optimize(prepared));
  JOINEST_ASSIGN_OR_RETURN(std::shared_ptr<const PtResult> pt,
                           MaybeRunPredicateTransfer(prepared));
  JOINEST_ASSIGN_OR_RETURN(
      ExecutionResult execution,
      ExecutePlan(prepared.snapshot->catalog(), prepared.spec, planned.plan(),
                  pt != nullptr ? &pt->selections : nullptr));
  ExecuteResult result;
  result.execution = std::move(execution);
  result.plan = std::move(planned);
  result.predicate_transfer = std::move(pt);

  const bool feedback_on = options_.feedback();
  if (database_->recorder().enabled() || feedback_on) {
    // EstimateImpl, not Estimate: the per-rule estimates belong in THIS
    // record, not in an extra synthetic Estimate record. Memoised, so a
    // warm workload pays one cache probe. The feedback loop reuses the
    // analysis for its CLOSED predicate set — fingerprints computed over
    // the closure match across syntactically different spellings.
    double estimate_seconds = 0.0;
    StatusOr<EstimateResult> estimate =
        EstimateImpl(prepared, &estimate_seconds);
    if (estimate.ok()) {
      const double actual = static_cast<double>(result.execution.count);
      const uint64_t subplan = SubPlanFingerprint(
          prepared.snapshot->catalog(), prepared.spec,
          estimate->analysis().predicates(),
          FullTableMask(prepared.spec.num_tables()));
      if (feedback_on) {
        // COUNT(*) of the join IS the join's cardinality (GROUP BY only
        // changes the output grouping, not the joined row count).
        database_->feedback_store_->Record(
            subplan, prepared.snapshot->version(), actual);
      }
      if (database_->recorder().enabled()) {
        QueryRecord record = BaseRecord(prepared, *estimate);
        record.api = QueryRecord::Api::kExecute;
        record.cache_hit = result.plan.cache_hit();
        record.actual_rows = actual;
        record.subplan_fingerprint = subplan;
        record.q_error = QErrorValue(record.estimated_rows, actual);
        for (QueryRecord::RuleEstimate& rule : record.per_rule) {
          rule.q_error = QErrorValue(rule.rows, actual);
        }
        FillRuntimeFields(result.predicate_transfer.get(), result.execution,
                          record);
        record.estimate_seconds = estimate_seconds;
        record.execute_seconds = result.execution.seconds;
        record.total_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          call_start)
                .count();
        database_->RecordQuery(record);
      }
    }
  }
  return result;
}

StatusOr<ExecuteResult> Session::Execute(const std::string& sql) const {
  JOINEST_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(sql));
  return Execute(prepared);
}

StatusOr<ExplainAnalyzeReport> Session::ExplainAnalyze(
    const PreparedQuery& prepared) const {
  JOINEST_ASSIGN_OR_RETURN(PlannedQuery planned, Optimize(prepared));
  JOINEST_ASSIGN_OR_RETURN(std::shared_ptr<const PtResult> pt,
                           MaybeRunPredicateTransfer(prepared));
  ExplainAnalyzeOptions ea;
  ea.estimation = EffectiveEstimation();
  ea.with_true_cardinalities = options_.with_true_cardinalities();
  ea.capture_trace = options_.capture_trace();
  if (pt != nullptr) {
    ea.scan_selections = &pt->selections;
    for (const PtFilterStats& f : pt->filters) {
      ea.predicate_transfer.push_back(PtFilterRow{
          f.table_name, f.column_name, f.forward, f.probed, f.passed,
          f.pass_rate});
    }
  }
  JOINEST_ASSIGN_OR_RETURN(
      ExplainAnalyzeReport report,
      ExplainAnalyzePlan(prepared.snapshot->catalog(), prepared.spec,
                         planned.plan(), ea));

  const bool feedback_on = options_.feedback();
  if (database_->recorder().enabled() || feedback_on) {
    double estimate_seconds = 0.0;
    StatusOr<EstimateResult> estimate =
        EstimateImpl(prepared, &estimate_seconds);
    if (estimate.ok()) {
      const Catalog& catalog = prepared.snapshot->catalog();
      const std::vector<Predicate>& closed =
          estimate->analysis().predicates();
      const uint64_t version = prepared.snapshot->version();
      const double actual = static_cast<double>(report.count);
      const uint64_t subplan =
          SubPlanFingerprint(catalog, prepared.spec, closed,
                             FullTableMask(prepared.spec.num_tables()));

      // Per-join-level prefix fingerprints: the executor walks the planned
      // left-deep leaf order, so level k's actual cardinality is the join
      // of order[0..k+1]. This is the feedback store's richest food —
      // every prefix of one EXPLAIN ANALYZE seeds later estimates of any
      // query containing the same canonical sub-plan.
      const std::vector<int>& order = planned.join_order();
      std::vector<uint64_t> prefixes(report.join_levels.size(), 0);
      if (order.size() == static_cast<size_t>(prepared.spec.num_tables()) &&
          report.join_levels.size() + 1 == order.size()) {
        uint64_t prefix_mask = uint64_t{1} << order[0];
        for (size_t k = 0; k < report.join_levels.size(); ++k) {
          prefix_mask |= uint64_t{1} << order[k + 1];
          prefixes[k] =
              SubPlanFingerprint(catalog, prepared.spec, closed, prefix_mask);
        }
      }

      if (feedback_on) {
        database_->feedback_store_->Record(subplan, version, actual);
        for (size_t k = 0; k < report.join_levels.size(); ++k) {
          // True per-level cardinalities are only present when the session
          // ran the counting sub-queries (negative means "not measured").
          const double level_actual =
              static_cast<double>(report.join_levels[k].actual);
          if (prefixes[k] != 0 && level_actual >= 0.0) {
            database_->feedback_store_->Record(prefixes[k], version,
                                               level_actual);
          }
        }
      }

      if (database_->recorder().enabled()) {
        QueryRecord record = BaseRecord(prepared, *estimate);
        record.api = QueryRecord::Api::kExplainAnalyze;
        record.cache_hit = planned.cache_hit();
        record.actual_rows = actual;
        record.subplan_fingerprint = subplan;
        record.q_error = QErrorValue(record.estimated_rows, actual);
        for (QueryRecord::RuleEstimate& rule : record.per_rule) {
          rule.q_error = QErrorValue(rule.rows, actual);
        }
        record.join_levels.reserve(report.join_levels.size());
        for (size_t k = 0; k < report.join_levels.size(); ++k) {
          const ExplainAnalyzeReport::JoinLevel& level = report.join_levels[k];
          record.join_levels.push_back(QueryRecord::JoinLevel{
              level.level, static_cast<double>(level.actual), level.est_ls,
              level.est_m, level.est_ss, level.q_ls, level.q_m, level.q_ss,
              prefixes[k]});
        }
        if (pt != nullptr) {
          record.pt_seconds = pt->seconds;
          record.pt_rows_pruned = static_cast<double>(pt->rows_pruned());
          record.pt_filters.reserve(pt->filters.size());
          for (const PtFilterStats& f : pt->filters) {
            record.pt_filters.push_back(QueryRecord::PtFilter{
                f.table_name, f.column_name, f.pass_rate});
          }
        }
        record.estimate_seconds = estimate_seconds;
        record.execute_seconds = report.seconds;
        record.total_seconds = record.estimate_seconds + record.pt_seconds +
                               record.execute_seconds;
        database_->RecordQuery(record);
      }
    }
  }
  return report;
}

StatusOr<ExplainAnalyzeReport> Session::ExplainAnalyze(
    const std::string& sql) const {
  JOINEST_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(sql));
  return ExplainAnalyze(prepared);
}

// ------------------------------------------------------------- Database

StatusOr<std::unique_ptr<Database>> Database::Open() {
  return Open(Options());
}

StatusOr<std::unique_ptr<Database>> Database::Open(Options options) {
  JOINEST_RETURN_IF_ERROR(options.Validate());
  return std::make_unique<Database>(std::move(options));
}

Database::Database() : Database(Options()) {}

Database::Database(Options options) : options_(std::move(options)) {
  const Status valid = options_.Validate();
  JOINEST_CHECK(valid.ok()) << "Database options invalid: " << valid;
  cache_ = std::make_unique<ServiceCache>(options_.cache_capacity(),
                                          options_.cache_shards(),
                                          options_.cache_label());
  runtime_selectivities_ = std::make_shared<RuntimeSelectivityStore>();
  FeedbackStore::Options feedback_options;
  feedback_options.capacity = options_.feedback_capacity();
  feedback_store_ = std::make_shared<FeedbackStore>(feedback_options);
  recorder_ = std::make_unique<FlightRecorder>(options_.recorder());
  accuracy_monitor_ = std::make_unique<AccuracyMonitor>(options_.accuracy());
  // Opening a database is the service's natural "threads will be used"
  // moment: install the pool metrics observer before any stage submits.
  EnsureThreadPoolMetrics();
  // Version 0: the empty bootstrap snapshot, so snapshot() is never null.
  Publish(SnapshotBuilder().Build(0));
}

ThreadPool& Database::thread_pool() const { return SharedThreadPool(); }

template <typename Fn>
Status Database::Mutate(Fn&& mutate) {
  MutexLock lock(writer_mutex_);
  SnapshotBuilder builder(*snapshot());
  JOINEST_RETURN_IF_ERROR(mutate(builder));
  Publish(std::move(builder).Build(next_version_++));
  return Status::OK();
}

void Database::Publish(std::shared_ptr<const CatalogSnapshot> snapshot) {
  const uint64_t version = snapshot->version();
  // Tables whose digest this publish changed. Ids are stable and new tables
  // only append, so only the previous snapshot's ids can have changed.
  std::vector<std::string> changed;
  if (const std::shared_ptr<const CatalogSnapshot> previous =
          this->snapshot()) {
    const std::vector<uint64_t>& before = previous->table_digests();
    for (size_t t = 0; t < before.size(); ++t) {
      if (snapshot->table_digest(static_cast<int>(t)) != before[t]) {
        changed.push_back(snapshot->catalog().table_name(static_cast<int>(t)));
      }
    }
  }
#if JOINEST_SERVICE_ATOMIC_SNAPSHOT
  snapshot_.store(snapshot, std::memory_order_release);
#else
  {
    MutexLock lock(snapshot_mutex_);
    snapshot_ = snapshot;
  }
#endif
  // A publish that changed no digest (a re-ANALYZE of unchanged data, a new
  // table) invalidates nothing and ages nothing.
  if (!changed.empty()) {
    // Entries that read a changed table cannot hit a query prepared on this
    // snapshot; reclaim them eagerly rather than waiting for LRU pressure.
    cache_->Reclaim(snapshot->table_digests());
    // Observations recorded against the old statistics may describe a
    // statistical view that no longer holds, so both stores age together.
    // Runtime rates are keyed by table name, so only the changed tables'
    // go; feedback keys are whole sub-plans, so every observation older
    // than this snapshot goes.
    runtime_selectivities_->ForgetTables(changed);
    feedback_store_->InvalidateBefore(version);
  }
  MetricsRegistry::Global()
      .GetGauge("service_snapshot_version",
                "version of the currently published catalog snapshot",
                {{"db", options_.cache_label()}})
      .Set(static_cast<double>(version));
}

std::shared_ptr<const CatalogSnapshot> Database::snapshot() const {
#if JOINEST_SERVICE_ATOMIC_SNAPSHOT
  return snapshot_.load(std::memory_order_acquire);
#else
  MutexLock lock(snapshot_mutex_);
  return snapshot_;
#endif
}

Status Database::LoadTable(const std::string& name, Table table) {
  return LoadTable(name, std::move(table), options_.analyze());
}

Status Database::LoadTable(const std::string& name, Table table,
                           const AnalyzeOptions& options) {
  JOINEST_RETURN_IF_ERROR(ValidateAnalyzeOptions(options));
  return Mutate([&](SnapshotBuilder& builder) -> Status {
    JOINEST_ASSIGN_OR_RETURN(
        [[maybe_unused]] int id,
        builder.AddTable(name, std::move(table), options));
    return Status::OK();
  });
}

Status Database::LoadTableWithStats(const std::string& name, Table table,
                                    TableStats stats) {
  return Mutate([&](SnapshotBuilder& builder) -> Status {
    JOINEST_ASSIGN_OR_RETURN(
        [[maybe_unused]] int id,
        builder.AddTableWithStats(name, std::move(table), std::move(stats)));
    return Status::OK();
  });
}

Status Database::ImportTables(Catalog source) {
  return Mutate([&](SnapshotBuilder& builder) -> Status {
    return builder.ImportTables(source);
  });
}

Status Database::Analyze() { return Analyze(options_.analyze()); }

Status Database::Analyze(const AnalyzeOptions& options) {
  JOINEST_RETURN_IF_ERROR(ValidateAnalyzeOptions(options));
  return Mutate([&](SnapshotBuilder& builder) -> Status {
    return builder.ReanalyzeAll(options);
  });
}

Status Database::AnalyzeTable(const std::string& name,
                              const AnalyzeOptions& options) {
  JOINEST_RETURN_IF_ERROR(ValidateAnalyzeOptions(options));
  return Mutate([&](SnapshotBuilder& builder) -> Status {
    JOINEST_ASSIGN_OR_RETURN(int id, builder.ResolveTable(name));
    return builder.Reanalyze(id, options);
  });
}

Status Database::SetTableStats(const std::string& name, TableStats stats) {
  return Mutate([&](SnapshotBuilder& builder) -> Status {
    JOINEST_ASSIGN_OR_RETURN(int id, builder.ResolveTable(name));
    return builder.SetStats(id, std::move(stats));
  });
}

void Database::RecordQuery(const QueryRecord& record) const {
  // The monitor only sees records that survived the capture policy, so the
  // querylog a drift alert points at always contains its evidence.
  if (recorder_->Record(record) && record.actual_rows >= 0.0) {
    accuracy_monitor_->Ingest(record);
  }
}

StatusOr<Session> Database::CreateSession(Session::Options options) const {
  JOINEST_RETURN_IF_ERROR(options.Validate());
  return Session(const_cast<Database*>(this), std::move(options));
}

}  // namespace joinest
