// Feedback-driven estimation: the FeedbackStore, the canonical sub-plan
// fingerprint, the estimator's consultation logic, the EstimatorFeatures
// options surface, and the service integration (ingest on Execute/
// ExplainAnalyze, aging on reanalyze, cache-digest epoch wiring). The
// concurrency tests run under tsan via tools/run_sanitizers.sh.

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "estimator/analyzed_query.h"
#include "estimator/features.h"
#include "estimator/feedback_store.h"
#include "joinest/joinest.h"
#include "service/fingerprint.h"
#include "tests/test_util.h"

namespace joinest {
namespace {

constexpr char kJoinSql[] =
    "SELECT COUNT(*) FROM R1, R2, R3 WHERE R1.x = R2.y AND R2.y = R3.z";

std::unique_ptr<Database> OpenExample1(Database::Options options = {}) {
  auto db = Database::Open(std::move(options));
  JOINEST_CHECK(db.ok()) << db.status();
  Catalog staged;
  JOINEST_CHECK(BuildExample1Dataset(staged).ok());
  JOINEST_CHECK((*db)->ImportTables(std::move(staged)).ok());
  return std::move(*db);
}

Session MakeSession(const Database& db, Session::Options options = {}) {
  auto session = db.CreateSession(std::move(options));
  JOINEST_CHECK(session.ok()) << session.status();
  return *session;
}

Session::Options FeedbackOptions() {
  EstimatorFeatures features;
  features.feedback = true;
  return Session::Options().set_features(features);
}

// ------------------------------------------------------- FeedbackStore

TEST(FeedbackStore, RecordLookupAndStats) {
  FeedbackStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_FALSE(store.Lookup(7).has_value());
  store.Record(7, 1, 123.0);
  EXPECT_FALSE(store.empty());
  EXPECT_EQ(store.size(), 1);
  ASSERT_TRUE(store.Lookup(7).has_value());
  EXPECT_EQ(*store.Lookup(7), 123.0);
  EXPECT_GE(store.hits(), 2);
  EXPECT_GE(store.misses(), 1);
}

TEST(FeedbackStore, IgnoresGarbageRows) {
  FeedbackStore store;
  store.Record(1, 1, -5.0);
  store.Record(2, 1, std::nan(""));
  store.Record(3, 1, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.epoch(), 0u);
}

TEST(FeedbackStore, EpochBumpsOnlyOnMaterialChange) {
  FeedbackStore store;
  const uint64_t e0 = store.epoch();
  store.Record(7, 1, 100.0);
  const uint64_t e1 = store.epoch();
  EXPECT_GT(e1, e0);
  // Same fingerprint, same rows, same snapshot: a converged workload must
  // not churn cache keys.
  store.Record(7, 1, 100.0);
  EXPECT_EQ(store.epoch(), e1);
  // Materially different value: bump.
  store.Record(7, 1, 250.0);
  const uint64_t e2 = store.epoch();
  EXPECT_GT(e2, e1);
  // Same rows under a newer snapshot: the stamp moves, the epoch does not.
  store.Record(7, 2, 250.0);
  EXPECT_EQ(store.epoch(), e2);
  store.InvalidateBefore(2);
  EXPECT_TRUE(store.Lookup(7).has_value());
}

TEST(FeedbackStore, InvalidateBeforeDropsOldSnapshots) {
  FeedbackStore store;
  store.Record(1, 1, 10.0);
  store.Record(2, 2, 20.0);
  const uint64_t before = store.epoch();
  store.InvalidateBefore(2);
  EXPECT_FALSE(store.Lookup(1).has_value());
  EXPECT_TRUE(store.Lookup(2).has_value());
  EXPECT_EQ(store.size(), 1);
  EXPECT_GT(store.epoch(), before);
  // Nothing older than 2 left: a second invalidation is a no-op epoch-wise.
  const uint64_t after = store.epoch();
  store.InvalidateBefore(2);
  EXPECT_EQ(store.epoch(), after);
}

TEST(FeedbackStore, ClearBumpsEpochOnlyWhenNonEmpty) {
  FeedbackStore store;
  store.Clear();
  EXPECT_EQ(store.epoch(), 0u);
  store.Record(1, 1, 10.0);
  const uint64_t before = store.epoch();
  store.Clear();
  EXPECT_TRUE(store.empty());
  EXPECT_GT(store.epoch(), before);
}

TEST(FeedbackStore, CapacityEvictsLeastRecentlyRecorded) {
  FeedbackStore::Options options;
  options.capacity = 2;
  FeedbackStore store(options);
  store.Record(1, 1, 10.0);
  store.Record(2, 1, 20.0);
  store.Record(3, 1, 30.0);  // Evicts fingerprint 1 (oldest recording).
  EXPECT_EQ(store.size(), 2);
  EXPECT_FALSE(store.Lookup(1).has_value());
  EXPECT_TRUE(store.Lookup(2).has_value());
  EXPECT_TRUE(store.Lookup(3).has_value());
  // Re-recording 2 refreshes it; 4 then evicts 3.
  store.Record(2, 1, 21.0);
  store.Record(4, 1, 40.0);
  EXPECT_TRUE(store.Lookup(2).has_value());
  EXPECT_FALSE(store.Lookup(3).has_value());
}

// -------------------------------------------------- SubPlanFingerprint

TEST(SubPlanFingerprint, TableOrderIndependent) {
  auto db = OpenExample1();
  const Session session = MakeSession(*db);
  auto ab = session.Prepare("SELECT COUNT(*) FROM R1, R2 WHERE R1.x = R2.y");
  auto ba = session.Prepare("SELECT COUNT(*) FROM R2, R1 WHERE R1.x = R2.y");
  ASSERT_TRUE(ab.ok() && ba.ok());
  const Catalog& catalog = ab->snapshot->catalog();
  // Different FROM order, same canonical sub-plan: identical fingerprints.
  EXPECT_EQ(SubPlanFingerprint(catalog, ab->spec, ab->spec.predicates, 0b11),
            SubPlanFingerprint(catalog, ba->spec, ba->spec.predicates, 0b11));
}

TEST(SubPlanFingerprint, PredicateSpellingIndependent) {
  auto db = OpenExample1();
  const Session session = MakeSession(*db);
  auto fwd = session.Prepare(
      "SELECT COUNT(*) FROM R1, R2 WHERE R1.x = R2.y AND R1.x < 10");
  auto rev = session.Prepare(
      "SELECT COUNT(*) FROM R1, R2 WHERE R1.x < 10 AND R2.y = R1.x");
  ASSERT_TRUE(fwd.ok() && rev.ok());
  const Catalog& catalog = fwd->snapshot->catalog();
  EXPECT_EQ(
      SubPlanFingerprint(catalog, fwd->spec, fwd->spec.predicates, 0b11),
      SubPlanFingerprint(catalog, rev->spec, rev->spec.predicates, 0b11));
}

TEST(SubPlanFingerprint, DistinguishesMasksAndPredicates) {
  auto db = OpenExample1();
  const Session session = MakeSession(*db);
  auto plain =
      session.Prepare("SELECT COUNT(*) FROM R1, R2 WHERE R1.x = R2.y");
  auto filtered = session.Prepare(
      "SELECT COUNT(*) FROM R1, R2 WHERE R1.x = R2.y AND R1.x < 10");
  auto chain = session.Prepare(kJoinSql);
  ASSERT_TRUE(plain.ok() && filtered.ok() && chain.ok());
  const Catalog& catalog = plain->snapshot->catalog();
  const uint64_t fp_plain =
      SubPlanFingerprint(catalog, plain->spec, plain->spec.predicates, 0b11);
  // Same tables, different predicate set: must differ.
  EXPECT_NE(fp_plain, SubPlanFingerprint(catalog, filtered->spec,
                                         filtered->spec.predicates, 0b11));
  // Different table subsets of one query: must differ from each other.
  const uint64_t fp_r1r2 =
      SubPlanFingerprint(catalog, chain->spec, chain->spec.predicates, 0b011);
  const uint64_t fp_r2r3 =
      SubPlanFingerprint(catalog, chain->spec, chain->spec.predicates, 0b110);
  EXPECT_NE(fp_r1r2, fp_r2r3);
  // The R1-R2 sub-plan of the chain equals the standalone R1-R2 query:
  // that collision is the entire point of the canonicalisation.
  EXPECT_EQ(fp_plain, fp_r1r2);
  // Single tables differ from each other and from pairs.
  const uint64_t fp_r1 =
      SubPlanFingerprint(catalog, chain->spec, chain->spec.predicates, 0b001);
  const uint64_t fp_r2 =
      SubPlanFingerprint(catalog, chain->spec, chain->spec.predicates, 0b010);
  EXPECT_NE(fp_r1, fp_r2);
  EXPECT_NE(fp_r1, fp_r1r2);
}

TEST(SubPlanFingerprint, SelfJoinAliasesStayDistinct) {
  auto db = OpenExample1();
  const Session session = MakeSession(*db);
  auto self = session.Prepare(
      "SELECT COUNT(*) FROM R1 AS s, R1 AS t WHERE s.x = t.x");
  ASSERT_TRUE(self.ok()) << self.status();
  const Catalog& catalog = self->snapshot->catalog();
  // Both sides are table R1, but the two query-local slots are distinct
  // (deterministic tie-break by local index): each single-table mask still
  // fingerprints the same — they really are the same sub-plan.
  EXPECT_EQ(
      SubPlanFingerprint(catalog, self->spec, self->spec.predicates, 0b01),
      SubPlanFingerprint(catalog, self->spec, self->spec.predicates, 0b10));
}

// Cache-key contract: the feedback store participates in the digest by
// presence and epoch, never by function pointer; no store (the default)
// leaves the digest exactly where it was.
TEST(SubPlanFingerprint, DigestTracksEpochNotPointer) {
  const EstimationOptions plain;
  EstimationOptions with_fn;
  with_fn.feedback.fingerprint = &SubPlanFingerprint;
  // Fingerprint routine alone (no store): not enabled, digest unchanged.
  EXPECT_EQ(EstimationOptionsDigest(plain), EstimationOptionsDigest(with_fn));

  auto store = std::make_shared<FeedbackStore>();
  EstimationOptions with_store = with_fn;
  with_store.feedback.store = store;
  const uint64_t d0 = EstimationOptionsDigest(with_store);
  EXPECT_NE(d0, EstimationOptionsDigest(plain));
  store->Record(1, 1, 10.0);  // Epoch bump -> digest moves.
  EXPECT_NE(EstimationOptionsDigest(with_store), d0);
}

// ------------------------------------------- Estimator consultation

struct AnalyzedFixture {
  std::unique_ptr<Database> db;
  PreparedQuery prepared;
  std::shared_ptr<FeedbackStore> store;
  EstimationOptions options;

  StatusOr<AnalyzedQuery> Analyze() const {
    return AnalyzedQuery::Create(prepared.snapshot->catalog(), prepared.spec,
                                 options);
  }
  uint64_t Fingerprint(const AnalyzedQuery& analyzed, uint64_t mask) const {
    return SubPlanFingerprint(prepared.snapshot->catalog(), prepared.spec,
                              analyzed.predicates(), mask);
  }
};

AnalyzedFixture MakeAnalyzedFixture(const std::string& sql = kJoinSql) {
  AnalyzedFixture f;
  f.db = OpenExample1();
  auto prepared = MakeSession(*f.db).Prepare(sql);
  JOINEST_CHECK(prepared.ok()) << prepared.status();
  f.prepared = *prepared;
  f.store = std::make_shared<FeedbackStore>();
  f.options.feedback.store = f.store;
  f.options.feedback.fingerprint = &SubPlanFingerprint;
  return f;
}

TEST(FeedbackEstimation, SingleTableObservationOverridesBaseCardinality) {
  const AnalyzedFixture f = MakeAnalyzedFixture();
  auto analyzed = f.Analyze();
  ASSERT_TRUE(analyzed.ok());
  const double stats_only = analyzed->BaseCardinality(0);
  f.store->Record(f.Fingerprint(*analyzed, 0b001), 1, stats_only * 3 + 7);
  EXPECT_EQ(analyzed->BaseCardinality(0), stats_only * 3 + 7);
  // Other tables keep their statistics-only cardinalities.
  EXPECT_EQ(analyzed->BaseCardinality(1),
            AnalyzedQuery::Create(f.prepared.snapshot->catalog(),
                                  f.prepared.spec, EstimationOptions())
                ->BaseCardinality(1));
}

TEST(FeedbackEstimation, FullPlanObservationServedVerbatim) {
  const AnalyzedFixture f = MakeAnalyzedFixture();
  auto analyzed = f.Analyze();
  ASSERT_TRUE(analyzed.ok());
  EXPECT_NE(analyzed->EstimateFullJoin(), 424242.0);
  f.store->Record(f.Fingerprint(*analyzed, 0b111), 1, 424242.0);
  EXPECT_EQ(analyzed->EstimateFullJoin(), 424242.0);
}

TEST(FeedbackEstimation, PartialPrefixAnchorsGlueStyle) {
  const AnalyzedFixture f = MakeAnalyzedFixture();
  auto analyzed = f.Analyze();
  ASSERT_TRUE(analyzed.ok());
  const std::vector<int> order = {0, 1, 2};
  const std::vector<double> plain = analyzed->EstimateOrder(order);
  ASSERT_EQ(plain.size(), 2u);
  const double stats_step = plain[1] / plain[0];  // Statistics multiplier.

  // Observe ONLY the {R1, R2} prefix at 10x the statistics estimate. The
  // anchored prefix is served verbatim, and the unobserved extension to R3
  // applies the SAME statistics-only selectivity on top of it.
  f.store->Record(f.Fingerprint(*analyzed, 0b011), 1, plain[0] * 10);
  const std::vector<double> anchored = analyzed->EstimateOrder(order);
  EXPECT_EQ(anchored[0], plain[0] * 10);
  EXPECT_DOUBLE_EQ(anchored[1] / anchored[0], stats_step);
}

TEST(FeedbackEstimation, MinTablesSkipsSmallSubPlans) {
  AnalyzedFixture f = MakeAnalyzedFixture();
  f.options.feedback.min_tables = 2;
  auto analyzed = f.Analyze();
  ASSERT_TRUE(analyzed.ok());
  const double stats_only = analyzed->BaseCardinality(0);
  f.store->Record(f.Fingerprint(*analyzed, 0b001), 1, stats_only * 5);
  // Single-table observation exists but min_tables = 2 ignores it.
  EXPECT_EQ(analyzed->BaseCardinality(0), stats_only);
  // A 2-table observation is still honoured.
  f.store->Record(f.Fingerprint(*analyzed, 0b011), 1, 999.0);
  EXPECT_EQ(analyzed->EstimateOrder({0, 1, 2})[0], 999.0);
}

TEST(FeedbackEstimation, EmptyStoreMatchesFeedbackOffBitIdentically) {
  const AnalyzedFixture f = MakeAnalyzedFixture();
  auto with_feedback = f.Analyze();
  auto without = AnalyzedQuery::Create(f.prepared.snapshot->catalog(),
                                       f.prepared.spec, EstimationOptions());
  ASSERT_TRUE(with_feedback.ok() && without.ok());
  EXPECT_EQ(with_feedback->EstimateFullJoin(), without->EstimateFullJoin());
  EXPECT_EQ(with_feedback->EstimateGroupCount(),
            without->EstimateGroupCount());
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(with_feedback->BaseCardinality(t), without->BaseCardinality(t));
  }
  const std::vector<double> a = with_feedback->EstimateOrder({2, 1, 0});
  const std::vector<double> b = without->EstimateOrder({2, 1, 0});
  EXPECT_EQ(a, b);
}

// ------------------------------------------------- Options surface

TEST(EstimatorFeaturesApi, PresetsAndValidation) {
  const EstimatorFeatures paper = EstimatorFeatures::PaperFaithful();
  EXPECT_TRUE(paper.transitive_closure);
  EXPECT_FALSE(paper.histogram_join_selectivity);
  EXPECT_FALSE(paper.runtime_selectivities);
  EXPECT_FALSE(paper.feedback);
  EXPECT_EQ(paper, EstimatorFeatures());

  const EstimatorFeatures all = EstimatorFeatures::AllExtensions();
  EXPECT_TRUE(all.histogram_join_selectivity);
  EXPECT_TRUE(all.runtime_selectivities);
  EXPECT_TRUE(all.feedback);
  EXPECT_TRUE(all.Validate().ok());

  EstimatorFeatures bad = all;
  bad.feedback_min_tables = 0;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(EstimatorFeaturesApi, SessionOptionsKeepBothViewsInSync) {
  Session::Options options;
  // set_features pushes the paper knobs into the estimation options.
  EstimatorFeatures features;
  features.transitive_closure = false;
  features.histogram_join_selectivity = true;
  features.feedback = true;
  options.set_features(features);
  EXPECT_FALSE(options.estimation().transitive_closure);
  EXPECT_TRUE(options.estimation().histogram_join_selectivity);
  EXPECT_TRUE(options.feedback());

  // set_preset re-syncs the paper knobs but preserves extension flags.
  options.set_preset(AlgorithmPreset::kELS);
  EXPECT_TRUE(options.features().transitive_closure);
  EXPECT_TRUE(options.feedback());

  // set_estimation pulls the paper knobs back out.
  EstimationOptions estimation;
  estimation.transitive_closure = false;
  options.set_estimation(estimation);
  EXPECT_FALSE(options.features().transitive_closure);

  // Predicate transfer is a feature like any other: set_features turns it
  // on and pushes the feature set's paper knobs back in.
  options.set_features(EstimatorFeatures{.runtime_selectivities = true});
  EXPECT_TRUE(options.features().runtime_selectivities);
  EXPECT_TRUE(options.estimation().transitive_closure);
  EstimatorFeatures off = options.features();
  off.runtime_selectivities = false;
  options.set_features(off);
  EXPECT_FALSE(options.features().runtime_selectivities);
}

TEST(EstimatorFeaturesApi, CreateSessionValidatesFeatures) {
  auto db = OpenExample1();
  EstimatorFeatures bad;
  bad.feedback = true;
  bad.feedback_min_tables = 0;
  EXPECT_FALSE(
      db->CreateSession(Session::Options().set_features(bad)).ok());
}

TEST(DatabaseOptions, FeedbackCapacityValidated) {
  EXPECT_FALSE(Database::Open(Database::Options().set_feedback_capacity(0))
                   .ok());
  EXPECT_TRUE(Database::Open(Database::Options().set_feedback_capacity(16))
                  .ok());
}

// --------------------------------------------- Service integration

TEST(FeedbackService, ExecuteSeedsLaterEstimates) {
  auto db = OpenExample1();
  const Session session = MakeSession(*db, FeedbackOptions());
  auto prepared = session.Prepare(kJoinSql);
  ASSERT_TRUE(prepared.ok());

  auto cold = session.Estimate(*prepared);
  ASSERT_TRUE(cold.ok());
  auto executed = session.Execute(*prepared);
  ASSERT_TRUE(executed.ok());
  const double actual = static_cast<double>(executed->execution.count);
  EXPECT_GT(db->feedback_store().size(), 0);

  // The next estimate serves the observed actual: q-error exactly 1.
  auto warm = session.Estimate(*prepared);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->rows(), actual);
  // The store epoch moved, so this was a fresh computation, not the cached
  // pre-observation analysis.
  EXPECT_FALSE(warm->cache_hit());
  // And the refreshed estimate is itself cacheable: bit-identical hit.
  auto cached = session.Estimate(*prepared);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->cache_hit());
  EXPECT_EQ(cached->rows(), warm->rows());
}

TEST(FeedbackService, ExplainAnalyzeSeedsJoinPrefixes) {
  auto db = OpenExample1();
  const Session session = MakeSession(*db, FeedbackOptions());
  auto report = session.ExplainAnalyze(kJoinSql);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->join_levels.size(), 2u);
  // Full plan + the 2-table prefix (the full plan IS the last prefix).
  EXPECT_GE(db->feedback_store().size(), 2);

  // The full-join estimate now serves the measured actual verbatim.
  auto full = session.Estimate(kJoinSql);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->rows(),
            static_cast<double>(report->join_levels.back().actual));

  // A DIFFERENT query matching the first 2-table prefix benefits from the
  // recorded observation: its estimate equals the prefix's actual size.
  // Which pair leads depends on the chosen join order, so derive the
  // standalone query from the reported prefix ("A x B").
  const auto& level0 = report->join_levels[0];
  std::string pair_sql;
  if (level0.prefix.find("R1") != std::string::npos &&
      level0.prefix.find("R2") != std::string::npos) {
    pair_sql = "SELECT COUNT(*) FROM R1, R2 WHERE R1.x = R2.y";
  } else if (level0.prefix.find("R2") != std::string::npos &&
             level0.prefix.find("R3") != std::string::npos) {
    pair_sql = "SELECT COUNT(*) FROM R2, R3 WHERE R2.y = R3.z";
  } else {
    // Transitive-closure pair: R1.x = R3.z is derivable from the chain.
    pair_sql = "SELECT COUNT(*) FROM R1, R3 WHERE R1.x = R3.z";
  }
  auto pair = session.Estimate(pair_sql);
  ASSERT_TRUE(pair.ok()) << pair.status();
  EXPECT_EQ(pair->rows(), static_cast<double>(level0.actual));
}

// Regression: EXPLAIN ANALYZE counted each join level over the raw spec, so
// a plan that joined two tables through an implied predicate reported their
// cartesian product as the level's actual — and fed it back. Single-class
// star: A and B meet only through C's class, and the plan joins them first
// on the implied A.x = B.x.
TEST(FeedbackService, ExplainAnalyzeLevelsCountTheImpliedJoin) {
  auto db = Database::Open();
  ASSERT_TRUE(db.ok()) << db.status();
  std::vector<int64_t> a(50), b(60), c(20000);
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<int64_t>(i);
  for (size_t i = 0; i < b.size(); ++i) b[i] = static_cast<int64_t>(40 + i);
  for (size_t i = 0; i < c.size(); ++i) c[i] = static_cast<int64_t>(i % 1000);
  for (const auto& [name, column] :
       {std::pair<const char*, std::vector<int64_t>&>{"C", c}, {"A", a},
        {"B", b}}) {
    ASSERT_TRUE((*db)->LoadTable(name, Table::FromColumns(
                                           Schema({{"x", TypeKind::kInt64}}),
                                           {ToValueColumn(column)}))
                    .ok());
  }
  const Session session = MakeSession(**db, FeedbackOptions());
  auto report = session.ExplainAnalyze(
      "SELECT COUNT(*) FROM C, A, B WHERE A.x = C.x AND B.x = C.x");
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->join_levels.size(), 2u);
  const ExplainAnalyzeReport::JoinLevel& level = report->join_levels[0];
  ASSERT_TRUE(level.prefix == "A x B" || level.prefix == "B x A")
      << "plan no longer starts with A and B: " << level.prefix;
  // A and B share the ten values 40..49: the implied join, not 50 x 60.
  constexpr int64_t kPairCount = 10;
  EXPECT_EQ(level.actual, kPairCount);

  // The level's actual is what the plan's first join produced.
  const ExplainAnalyzeReport::OperatorRow* first_join = nullptr;
  for (const ExplainAnalyzeReport::OperatorRow& row : report->operators) {
    if (row.label.find("Join") != std::string::npos &&
        (first_join == nullptr || row.depth > first_join->depth)) {
      first_join = &row;
    }
  }
  ASSERT_NE(first_join, nullptr);
  ASSERT_TRUE(first_join->has_actual);
  EXPECT_EQ(first_join->actual_rows, level.actual);

  // The observation fed back under the pair's fingerprint is the truth.
  auto pair = session.Estimate("SELECT COUNT(*) FROM A, B WHERE A.x = B.x");
  ASSERT_TRUE(pair.ok()) << pair.status();
  EXPECT_EQ(pair->rows(), static_cast<double>(kPairCount));
}

TEST(FeedbackService, PaperFaithfulSessionsUnaffectedByIngestion) {
  auto db = OpenExample1();
  const Session plain = MakeSession(*db);
  const Session feedback = MakeSession(*db, FeedbackOptions());

  auto before = plain.Estimate(kJoinSql);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(feedback.Execute(kJoinSql).ok());
  ASSERT_GT(db->feedback_store().size(), 0);

  // Same digest as before the ingestion: the plain session's cache entry is
  // still valid AND still served — bit-identical rows.
  auto after = plain.Estimate(kJoinSql);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->cache_hit());
  EXPECT_EQ(after->rows(), before->rows());

  // A cache-bypassing paper-faithful estimate recomputes cold and still
  // matches bit-for-bit.
  const Session uncached =
      MakeSession(*db, Session::Options().set_use_cache(false));
  auto cold = uncached.Estimate(kJoinSql);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->cache_hit());
  EXPECT_EQ(cold->rows(), before->rows());
}

// Pinned paper-faithful estimates for the Example 1b chain: these exact
// values are what the seed implementation produces; feedback-off sessions
// must keep producing them bit-for-bit whatever the store contains.
TEST(FeedbackService, PinnedPaperFaithfulEstimates) {
  auto db = OpenExample1();
  const Session feedback = MakeSession(*db, FeedbackOptions());
  ASSERT_TRUE(feedback.Execute(kJoinSql).ok());  // Pollute the store.

  const Session plain = MakeSession(*db);
  auto estimate = plain.Estimate(kJoinSql);
  ASSERT_TRUE(estimate.ok());
  // The reference is the raw paper pipeline, driven below the facade with
  // stock ELS options: no feedback store, no extension state of any kind.
  auto prepared = plain.Prepare(kJoinSql);
  ASSERT_TRUE(prepared.ok());
  auto reference =
      AnalyzedQuery::Create(prepared->snapshot->catalog(), prepared->spec,
                            PresetOptions(AlgorithmPreset::kELS));
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(estimate->rows(), reference->EstimateFullJoin());
}

TEST(FeedbackService, ReanalyzeWithNewStatsAgesBothStores) {
  auto db = OpenExample1();
  const Session session = MakeSession(*db, FeedbackOptions());
  ASSERT_TRUE(session.Execute(kJoinSql).ok());
  ASSERT_GT(db->feedback_store().size(), 0);
  db->runtime_selectivities().RecordTableSurvival("R1", 0.5);
  db->runtime_selectivities().RecordColumnPassRate("R1", 1, 0.5);
  db->runtime_selectivities().RecordTableSurvival("R2", 0.25);
  const uint64_t feedback_epoch = db->feedback_store().epoch();
  const uint64_t runtime_epoch = db->runtime_selectivities().epoch();

  // Re-ANALYZE R1 with histograms: its digest changes, so observations from
  // the old snapshot die in BOTH stores. The runtime rates are keyed by
  // table, so only R1's go; feedback keys span tables, so all of it goes.
  AnalyzeOptions histograms;
  histograms.histogram_kind = AnalyzeOptions::HistogramKind::kEquiDepth;
  ASSERT_TRUE(db->AnalyzeTable("R1", histograms).ok());
  EXPECT_EQ(db->feedback_store().size(), 0);
  EXPECT_GT(db->feedback_store().epoch(), feedback_epoch);
  EXPECT_FALSE(db->runtime_selectivities().TableSurvival("R1").has_value());
  EXPECT_FALSE(db->runtime_selectivities().ColumnPassRate("R1", 1).has_value());
  EXPECT_EQ(db->runtime_selectivities().TableSurvival("R2"), 0.25);
  EXPECT_GT(db->runtime_selectivities().epoch(), runtime_epoch);

  // Fresh observations against the new snapshot stick.
  ASSERT_TRUE(session.Execute(kJoinSql).ok());
  EXPECT_GT(db->feedback_store().size(), 0);
}

// A re-ANALYZE of unchanged data changes no table's digest: both stores,
// their epochs, and so the cached entries of the sessions using them, stay.
TEST(FeedbackService, NoOpReanalyzeKeepsBothStoresAndEpochs) {
  auto db = OpenExample1();
  const Session session = MakeSession(*db, FeedbackOptions());
  ASSERT_TRUE(session.Execute(kJoinSql).ok());
  db->runtime_selectivities().RecordTableSurvival("R1", 0.5);
  const int64_t feedback_size = db->feedback_store().size();
  const int64_t runtime_size = db->runtime_selectivities().size();
  ASSERT_GT(feedback_size, 0);
  const uint64_t feedback_epoch = db->feedback_store().epoch();
  const uint64_t runtime_epoch = db->runtime_selectivities().epoch();
  auto warm = session.Estimate(kJoinSql);
  ASSERT_TRUE(warm.ok());

  ASSERT_TRUE(db->Analyze().ok());
  ASSERT_TRUE(db->AnalyzeTable("R2", db->options().analyze()).ok());
  EXPECT_EQ(db->feedback_store().size(), feedback_size);
  EXPECT_EQ(db->runtime_selectivities().size(), runtime_size);
  EXPECT_EQ(db->feedback_store().epoch(), feedback_epoch);
  EXPECT_EQ(db->runtime_selectivities().epoch(), runtime_epoch);

  // Re-recording the same actual on the new snapshot moves only the stamp.
  ASSERT_TRUE(session.Execute(kJoinSql).ok());
  EXPECT_EQ(db->feedback_store().epoch(), feedback_epoch);
  auto estimate = session.Estimate(kJoinSql);
  ASSERT_TRUE(estimate.ok());
  EXPECT_TRUE(estimate->cache_hit());
  EXPECT_EQ(estimate->rows(), warm->rows());
}

TEST(FeedbackService, SetTableStatsAgesObservations) {
  auto db = OpenExample1();
  const Session session = MakeSession(*db, FeedbackOptions());
  ASSERT_TRUE(session.Execute(kJoinSql).ok());
  ASSERT_GT(db->feedback_store().size(), 0);
  TableStats stats = db->snapshot()->catalog().stats(0);
  stats.row_count *= 2;
  ASSERT_TRUE(db->SetTableStats("R1", std::move(stats)).ok());
  EXPECT_EQ(db->feedback_store().size(), 0);
}

TEST(FeedbackService, RecordsCarrySubPlanFingerprints) {
  auto db = OpenExample1(Database::Options().set_recorder(
      FlightRecorder::Options().set_enabled(true)));
  const Session session = MakeSession(*db, FeedbackOptions());
  ASSERT_TRUE(session.ExplainAnalyze(kJoinSql).ok());
  const std::vector<QueryRecord> log = db->QueryLog();
  ASSERT_FALSE(log.empty());
  const QueryRecord& record = log.back();
  EXPECT_NE(record.subplan_fingerprint, 0u);
  ASSERT_EQ(record.join_levels.size(), 2u);
  EXPECT_NE(record.join_levels[0].subplan_prefix, 0u);
  // The last prefix covers every table: it IS the full sub-plan.
  EXPECT_EQ(record.join_levels[1].subplan_prefix, record.subplan_fingerprint);
  // And the NDJSON export carries the new keys.
  const std::string ndjson = db->QueryLogNdjson();
  EXPECT_NE(ndjson.find("\"subplan_fingerprint\""), std::string::npos);
  EXPECT_NE(ndjson.find("\"subplan_prefix\""), std::string::npos);
}

// tsan: concurrent ingestion (Execute/ExplainAnalyze), consultation
// (Estimate) and aging (SetTableStats/Analyze) over one shared store.
TEST(FeedbackService, ConcurrentIngestConsultAndAge) {
  auto db = OpenExample1();
  constexpr int kIterations = 25;
  std::atomic<bool> failed{false};

  std::thread ingest([&] {
    const Session session = MakeSession(*db, FeedbackOptions());
    for (int i = 0; i < kIterations && !failed; ++i) {
      if (!session.Execute(kJoinSql).ok()) failed = true;
      if (!session.ExplainAnalyze(
                  "SELECT COUNT(*) FROM R1, R2 WHERE R1.x = R2.y")
               .ok()) {
        failed = true;
      }
    }
  });
  std::thread consult([&] {
    const Session session = MakeSession(*db, FeedbackOptions());
    for (int i = 0; i < kIterations && !failed; ++i) {
      if (!session.Estimate(kJoinSql).ok()) failed = true;
    }
  });
  std::thread age([&] {
    for (int i = 0; i < 5 && !failed; ++i) {
      // Material changes, so aging still races ingestion: new R1
      // statistics, then a re-ANALYZE that restores them.
      TableStats stats = db->snapshot()->catalog().stats(0);
      stats.row_count *= 2;
      if (!db->SetTableStats("R1", std::move(stats)).ok() ||
          !db->Analyze().ok()) {
        failed = true;
      }
    }
  });
  ingest.join();
  consult.join();
  age.join();
  EXPECT_FALSE(failed);

  // Whatever interleaving happened, a final converged pass serves actuals.
  const Session session = MakeSession(*db, FeedbackOptions());
  auto executed = session.Execute(kJoinSql);
  ASSERT_TRUE(executed.ok());
  auto estimate = session.Estimate(kJoinSql);
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(estimate->rows(),
            static_cast<double>(executed->execution.count));
}

}  // namespace
}  // namespace joinest
