// Tests for the estimation service: snapshot lifecycle, per-table digests
// (every covered field changes one; re-ANALYZE of unchanged data keeps it),
// cache correctness (hits bit-identical to the cold path, also across
// republishes), per-table invalidation, LRU bounds, facade error paths, and
// the concurrency contract (readers never block ANALYZE, concurrent
// EXPLAIN ANALYZE traces stay per thread; run under tsan via
// tools/run_sanitizers.sh).

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "joinest/joinest.h"
#include "service/fingerprint.h"
#include "stats/histogram.h"
#include "storage/datagen.h"
#include "tests/test_util.h"

namespace joinest {
namespace {

constexpr char kJoinSql[] =
    "SELECT COUNT(*) FROM R1, R2, R3 WHERE R1.x = R2.y AND R2.y = R3.z";
// A query that does not read R1.
constexpr char kR2R3Sql[] = "SELECT COUNT(*) FROM R2, R3 WHERE R2.y = R3.z";

// A database pre-loaded with the Example 1b dataset (R1, R2, R3).
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

TEST(Snapshot, VersionsAdvanceAndPreparedQueriesStayPinned) {
  auto db = OpenExample1();
  EXPECT_EQ(db->snapshot()->version(), 1u);  // v0 is the empty bootstrap.
  EXPECT_EQ(db->snapshot()->catalog().num_tables(), 3);

  const Session session = MakeSession(*db);
  auto old_prepared = session.Prepare(kJoinSql);
  ASSERT_TRUE(old_prepared.ok()) << old_prepared.status();
  EXPECT_EQ(old_prepared->snapshot_version(), 1u);
  auto old_estimate = session.Estimate(*old_prepared);
  ASSERT_TRUE(old_estimate.ok()) << old_estimate.status();

  // Republish with wildly different statistics for R1.
  TableStats stats = db->snapshot()->catalog().stats(0);
  stats.row_count = 1e6;
  ASSERT_TRUE(db->SetTableStats("R1", std::move(stats)).ok());
  EXPECT_EQ(db->snapshot()->version(), 2u);

  // The old prepared query still runs against its pinned snapshot and
  // reproduces the old estimate exactly.
  auto repinned = session.Estimate(*old_prepared);
  ASSERT_TRUE(repinned.ok()) << repinned.status();
  EXPECT_EQ(repinned->snapshot_version(), 1u);
  EXPECT_EQ(repinned->rows(), old_estimate->rows());

  // A fresh Prepare sees the new statistics.
  auto new_estimate = session.Estimate(kJoinSql);
  ASSERT_TRUE(new_estimate.ok()) << new_estimate.status();
  EXPECT_EQ(new_estimate->snapshot_version(), 2u);
  EXPECT_GT(new_estimate->rows(), old_estimate->rows());
}

TEST(Snapshot, BuilderDerivesWithoutCopyingTables) {
  auto db = OpenExample1();
  const auto before = db->snapshot();
  ASSERT_TRUE(db->Analyze().ok());
  const auto after = db->snapshot();
  EXPECT_NE(before->version(), after->version());
  // Payloads are shared between snapshots: same Table objects.
  for (int t = 0; t < before->catalog().num_tables(); ++t) {
    EXPECT_EQ(&before->catalog().table(t), &after->catalog().table(t));
  }
  // Re-analysing identical data keeps every table's digest.
  EXPECT_EQ(before->table_digests(), after->table_digests());
}

TEST(Snapshot, SealedCatalogRejectsMutation) {
  Catalog catalog;
  AddStatsOnlyTable(catalog, "T", 100.0, {10.0});
  catalog.Seal();
  TableStats stats;
  stats.columns.emplace_back();
#if JOINEST_CONTRACTS
  // In contract builds mutating a sealed catalog is a programming error.
  EXPECT_DEATH({ (void)catalog.SetStats(0, std::move(stats)); }, "sealed");
#else
  const Status status = catalog.SetStats(0, std::move(stats));
  EXPECT_FALSE(status.ok());
#endif
}

// ---------------------------------------------------------- TableDigest

// What TableDigest reads, with every covered field set: two numeric
// columns, each with a range, a relative error and a two-bucket histogram.
struct DigestInput {
  std::string name = "T";
  std::vector<ColumnDef> columns = {{"a", TypeKind::kInt64},
                                    {"b", TypeKind::kDouble}};
  TableStats stats;

  uint64_t Digest() const {
    return TableDigest(name, Schema(columns), stats);
  }
};

std::shared_ptr<const Histogram> MakeHistogram(
    Histogram::Kind kind, std::vector<HistogramBucket> buckets) {
  return std::make_shared<const Histogram>(
      Histogram::FromBuckets(kind, std::move(buckets)));
}

const std::vector<HistogramBucket> kBuckets = {{1, 250, 500, 50},
                                               {251, 500, 500, 50}};

DigestInput FullDigestInput() {
  DigestInput input;
  input.stats.row_count = 1000;
  input.stats.source = StatsSource::kSketch;
  for (int c = 0; c < 2; ++c) {
    ColumnStats column;
    column.distinct_count = 100 + c;
    column.min = 1.0 + c;
    column.max = 500.0 + c;
    column.distinct_relative_error = 0.01 * (c + 1);
    column.histogram = MakeHistogram(Histogram::Kind::kEquiDepth, kBuckets);
    input.stats.columns.push_back(column);
  }
  return input;
}

// The digest is all that stands between a republish and a stale cache hit:
// changing any one field Estimate or Optimize reads must change it.
TEST(TableDigest, ChangesWithEveryCoveredField) {
  const uint64_t base = FullDigestInput().Digest();
  EXPECT_EQ(FullDigestInput().Digest(), base);

  using Edit = std::function<void(DigestInput&)>;
  std::vector<std::pair<std::string, Edit>> edits = {
      {"table name", [](DigestInput& in) { in.name = "U"; }},
      {"row count", [](DigestInput& in) { in.stats.row_count = 1001; }},
      {"source",
       [](DigestInput& in) { in.stats.source = StatsSource::kExact; }},
  };
  for (int c = 0; c < 2; ++c) {
    const std::string at = " of column " + std::to_string(c);
    const auto column = [c](DigestInput& in) -> ColumnStats& {
      return in.stats.columns[static_cast<size_t>(c)];
    };
    const auto bucket_edit = [column](int b, double HistogramBucket::*field,
                                      double value) {
      return [column, b, field, value](DigestInput& in) {
        std::vector<HistogramBucket> buckets = kBuckets;
        buckets[static_cast<size_t>(b)].*field = value;
        column(in).histogram =
            MakeHistogram(Histogram::Kind::kEquiDepth, std::move(buckets));
      };
    };
    const std::vector<std::pair<std::string, Edit>> column_edits = {
        {"name", [c](DigestInput& in) { in.columns[c].name = "z"; }},
        {"type",
         [c](DigestInput& in) { in.columns[c].type = TypeKind::kString; }},
        {"distinct count",
         [column](DigestInput& in) { column(in).distinct_count += 1; }},
        {"min", [column](DigestInput& in) { column(in).min = 0.0; }},
        {"min presence", [column](DigestInput& in) { column(in).min.reset(); }},
        {"max", [column](DigestInput& in) { column(in).max = 900.0; }},
        {"max presence", [column](DigestInput& in) { column(in).max.reset(); }},
        {"relative error",
         [column](DigestInput& in) {
           column(in).distinct_relative_error = 0.5;
         }},
        {"relative error presence",
         [column](DigestInput& in) {
           column(in).distinct_relative_error.reset();
         }},
        {"histogram presence",
         [column](DigestInput& in) { column(in).histogram = nullptr; }},
        {"histogram kind",
         [column](DigestInput& in) {
           column(in).histogram =
               MakeHistogram(Histogram::Kind::kEndBiased, kBuckets);
         }},
        {"bucket count",
         [column](DigestInput& in) {
           column(in).histogram = MakeHistogram(Histogram::Kind::kEquiDepth,
                                                {kBuckets[0]});
         }},
        {"bucket lo", bucket_edit(0, &HistogramBucket::lo, 0)},
        {"bucket hi", bucket_edit(0, &HistogramBucket::hi, 240)},
        {"bucket rows", bucket_edit(1, &HistogramBucket::rows, 499)},
        {"bucket distinct", bucket_edit(1, &HistogramBucket::distinct, 49)},
    };
    for (const auto& [field, edit] : column_edits) {
      edits.emplace_back(field + at, edit);
    }
  }
  for (const auto& [field, edit] : edits) {
    DigestInput input = FullDigestInput();
    edit(input);
    EXPECT_NE(input.Digest(), base) << field;
  }
}

// A table of int64, double and string columns with repeated values, so
// every histogram kind has buckets and heavy hitters to build.
Table MixedTable(int64_t rows) {
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  for (int64_t i = 0; i < rows; ++i) {
    ints.push_back(i % 37);
    doubles.push_back(static_cast<double>((i * i) % 101) * 0.25);
    strings.push_back("s" + std::to_string(i % 13));
  }
  return Table::FromColumns(Schema({{"i", TypeKind::kInt64},
                                    {"d", TypeKind::kDouble},
                                    {"s", TypeKind::kString}}),
                            {ToValueColumn(ints), ToValueColumn(doubles),
                             ToValueColumn(strings)});
}

// The other direction: re-collecting statistics over unchanged data must
// keep every digest, in each stats mode and with each histogram kind, or a
// no-op re-ANALYZE would empty the cache.
TEST(TableDigest, ReanalyzeOfUnchangedDataKeepsEveryDigest) {
  using Mode = AnalyzeOptions::StatsMode;
  using Kind = AnalyzeOptions::HistogramKind;
  for (Mode mode : {Mode::kExact, Mode::kSampled, Mode::kSketch}) {
    for (Kind kind : {Kind::kNone, Kind::kEquiWidth, Kind::kEquiDepth,
                      Kind::kEndBiased}) {
      AnalyzeOptions options;
      options.stats_mode = mode;
      options.histogram_kind = kind;
      if (mode == Mode::kSampled) options.sample_fraction = 0.5;
      SCOPED_TRACE(testing::Message() << "mode " << static_cast<int>(mode)
                                      << ", histogram "
                                      << static_cast<int>(kind));
      auto db = Database::Open(Database::Options().set_analyze(options));
      ASSERT_TRUE(db.ok()) << db.status();
      ASSERT_TRUE((*db)->LoadTable("T", MixedTable(3000)).ok());
      ASSERT_TRUE((*db)
                      ->LoadTable("K", Table::FromColumns(
                                           Schema({{"k", TypeKind::kInt64}}),
                                           {ToValueColumn(
                                               MakeSequentialColumn(2000))}))
                      .ok());
      const auto before = (*db)->snapshot();
      // The statistics really are of the mode and kind under test.
      const TableStats& stats = before->catalog().stats(0);
      EXPECT_EQ(stats.source, mode == Mode::kExact     ? StatsSource::kExact
                              : mode == Mode::kSampled ? StatsSource::kSampled
                                                       : StatsSource::kSketch);
      EXPECT_EQ(stats.columns[0].histogram != nullptr, kind != Kind::kNone);

      ASSERT_TRUE((*db)->Analyze().ok());
      ASSERT_TRUE((*db)->AnalyzeTable("T", options).ok());
      const auto after = (*db)->snapshot();
      EXPECT_EQ(after->version(), before->version() + 2);
      EXPECT_EQ(after->table_digests(), before->table_digests());
    }
  }
}

TEST(Fingerprint, CanonicalizesPredicateOrderAndSpotsChanges) {
  auto db = OpenExample1();
  const Session session = MakeSession(*db);
  auto a = session.Prepare(
      "SELECT COUNT(*) FROM R1, R2, R3 WHERE R1.x = R2.y AND R2.y = R3.z");
  auto b = session.Prepare(
      "SELECT COUNT(*) FROM R1, R2, R3 WHERE R2.y = R3.z AND R1.x = R2.y");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->fingerprint, b->fingerprint);

  auto c = session.Prepare(
      "SELECT COUNT(*) FROM R1, R2, R3 WHERE R1.x = R2.y AND R2.y = R3.z "
      "AND R1.x < 5");
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->fingerprint, c->fingerprint);

  // Option digests separate sessions with different estimation settings.
  EXPECT_NE(EstimationOptionsDigest(PresetOptions(AlgorithmPreset::kELS)),
            EstimationOptionsDigest(PresetOptions(AlgorithmPreset::kSM)));
}

TEST(Cache, HitsAreBitIdenticalToTheColdPath) {
  auto db = OpenExample1();
  const Session session = MakeSession(*db);

  auto cold = session.Estimate(kJoinSql);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(cold->cache_hit());

  auto warm = session.Estimate(kJoinSql);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm->cache_hit());

  // Same payload → bit-identical by construction; assert exact equality.
  EXPECT_EQ(warm->rows(), cold->rows());
  EXPECT_EQ(warm->groups(), cold->groups());
  ASSERT_EQ(warm->per_rule().size(), cold->per_rule().size());
  ASSERT_EQ(warm->per_rule().size(), 3u);  // LS, M, SS.
  for (size_t i = 0; i < warm->per_rule().size(); ++i) {
    EXPECT_EQ(warm->per_rule()[i].rule, cold->per_rule()[i].rule);
    EXPECT_EQ(warm->per_rule()[i].rows, cold->per_rule()[i].rows);
  }

  // And identical to a completely fresh database computing cold (the
  // estimate is a pure function of data + options).
  auto fresh = OpenExample1(Database::Options().set_cache_label("fresh"));
  auto independent = MakeSession(*fresh).Estimate(kJoinSql);
  ASSERT_TRUE(independent.ok());
  EXPECT_FALSE(independent->cache_hit());
  EXPECT_EQ(independent->rows(), cold->rows());

  // A cache-bypassing session recomputes and still agrees exactly.
  const Session uncached =
      MakeSession(*db, Session::Options().set_use_cache(false));
  auto recomputed = uncached.Estimate(kJoinSql);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_FALSE(recomputed->cache_hit());
  EXPECT_EQ(recomputed->rows(), cold->rows());

  const ServiceCacheStats stats = db->cache_stats();
  EXPECT_GE(stats.hits, 1);
  EXPECT_GE(stats.misses, 1);
}

// Analyses built so far, over every rule label.
int64_t AnalysesSoFar() {
  int64_t total = 0;
  for (const char* rule : {"M", "SS", "LS", "REP"}) {
    total += MetricsRegistry::Global()
                 .GetCounter("estimator_queries_total",
                             "Queries analysed for estimation",
                             {{"rule", rule}})
                 .Value();
  }
  return total;
}

// A cold Estimate answers the LS/M/SS rows from two analyses, one of which
// is the headline analysis when the session's options match that rule's
// preset apart from the rule. Every row must still equal a fresh analysis
// under the rule's preset, bit for bit, and rows() a fresh headline
// analysis.
TEST(PerRuleRows, EqualFreshAnalysesBitForBit) {
  using Shape = WorkloadOptions::Shape;
  struct Case {
    Session::Options options;
    int64_t analyses;  // Built by one cold Estimate.
  };
  std::vector<Case> cases = {
      {Session::Options().set_preset(AlgorithmPreset::kSMNoPtc), 3},
      {Session::Options().set_preset(AlgorithmPreset::kSM), 2},
      {Session::Options().set_preset(AlgorithmPreset::kSSS), 2},
      {Session::Options().set_preset(AlgorithmPreset::kELS), 2},
      {Session::Options().set_preset(AlgorithmPreset::kRepresentativeSmall),
       2},
      {Session::Options().set_preset(AlgorithmPreset::kRepresentativeLarge),
       2},
      // Runtime selectivities make the headline match no preset.
      {Session::Options()
           .set_preset(AlgorithmPreset::kELS)
           .set_features(EstimatorFeatures{.runtime_selectivities = true}),
       3},
  };
  const AlgorithmPreset kRulePresets[] = {
      AlgorithmPreset::kELS, AlgorithmPreset::kSM, AlgorithmPreset::kSSS};
  const char* const kRuleNames[] = {"LS", "M", "SS"};
  uint64_t seed = 3;
  for (Shape shape :
       {Shape::kChain, Shape::kStar, Shape::kCycle, Shape::kClique}) {
    for (bool multi_class : {false, true}) {
      GeneratedWorkload w = ShapeWorkload(shape, 5, multi_class, seed++);
      const std::string sql = w.spec.ToString(w.catalog);
      SCOPED_TRACE(sql);
      auto db = Database::Open();
      ASSERT_TRUE(db.ok()) << db.status();
      ASSERT_TRUE((*db)->ImportTables(std::move(w.catalog)).ok());
      RuntimeSelectivityStore& store = (*db)->runtime_selectivities();
      store.RecordTableSurvival("T1", 0.5);
      store.RecordColumnPassRate("T2", 0, 0.25);
      for (const Case& c : cases) {
        const Session session = MakeSession(
            **db, Session::Options(c.options).set_use_cache(false));
        auto prepared = session.Prepare(sql);
        ASSERT_TRUE(prepared.ok()) << prepared.status();
        const int64_t before = AnalysesSoFar();
        auto estimate = session.Estimate(*prepared);
        ASSERT_TRUE(estimate.ok()) << estimate.status();
        EXPECT_EQ(AnalysesSoFar() - before, c.analyses)
            << c.options.features().ToString();

        const Catalog& catalog = prepared->snapshot->catalog();
        ASSERT_EQ(estimate->per_rule().size(), 3u);
        for (size_t r = 0; r < 3; ++r) {
          auto fresh = AnalyzedQuery::Create(catalog, prepared->spec,
                                             PresetOptions(kRulePresets[r]));
          ASSERT_TRUE(fresh.ok()) << fresh.status();
          EXPECT_EQ(estimate->per_rule()[r].rule, kRuleNames[r]);
          EXPECT_EQ(estimate->per_rule()[r].rows, fresh->EstimateFullJoin())
              << kRuleNames[r];
        }
        EstimationOptions headline = c.options.estimation();
        if (c.options.features().runtime_selectivities) {
          // The database owns the store; alias it without ownership.
          headline.runtime_selectivities =
              std::shared_ptr<const RuntimeSelectivityStore>(
                  std::shared_ptr<void>(), &store);
        }
        auto fresh = AnalyzedQuery::Create(catalog, prepared->spec, headline);
        ASSERT_TRUE(fresh.ok()) << fresh.status();
        EXPECT_EQ(estimate->rows(), fresh->EstimateFullJoin());
      }
    }
  }
}

// EXPLAIN ANALYZE's per-level rows come from the same two analyses.
TEST(PerRuleRows, ExplainAnalyzeLevelsEqualFreshAnalyses) {
  auto db = OpenExample1();
  const Session session = MakeSession(
      *db, Session::Options().set_use_cache(false).set_capture_trace(false));
  auto prepared = session.Prepare(kJoinSql);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const int64_t before = AnalysesSoFar();
  auto report = session.ExplainAnalyze(*prepared);
  ASSERT_TRUE(report.ok()) << report.status();
  // One for Optimize, two for the per-level rows.
  EXPECT_EQ(AnalysesSoFar() - before, 3);

  const Catalog& catalog = prepared->snapshot->catalog();
  auto els = AnalyzedQuery::Create(catalog, prepared->spec,
                                   PresetOptions(AlgorithmPreset::kELS));
  auto sm = AnalyzedQuery::Create(catalog, prepared->spec,
                                  PresetOptions(AlgorithmPreset::kSM));
  auto sss = AnalyzedQuery::Create(catalog, prepared->spec,
                                   PresetOptions(AlgorithmPreset::kSSS));
  ASSERT_TRUE(els.ok() && sm.ok() && sss.ok());
  auto planned = session.Optimize(*prepared);
  ASSERT_TRUE(planned.ok()) << planned.status();
  const std::vector<int> order = planned->join_order();
  const std::vector<double> ls = els->EstimateOrder(order);
  const std::vector<double> m = sm->EstimateOrder(order);
  const std::vector<double> ss = sss->EstimateOrder(order);
  ASSERT_EQ(report->join_levels.size(), ls.size());
  for (size_t i = 0; i < ls.size(); ++i) {
    EXPECT_EQ(report->join_levels[i].est_ls, ls[i]);
    EXPECT_EQ(report->join_levels[i].est_m, m[i]);
    EXPECT_EQ(report->join_levels[i].est_ss, ss[i]);
  }
}

TEST(Cache, PlansAreSharedOnHit) {
  auto db = OpenExample1();
  const Session session = MakeSession(*db);
  auto cold = session.Optimize(kJoinSql);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(cold->cache_hit());
  auto warm = session.Optimize(kJoinSql);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit());
  // The very same plan tree, not a re-optimisation.
  EXPECT_EQ(&warm->plan(), &cold->plan());
  EXPECT_EQ(warm->estimated_cost(), cold->estimated_cost());
  EXPECT_EQ(warm->estimated_rows(), cold->estimated_rows());
  EXPECT_EQ(warm->join_order(), cold->join_order());

  // Executing the cached plan matches the ground truth of the dataset.
  auto result = session.Execute(kJoinSql);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->plan.cache_hit());
  EXPECT_EQ(result->execution.count, 1000);
}

TEST(Cache, RepublishInvalidatesSupersededEntries) {
  auto db = OpenExample1();
  const Session session = MakeSession(*db);
  ASSERT_TRUE(session.Estimate(kJoinSql).ok());
  ASSERT_TRUE(session.Optimize(kJoinSql).ok());
  EXPECT_GE(db->cache_stats().size, 2);

  TableStats stats = db->snapshot()->catalog().stats(0);
  stats.row_count *= 10;
  ASSERT_TRUE(db->SetTableStats("R1", std::move(stats)).ok());

  const ServiceCacheStats after = db->cache_stats();
  EXPECT_EQ(after.size, 0);
  EXPECT_GE(after.invalidated, 2);

  // The next estimate is a miss (new snapshot version in the key).
  auto estimate = session.Estimate(kJoinSql);
  ASSERT_TRUE(estimate.ok());
  EXPECT_FALSE(estimate->cache_hit());
}

// Republishes R1 with ten times its row count.
void ScaleR1(Database& db) {
  TableStats stats = db.snapshot()->catalog().stats(0);
  stats.row_count *= 10;
  JOINEST_CHECK(db.SetTableStats("R1", std::move(stats)).ok());
}

// The same estimate, bit for bit.
bool SameEstimate(const EstimateResult& a, const EstimateResult& b) {
  if (a.rows() != b.rows() || a.groups() != b.groups() ||
      a.per_rule().size() != b.per_rule().size()) {
    return false;
  }
  for (size_t i = 0; i < a.per_rule().size(); ++i) {
    if (a.per_rule()[i].rule != b.per_rule()[i].rule ||
        a.per_rule()[i].rows != b.per_rule()[i].rows) {
      return false;
    }
  }
  return true;
}

// The same plan: cost, rows, join order and per-level estimates.
bool SamePlan(const PlannedQuery& a, const PlannedQuery& b) {
  return a.estimated_cost() == b.estimated_cost() &&
         a.estimated_rows() == b.estimated_rows() &&
         a.join_order() == b.join_order() &&
         a.intermediate_estimates() == b.intermediate_estimates();
}

// Entries are keyed by the digests of the tables a query reads, so a
// republish that changes R1 reclaims and misses exactly the queries over R1.
TEST(Cache, RepublishMissesOnlyQueriesThatReadTheChangedTable) {
  auto db = OpenExample1(Database::Options().set_cache_label("per_table"));
  const Session session = MakeSession(*db);
  const std::vector<std::string> r1_queries = {
      kJoinSql, "SELECT COUNT(*) FROM R1, R2 WHERE R1.x = R2.y",
      "SELECT COUNT(*) FROM R1 WHERE R1.a < 50"};
  for (const std::string& sql : r1_queries) {
    ASSERT_TRUE(session.Estimate(sql).ok()) << sql;
    ASSERT_TRUE(session.Optimize(sql).ok()) << sql;
  }
  ASSERT_TRUE(session.Estimate(kR2R3Sql).ok());
  ASSERT_TRUE(session.Optimize(kR2R3Sql).ok());
  const ServiceCacheStats before = db->cache_stats();
  ASSERT_EQ(before.size, 8);

  ScaleR1(*db);
  const ServiceCacheStats after = db->cache_stats();
  // An analysis and a plan for each query over R1.
  EXPECT_EQ(after.invalidated - before.invalidated, 6);
  EXPECT_EQ(after.size, 2);

  for (const std::string& sql : r1_queries) {
    auto estimate = session.Estimate(sql);
    auto plan = session.Optimize(sql);
    ASSERT_TRUE(estimate.ok() && plan.ok()) << sql;
    EXPECT_FALSE(estimate->cache_hit()) << sql;
    EXPECT_FALSE(plan->cache_hit()) << sql;
  }
  auto prepared = session.Prepare(kR2R3Sql);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ(prepared->snapshot_version(), 2u);
  auto estimate = session.Estimate(*prepared);
  auto plan = session.Optimize(*prepared);
  ASSERT_TRUE(estimate.ok() && plan.ok());
  EXPECT_TRUE(estimate->cache_hit());
  EXPECT_TRUE(plan->cache_hit());
  // Served from the entry computed on snapshot 1.
  EXPECT_EQ(estimate->snapshot_version(), 1u);
  EXPECT_EQ(plan->snapshot_version(), 1u);
}

// A re-ANALYZE of unchanged data changes no digest: every entry survives and
// every later call hits.
TEST(Cache, NoOpAnalyzeKeepsEveryEntry) {
  auto db = OpenExample1(Database::Options().set_cache_label("noop"));
  const Session session = MakeSession(*db);
  for (const char* sql : {kJoinSql, kR2R3Sql}) {
    ASSERT_TRUE(session.Estimate(sql).ok()) << sql;
    ASSERT_TRUE(session.Optimize(sql).ok()) << sql;
  }
  const ServiceCacheStats before = db->cache_stats();

  ASSERT_TRUE(db->Analyze().ok());
  ASSERT_TRUE(db->AnalyzeTable("R1", db->options().analyze()).ok());
  EXPECT_EQ(db->snapshot()->version(), 3u);
  EXPECT_EQ(db->cache_stats().invalidated, before.invalidated);
  EXPECT_EQ(db->cache_stats().size, before.size);

  for (const char* sql : {kJoinSql, kR2R3Sql}) {
    auto estimate = session.Estimate(sql);
    auto plan = session.Optimize(sql);
    ASSERT_TRUE(estimate.ok() && plan.ok()) << sql;
    EXPECT_TRUE(estimate->cache_hit()) << sql;
    EXPECT_TRUE(plan->cache_hit()) << sql;
  }
  const ServiceCacheStats after = db->cache_stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.invalidated, before.invalidated);
}

// A hit served across republishes that left the query's tables alone (a
// no-op re-ANALYZE, a new table) equals a cold recompute on the prepared
// snapshot, bit for bit.
TEST(Cache, HitAcrossRepublishEqualsColdRecompute) {
  auto db = OpenExample1(Database::Options().set_cache_label("across"));
  const Session session = MakeSession(*db);
  ASSERT_TRUE(session.Estimate(kJoinSql).ok());
  ASSERT_TRUE(session.Optimize(kJoinSql).ok());

  ASSERT_TRUE(db->Analyze().ok());
  ASSERT_TRUE(db->LoadTable("R4", Table::FromColumns(
                                      Schema({{"w", TypeKind::kInt64}}),
                                      {ToValueColumn(MakeSequentialColumn(
                                          50))}))
                  .ok());
  auto prepared = session.Prepare(kJoinSql);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ(prepared->snapshot_version(), 3u);

  auto hit = session.Estimate(*prepared);
  auto hit_plan = session.Optimize(*prepared);
  ASSERT_TRUE(hit.ok() && hit_plan.ok());
  EXPECT_TRUE(hit->cache_hit());
  EXPECT_TRUE(hit_plan->cache_hit());
  EXPECT_EQ(hit->snapshot_version(), 1u);

  const Session uncached =
      MakeSession(*db, Session::Options().set_use_cache(false));
  auto cold = uncached.Estimate(*prepared);
  auto cold_plan = uncached.Optimize(*prepared);
  ASSERT_TRUE(cold.ok() && cold_plan.ok());
  EXPECT_EQ(cold->snapshot_version(), 3u);
  EXPECT_TRUE(SameEstimate(*hit, *cold));
  EXPECT_TRUE(SamePlan(*hit_plan, *cold_plan));
  EXPECT_EQ(hit_plan->ToString(), cold_plan->ToString());
}

TEST(Cache, LruEvictionStaysWithinCapacity) {
  auto db = OpenExample1(Database::Options()
                             .set_cache_capacity(4)
                             .set_cache_shards(1)
                             .set_cache_label("lru"));
  const Session session = MakeSession(*db);
  for (int k = 0; k < 10; ++k) {
    auto estimate = session.Estimate(
        "SELECT COUNT(*) FROM R1, R2 WHERE R1.x = R2.y AND R1.x < " +
        std::to_string(k + 1));
    ASSERT_TRUE(estimate.ok()) << estimate.status();
    EXPECT_FALSE(estimate->cache_hit());
    EXPECT_LE(db->cache_stats().size, 4);
  }
  const ServiceCacheStats stats = db->cache_stats();
  EXPECT_LE(stats.size, 4);
  EXPECT_GE(stats.evictions, 6);

  // The most recent key survived.
  auto warm = session.Estimate(
      "SELECT COUNT(*) FROM R1, R2 WHERE R1.x = R2.y AND R1.x < 10");
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit());
}

TEST(Facade, StatusPaths) {
  // Invalid database options are rejected at Open.
  EXPECT_FALSE(Database::Open(Database::Options().set_cache_capacity(0)).ok());
  EXPECT_FALSE(Database::Open(Database::Options().set_cache_shards(-1)).ok());
  AnalyzeOptions bad_analyze;
  bad_analyze.sample_fraction = 0.0;
  EXPECT_FALSE(Database::Open(Database::Options().set_analyze(bad_analyze))
                   .ok());

  auto db = OpenExample1();

  // Invalid session options are rejected at CreateSession.
  OptimizerOptions bad_optimizer;
  bad_optimizer.randomized.restarts = 0;
  EXPECT_FALSE(
      db->CreateSession(Session::Options().set_optimizer(bad_optimizer))
          .ok());
  OptimizerOptions bushy_greedy;
  bushy_greedy.enumerator = OptimizerOptions::Enumerator::kGreedy;
  bushy_greedy.allow_bushy = true;
  EXPECT_FALSE(
      db->CreateSession(Session::Options().set_optimizer(bushy_greedy)).ok());

  const Session session = MakeSession(*db);
  // Unknown table and malformed SQL surface as Status, not crashes.
  EXPECT_FALSE(session.Prepare("SELECT COUNT(*) FROM Nope").ok());
  EXPECT_FALSE(session.Estimate("SELECT COUNT(* FROM").ok());
  // A default-constructed prepared query is rejected.
  EXPECT_FALSE(session.Estimate(PreparedQuery{}).ok());
  // Loading a duplicate table name fails without publishing.
  const uint64_t version = db->snapshot()->version();
  Catalog dup;
  JOINEST_CHECK(BuildExample1Dataset(dup).ok());
  EXPECT_FALSE(db->ImportTables(std::move(dup)).ok());
  EXPECT_EQ(db->snapshot()->version(), version);
}

// The tsan centrepiece: sessions race Prepare/Estimate/Optimize/Execute
// against concurrent ANALYZE republishes. Readers must never block, tear,
// or observe a half-published snapshot.
TEST(Concurrency, SessionsRaceAnalyzeRepublish) {
  auto db = OpenExample1(Database::Options().set_cache_label("race"));
  constexpr int kReaders = 4;
  constexpr int kIterations = 60;
  constexpr int kRepublishes = 25;

  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &failures, r] {
      const Session session = MakeSession(*db);
      const Session uncached =
          MakeSession(*db, Session::Options().set_use_cache(false));
      for (int i = 0; i < kIterations; ++i) {
        auto prepared = session.Prepare(kJoinSql);
        if (!prepared.ok()) {
          ++failures;
          continue;
        }
        auto estimate = session.Estimate(*prepared);
        auto plan = session.Optimize(*prepared);
        if (!estimate.ok() || !plan.ok()) {
          ++failures;
          continue;
        }
        // A hit may come from an earlier snapshot whose digests of R1-R3
        // equal the prepared one's (Analyze restores R1's statistics), so
        // check values: both must equal what the prepared snapshot computes.
        auto cold = uncached.Estimate(*prepared);
        auto cold_plan = uncached.Optimize(*prepared);
        if (!cold.ok() || !cold_plan.ok() || !SameEstimate(*estimate, *cold) ||
            !SamePlan(*plan, *cold_plan)) {
          ++failures;
        }
        if ((i + r) % 20 == 0) {
          auto result = session.Execute(*prepared);
          if (!result.ok() || result->execution.count != 1000) ++failures;
        }
      }
    });
  }

  std::thread writer([&db] {
    for (int i = 0; i < kRepublishes; ++i) {
      TableStats stats = db->snapshot()->catalog().stats(0);
      stats.row_count = 1000.0 + i;
      JOINEST_CHECK(db->SetTableStats("R1", std::move(stats)).ok());
      JOINEST_CHECK(db->Analyze().ok());
    }
  });

  for (std::thread& t : readers) t.join();
  writer.join();

  EXPECT_EQ(failures.load(), 0);
  // Every republish bumped the version: initial import + 2 per iteration.
  EXPECT_GE(db->snapshot()->version(), 1u + 2u * kRepublishes);
}

// Two threads run ExplainAnalyze with trace capture on while a third
// prepares queries. Each call must trace into a session of its own thread:
// a process-wide per-call session made the second caller's activation
// CHECK-fail, let the preparer's query::parse span record into a session
// its owner had freed, and let one caller report another's spans.
TEST(Concurrency, ExplainAnalyzeTracesOnSeveralThreads) {
  auto db = OpenExample1(Database::Options().set_cache_label("explain"));
  constexpr int kCalls = 2000;
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};

  const auto explain = [&db, &failures] {
    const Session session = MakeSession(*db);
    ASSERT_TRUE(session.options().capture_trace());
    auto prepared = session.Prepare(kJoinSql);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    for (int i = 0; i < kCalls; ++i) {
      auto report = session.ExplainAnalyze(*prepared);
      if (!report.ok() || report->count != 1000 ||
          report->trace_json.empty()) {
        ++failures;
        continue;
      }
      // This call's spans only: one explain_analyze, no other thread's.
      for (const ExplainAnalyzeReport::SpanSummary& span : report->spans) {
        if ((span.name == "explain_analyze" && span.count != 1) ||
            span.name == "query::parse") {
          ++failures;
        }
      }
    }
  };
  std::thread first(explain);
  std::thread second(explain);
  std::thread preparer([&db, &failures, &done] {
    const Session session = MakeSession(*db);
    while (!done.load()) {
      if (!session.Prepare(kJoinSql).ok()) ++failures;
    }
  });
  first.join();
  second.join();
  done = true;
  preparer.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace joinest
