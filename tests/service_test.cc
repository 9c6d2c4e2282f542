// Tests for the estimation service: snapshot lifecycle, cache correctness
// (hits bit-identical to the cold path), invalidation, LRU bounds, facade
// error paths, and the concurrency contract (readers never block ANALYZE,
// run under tsan via tools/run_sanitizers.sh).

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "joinest/joinest.h"
#include "service/fingerprint.h"
#include "tests/test_util.h"

namespace joinest {
namespace {

constexpr char kJoinSql[] =
    "SELECT COUNT(*) FROM R1, R2, R3 WHERE R1.x = R2.y AND R2.y = R3.z";

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
  // Re-analysing identical data yields the same stats digest.
  EXPECT_EQ(before->stats_digest(), after->stats_digest());
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
        // Both ran against the prepared snapshot, whatever was current.
        if (estimate->snapshot_version() != prepared->snapshot_version() ||
            plan->snapshot_version() != prepared->snapshot_version()) {
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

}  // namespace
}  // namespace joinest
