// Predicate-transfer subsystem tests: Bloom filter guarantees (no false
// negatives, bounded false positives, merge = union), DAG schedule shape,
// reducer soundness (only non-joining rows dropped), PT-on/PT-off result
// parity through the service facade, and the runtime-selectivity feedback
// into the estimator and its cache digest.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "estimator/analyzed_query.h"
#include "estimator/runtime_selectivity.h"
#include "executor/execute.h"
#include "executor/scan_ops.h"
#include "gtest/gtest.h"
#include "joinest/joinest.h"
#include "pt/bloom.h"
#include "pt/pt_dag.h"
#include "pt/reducer.h"
#include "query/parser.h"
#include "service/fingerprint.h"
#include "tests/test_util.h"

namespace joinest {
namespace {

// ---------------------------------------------------------------- Bloom

TEST(BloomFilterTest, NoFalseNegatives) {
  BlockedBloomFilter filter(10000);
  std::mt19937_64 rng(7);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 10000; ++i) keys.push_back(rng());
  for (uint64_t k : keys) filter.Add(k);
  for (uint64_t k : keys) EXPECT_TRUE(filter.MightContain(k));
  EXPECT_EQ(filter.keys_added(), 10000);
}

double MeasureFpr(double bits_per_key) {
  const int kKeys = 50000;
  BlockedBloomFilter filter(kKeys, bits_per_key);
  std::mt19937_64 rng(42);
  for (int i = 0; i < kKeys; ++i) filter.Add(rng());
  // Fresh draws from a 64-bit space virtually never collide with the
  // inserted set, so every hit is a false positive.
  int false_positives = 0;
  for (int i = 0; i < kKeys; ++i) {
    if (filter.MightContain(rng())) ++false_positives;
  }
  return static_cast<double>(false_positives) / kKeys;
}

TEST(BloomFilterTest, FprTracksBitsPerKey) {
  // ~1-2% expected at 10 bits/key; power-of-two rounding can only help.
  EXPECT_LT(MeasureFpr(10.0), 0.04);
  EXPECT_LT(MeasureFpr(16.0), 0.015);
}

TEST(BloomFilterTest, BatchProbeMatchesScalar) {
  BlockedBloomFilter filter(1000);
  std::mt19937_64 rng(3);
  for (int i = 0; i < 1000; ++i) filter.Add(rng());
  std::vector<uint64_t> hashes;
  for (int i = 0; i < 4096; ++i) hashes.push_back(rng());
  std::vector<char> keep(hashes.size());
  filter.Probe(hashes.data(), static_cast<int>(hashes.size()), keep.data());
  for (size_t i = 0; i < hashes.size(); ++i) {
    EXPECT_EQ(keep[i] != 0, filter.MightContain(hashes[i]));
  }
}

TEST(BloomFilterTest, MergeIsUnion) {
  BlockedBloomFilter a(1000), b(1000);
  ASSERT_EQ(a.num_blocks(), b.num_blocks());
  std::mt19937_64 rng(11);
  std::vector<uint64_t> in_a, in_b;
  for (int i = 0; i < 500; ++i) in_a.push_back(rng());
  for (int i = 0; i < 500; ++i) in_b.push_back(rng());
  for (uint64_t k : in_a) a.Add(k);
  for (uint64_t k : in_b) b.Add(k);
  ASSERT_TRUE(a.MergeFrom(b).ok());
  for (uint64_t k : in_a) EXPECT_TRUE(a.MightContain(k));
  for (uint64_t k : in_b) EXPECT_TRUE(a.MightContain(k));
  EXPECT_EQ(a.keys_added(), 1000);
}

TEST(BloomFilterTest, MergeRejectsGeometryMismatch) {
  BlockedBloomFilter small(100), big(1000000);
  ASSERT_NE(small.num_blocks(), big.num_blocks());
  EXPECT_FALSE(small.MergeFrom(big).ok());
}

// ------------------------------------------------------------------ DAG

Catalog PaperCatalog() {
  Catalog catalog;
  PaperDatasetOptions options;
  JOINEST_CHECK(BuildPaperDataset(catalog, options).ok());
  return catalog;
}

TEST(PtDagTest, ChainScheduleShape) {
  const Catalog catalog = PaperCatalog();
  auto spec = ParseQuery(
      catalog, "SELECT COUNT(*) FROM S, M, B WHERE S.s = M.m AND M.m = B.b");
  ASSERT_TRUE(spec.ok());
  const PtDag dag = PtDag::Build(*spec);

  ASSERT_EQ(dag.steps.size(), 6u);  // Forward 3 + backward 3.
  ASSERT_EQ(dag.table_order.size(), 3u);
  // Head of the forward pass: nothing to probe yet, must build.
  EXPECT_TRUE(dag.steps[0].forward);
  EXPECT_TRUE(dag.steps[0].probes.empty());
  EXPECT_FALSE(dag.steps[0].builds.empty());
  // Tail of the forward pass: must probe, nothing downstream to build for.
  EXPECT_FALSE(dag.steps[2].probes.empty());
  EXPECT_TRUE(dag.steps[2].builds.empty());
  // Backward pass mirrors: starts at the tail, ends at the head.
  EXPECT_FALSE(dag.steps[3].forward);
  EXPECT_EQ(dag.steps[3].table, dag.steps[2].table);
  EXPECT_TRUE(dag.steps[3].probes.empty());
  EXPECT_FALSE(dag.steps[3].builds.empty());
  EXPECT_FALSE(dag.steps[5].probes.empty());
  EXPECT_TRUE(dag.steps[5].builds.empty());
  EXPECT_GT(dag.num_builds, 0);
  EXPECT_GT(dag.num_probes, 0);
  // All three tables share one equivalence class: every probe/build carries
  // the same class id.
  const int cls = dag.steps[0].builds[0].class_id;
  for (const PtStep& step : dag.steps) {
    for (const PtColumnFilter& f : step.probes) EXPECT_EQ(f.class_id, cls);
    for (const PtColumnFilter& f : step.builds) EXPECT_EQ(f.class_id, cls);
  }
}

TEST(PtDagTest, SingleJoinPairSymmetric) {
  const Catalog catalog = PaperCatalog();
  auto spec =
      ParseQuery(catalog, "SELECT COUNT(*) FROM S, M WHERE S.s = M.m");
  ASSERT_TRUE(spec.ok());
  const PtDag dag = PtDag::Build(*spec);
  // 2 builds + 2 probes: fwd build@S probe@M, bwd build@M probe@S.
  EXPECT_EQ(dag.num_builds, 2);
  EXPECT_EQ(dag.num_probes, 2);
}

// --------------------------------------------------------------- Reducer

TEST(PtReducerTest, DropsOnlyNonJoiningRows) {
  Catalog catalog;
  // R.a spans 0..99; T.b spans only 0..19. PT must keep every R row with
  // a < 20 (they join) and may keep a few false positives beyond.
  std::vector<Value> r_col, t_col;
  for (int64_t i = 0; i < 100; ++i) r_col.push_back(Value(int64_t{i}));
  for (int64_t i = 0; i < 20; ++i) t_col.push_back(Value(int64_t{i}));
  Table r = Table::FromColumns(Schema({{"a", TypeKind::kInt64}}), {r_col});
  Table t = Table::FromColumns(Schema({{"b", TypeKind::kInt64}}), {t_col});
  ASSERT_TRUE(catalog.AddTable("R", std::move(r)).ok());
  ASSERT_TRUE(catalog.AddTable("T", std::move(t)).ok());

  auto spec = ParseQuery(catalog, "SELECT COUNT(*) FROM R, T WHERE R.a = T.b");
  ASSERT_TRUE(spec.ok());
  auto result = RunPredicateTransfer(catalog, *spec);
  ASSERT_TRUE(result.ok());

  const std::vector<int64_t>* r_rows = result->selections.ForTable(0);
  ASSERT_NE(r_rows, nullptr);  // R must have been reduced.
  // Soundness: every joining row survives.
  for (int64_t i = 0; i < 20; ++i) {
    EXPECT_NE(std::find(r_rows->begin(), r_rows->end(), i), r_rows->end())
        << "joining row " << i << " was dropped";
  }
  // Effectiveness: the overwhelming majority of non-joining rows go.
  EXPECT_LE(r_rows->size(), 40u);
  // Stats describe the same reduction.
  ASSERT_EQ(result->tables.size(), 2u);
  EXPECT_EQ(result->tables[0].raw_rows, 100);
  EXPECT_EQ(result->tables[0].final_rows,
            static_cast<int64_t>(r_rows->size()));
  EXPECT_TRUE(result->tables[0].selected);
  EXPECT_GT(result->rows_pruned(), 0);

  // Executing with the selections gives the exact unfiltered count.
  auto truth = TrueResultSize(catalog, *spec);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(*truth, 20);
}

TEST(PtReducerTest, SingleTableIsNoOp) {
  const Catalog catalog = PaperCatalog();
  auto spec = ParseQuery(catalog, "SELECT COUNT(*) FROM S WHERE S.s < 100");
  ASSERT_TRUE(spec.ok());
  auto result = RunPredicateTransfer(catalog, *spec);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->selections.empty());
  EXPECT_TRUE(result->filters.empty());
}

TEST(PtReducerTest, RejectsInvalidOptions) {
  const Catalog catalog = PaperCatalog();
  auto spec =
      ParseQuery(catalog, "SELECT COUNT(*) FROM S, M WHERE S.s = M.m");
  ASSERT_TRUE(spec.ok());
  PtOptions options;
  options.bits_per_key = 0.0;
  EXPECT_FALSE(RunPredicateTransfer(catalog, *spec, options).ok());
  options.bits_per_key = 10.0;
  options.parallel_build_threshold = -1;
  EXPECT_FALSE(RunPredicateTransfer(catalog, *spec, options).ok());
}

TEST(PtReducerTest, ParallelBuildMatchesSerial) {
  const Catalog catalog = PaperCatalog();
  auto spec = ParseQuery(
      catalog,
      "SELECT COUNT(*) FROM B, G WHERE B.b = G.g AND G.g < 25000");
  ASSERT_TRUE(spec.ok());
  PtOptions serial;
  serial.parallel_build_threshold = int64_t{1} << 60;  // Never parallel.
  serial.publish_metrics = false;
  PtOptions parallel;
  parallel.parallel_build_threshold = 0;  // Always parallel.
  parallel.publish_metrics = false;
  auto a = RunPredicateTransfer(catalog, *spec, serial);
  auto b = RunPredicateTransfer(catalog, *spec, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // OR-merge of per-slice filters is order-independent, so the surviving
  // row sets are bit-identical.
  ASSERT_EQ(a->tables.size(), b->tables.size());
  for (size_t t = 0; t < a->tables.size(); ++t) {
    EXPECT_EQ(a->tables[t].final_rows, b->tables[t].final_rows);
    const std::vector<int64_t>* rows_a =
        a->selections.ForTable(static_cast<int>(t));
    const std::vector<int64_t>* rows_b =
        b->selections.ForTable(static_cast<int>(t));
    ASSERT_EQ(rows_a == nullptr, rows_b == nullptr);
    if (rows_a != nullptr) {
      EXPECT_EQ(*rows_a, *rows_b);
    }
  }
}

// ---------------------------------------------------------------- Parity

// PT on and PT off must agree on every result: the reduction may only drop
// rows that cannot reach the output.
TEST(PtParityTest, ServiceResultsIdentical) {
  Database db;
  {
    Catalog staged = PaperCatalog();
    ASSERT_TRUE(db.ImportTables(std::move(staged)).ok());
  }
  const Session plain =
      db.CreateSession(Session::Options().set_use_cache(false)).value();
  const Session transfer =
      db.CreateSession(
            Session::Options().set_use_cache(false).set_features(
                EstimatorFeatures{.runtime_selectivities = true}))
          .value();
  const std::vector<std::string> queries = {
      "SELECT COUNT(*) FROM S, M WHERE S.s = M.m",
      "SELECT COUNT(*) FROM S, M, B WHERE S.s = M.m AND M.m = B.b",
      "SELECT COUNT(*) FROM S, M, B, G WHERE S.s = M.m AND M.m = B.b "
      "AND B.b = G.g",
      "SELECT COUNT(*) FROM S, M, B WHERE S.s = M.m AND M.m = B.b "
      "AND S.s < 100",
      "SELECT COUNT(*) FROM S, M WHERE S.s = M.m AND M.m < 50",
      "SELECT S.s FROM S, M WHERE S.s = M.m AND S.s < 200",
      "SELECT COUNT(*) FROM S, M, B WHERE S.s = M.m AND M.m = B.b "
      "AND B.b < 500 GROUP BY S.s",
  };
  for (const std::string& sql : queries) {
    auto off = plain.Execute(sql);
    auto on = transfer.Execute(sql);
    ASSERT_TRUE(off.ok()) << sql << ": " << off.status();
    ASSERT_TRUE(on.ok()) << sql << ": " << on.status();
    EXPECT_EQ(off->execution.count, on->execution.count) << sql;
    EXPECT_EQ(off->execution.output_rows, on->execution.output_rows) << sql;
    EXPECT_EQ(off->predicate_transfer, nullptr) << sql;
    ASSERT_NE(on->predicate_transfer, nullptr) << sql;
    EXPECT_FALSE(on->predicate_transfer->filters.empty()) << sql;
  }
}

TEST(PtParityTest, ExplainAnalyzeCarriesPassRates) {
  Database db;
  {
    Catalog staged = PaperCatalog();
    ASSERT_TRUE(db.ImportTables(std::move(staged)).ok());
  }
  const Session session =
      db.CreateSession(
            Session::Options()
                .set_features(EstimatorFeatures{.runtime_selectivities = true})
                .set_capture_trace(false))
          .value();
  auto report = session.ExplainAnalyze(
      "SELECT COUNT(*) FROM S, M, B WHERE S.s = M.m AND M.m = B.b "
      "AND S.s < 100");
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->predicate_transfer.empty());
  for (const PtFilterRow& row : report->predicate_transfer) {
    EXPECT_GE(row.pass_rate, 0.0);
    EXPECT_LE(row.pass_rate, 1.0);
    EXPECT_LE(row.passed, row.probed);
  }
  // True cardinalities are measured on the UNFILTERED tables: level 1
  // actual for the restricted chain is the exact 100-row ground truth.
  ASSERT_FALSE(report->join_levels.empty());
  EXPECT_EQ(report->join_levels.back().actual, 100);
  const std::string text = report->FormatText();
  EXPECT_NE(text.find("Predicate transfer"), std::string::npos);
  EXPECT_NE(report->ToJson().find("predicate_transfer"), std::string::npos);
}

// --------------------------------------------- Runtime selectivity store

TEST(RuntimeSelectivityStoreTest, EpochBumpsOnMaterialChangeOnly) {
  RuntimeSelectivityStore store;
  EXPECT_EQ(store.epoch(), 0u);
  store.RecordTableSurvival("S", 0.5);
  const uint64_t e1 = store.epoch();
  EXPECT_GT(e1, 0u);
  // Re-recording the same value must not invalidate caches.
  store.RecordTableSurvival("S", 0.5);
  EXPECT_EQ(store.epoch(), e1);
  store.RecordTableSurvival("S", 0.25);
  EXPECT_GT(store.epoch(), e1);
  store.RecordColumnPassRate("S", 0, 0.75);
  EXPECT_EQ(store.ColumnPassRate("S", 0).value(), 0.75);
  EXPECT_EQ(store.TableSurvival("S").value(), 0.25);
  EXPECT_FALSE(store.TableSurvival("M").has_value());
  EXPECT_EQ(store.size(), 2);
  const uint64_t before_clear = store.epoch();
  store.Clear();
  EXPECT_GT(store.epoch(), before_clear);
  EXPECT_EQ(store.size(), 0);
  store.Clear();  // Clearing an empty store is a no-op.
  EXPECT_EQ(store.epoch(), before_clear + 1);
}

TEST(RuntimeSelectivityStoreTest, ClampsRates) {
  RuntimeSelectivityStore store;
  store.RecordTableSurvival("S", -0.5);
  EXPECT_EQ(store.TableSurvival("S").value(), 0.0);
  store.RecordTableSurvival("S", 7.0);
  EXPECT_EQ(store.TableSurvival("S").value(), 1.0);
}

TEST(RuntimeSelectivityTest, EstimatorConsultsStore) {
  Catalog catalog;
  AddStatsOnlyTable(catalog, "R1", 1000, {100});
  AddStatsOnlyTable(catalog, "R2", 1000, {100});
  QuerySpec spec = MakeCountSpec(catalog, 2);
  spec.predicates.push_back(Predicate::Join({0, 0}, {1, 0}));

  EstimationOptions options;
  auto baseline = AnalyzedQuery::Create(catalog, spec, options);
  ASSERT_TRUE(baseline.ok());
  const double base_estimate = baseline->EstimateFullJoin();

  auto store = std::make_shared<RuntimeSelectivityStore>();
  store->RecordTableSurvival("R1", 0.5);
  store->RecordColumnPassRate("R1", 0, 0.5);
  options.runtime_selectivities = store;
  auto refined = AnalyzedQuery::Create(catalog, spec, options);
  ASSERT_TRUE(refined.ok());
  // Survival halves ||R1||'; the pass rate halves d'_a, which RAISES the
  // join selectivity (1/max(d',d') with the other side unchanged at 100
  // keeps S_J constant here), so the net estimate is survival-scaled.
  EXPECT_LT(refined->EstimateFullJoin(), base_estimate);
  EXPECT_NEAR(refined->profile(0).effective_rows,
              baseline->profile(0).effective_rows * 0.5, 1e-9);
  EXPECT_NEAR(refined->profile(0).join_distinct[0],
              baseline->profile(0).join_distinct[0] * 0.5, 1e-9);
}

TEST(RuntimeSelectivityTest, DigestTracksStoreEpoch) {
  EstimationOptions options;
  const uint64_t without = EstimationOptionsDigest(options);
  auto store = std::make_shared<RuntimeSelectivityStore>();
  options.runtime_selectivities = store;
  const uint64_t with_empty = EstimationOptionsDigest(options);
  EXPECT_NE(without, with_empty);
  store->RecordTableSurvival("S", 0.5);
  const uint64_t after_record = EstimationOptionsDigest(options);
  EXPECT_NE(with_empty, after_record);
  // Same observation re-recorded: digest (and so cache keys) stable.
  store->RecordTableSurvival("S", 0.5);
  EXPECT_EQ(EstimationOptionsDigest(options), after_record);
}

// Executing with PT on must make later estimates in PT sessions reflect the
// observed reduction, while paper-faithful sessions stay untouched. The
// catalog violates containment — R.a spans 0..99, T.b spans 50..149 — so the
// static estimate (100 rows) overshoots the truth (50 rows); the observed
// ~50% survival pulls the runtime-informed estimate down to match.
TEST(RuntimeSelectivityTest, ExecuteFeedsLaterEstimates) {
  Database db;
  {
    Catalog staged;
    std::vector<Value> r_col, t_col;
    for (int64_t i = 0; i < 100; ++i) {
      r_col.push_back(Value(int64_t{i}));
      t_col.push_back(Value(int64_t{i + 50}));
    }
    Table r =
        Table::FromColumns(Schema({{"a", TypeKind::kInt64}}), {r_col});
    Table t =
        Table::FromColumns(Schema({{"b", TypeKind::kInt64}}), {t_col});
    ASSERT_TRUE(staged.AddTable("R", std::move(r)).ok());
    ASSERT_TRUE(staged.AddTable("T", std::move(t)).ok());
    ASSERT_TRUE(db.ImportTables(std::move(staged)).ok());
  }
  const std::string sql = "SELECT COUNT(*) FROM R, T WHERE R.a = T.b";
  const Session plain = db.CreateSession().value();
  const Session transfer =
      db.CreateSession(Session::Options().set_features(
                           EstimatorFeatures{.runtime_selectivities = true}))
          .value();

  auto before = transfer.Estimate(sql);
  ASSERT_TRUE(before.ok());
  auto plain_before = plain.Estimate(sql);
  ASSERT_TRUE(plain_before.ok());
  EXPECT_NEAR(before->rows(), 100.0, 1.0);

  auto executed = transfer.Execute(sql);
  ASSERT_TRUE(executed.ok());
  EXPECT_EQ(executed->execution.count, 50);
  EXPECT_GT(db.runtime_selectivities().size(), 0);

  auto after = transfer.Estimate(sql);
  ASSERT_TRUE(after.ok());
  // The observed ~50% survival on both sides must shrink the estimate
  // toward the true 50 rows (Bloom false positives keep it approximate).
  EXPECT_LT(after->rows(), 0.8 * before->rows());
  EXPECT_FALSE(after->cache_hit());
  // The paper-faithful session is unaffected — bit-identical estimate.
  auto plain_after = plain.Estimate(sql);
  ASSERT_TRUE(plain_after.ok());
  EXPECT_EQ(plain_after->rows(), plain_before->rows());
}

// --------------------------------------------- Executor regression tests

TEST(ScanRegressionTest, ProjectDuplicateColumn) {
  // SELECT S.a, S.a: the projection references one child position twice.
  // The move fast path used to leave the second occurrence reading a
  // moved-from Value.
  std::vector<Value> col;
  for (int64_t i = 0; i < 5; ++i) col.push_back(Value(int64_t{i * 7}));
  Table table = Table::FromColumns(Schema({{"a", TypeKind::kInt64}}), {col});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  ProjectOperator project(std::move(scan),
                          {ColumnRef{0, 0}, ColumnRef{0, 0}});
  project.Open();
  RowBatch batch;
  int64_t i = 0;
  while (project.NextBatch(batch)) {
    for (int r = 0; r < batch.size(); ++r) {
      const Row& row = batch.row(r);
      ASSERT_EQ(row.size(), 2u);
      EXPECT_EQ(row[0], Value(int64_t{i * 7}));
      EXPECT_EQ(row[1], Value(int64_t{i * 7}));
      ++i;
    }
  }
  project.Close();
  EXPECT_EQ(i, 5);
}

TEST(ScanRegressionTest, SelectionScanEmptyAndShortBatches) {
  std::vector<Value> col;
  for (int64_t i = 0; i < 3000; ++i) col.push_back(Value(int64_t{i}));
  Table table = Table::FromColumns(Schema({{"a", TypeKind::kInt64}}), {col});

  {
    // Empty selection: no rows, no crash, count drive included.
    SeqScanOperator scan(table, 0,
                         std::make_shared<const std::vector<int64_t>>());
    EXPECT_EQ(scan.name(), "SelectionScan");
    scan.Open();
    EXPECT_EQ(scan.Count(), 0);
    scan.Close();
    SeqScanOperator batch_scan(
        table, 0, std::make_shared<const std::vector<int64_t>>());
    batch_scan.Open();
    RowBatch batch;
    EXPECT_FALSE(batch_scan.NextBatch(batch));
    batch_scan.Close();
  }
  {
    // 1500 selected rows: one full batch (1024) + one short batch (476).
    std::vector<int64_t> ids;
    for (int64_t i = 0; i < 3000; i += 2) ids.push_back(i);
    SeqScanOperator scan(
        table, 0,
        std::make_shared<const std::vector<int64_t>>(std::move(ids)));
    scan.Open();
    RowBatch batch;
    int64_t total = 0;
    int64_t expect = 0;
    while (scan.NextBatch(batch)) {
      for (int i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(batch.row(i)[0], Value(int64_t{expect}));
        expect += 2;
      }
      total += batch.size();
    }
    scan.Close();
    EXPECT_EQ(total, 1500);
  }
}

}  // namespace
}  // namespace joinest
