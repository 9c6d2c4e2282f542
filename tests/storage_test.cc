// Tests for storage/: Table, the string dictionary, Catalog, ANALYZE, data
// generators, canonical datasets.

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>

#include "common/random.h"
#include "executor/execute.h"
#include "gtest/gtest.h"
#include "storage/analyze.h"
#include "storage/catalog.h"
#include "storage/datagen.h"
#include "storage/datasets.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace joinest {
namespace {

Schema TwoColSchema() {
  return Schema({{"id", TypeKind::kInt64}, {"name", TypeKind::kString}});
}

// ---------------------------------------------------------------- Table

TEST(TableTest, AppendAndRead) {
  Table table(TwoColSchema());
  table.AppendRow({Value(int64_t{1}), Value(std::string("a"))});
  table.AppendRow({Value(int64_t{2}), Value(std::string("b"))});
  EXPECT_EQ(table.num_rows(), 2);
  EXPECT_EQ(table.at(0, 0).AsInt64(), 1);
  EXPECT_EQ(table.at(1, 1).AsString(), "b");
}

TEST(TableTest, FromColumns) {
  Table table = Table::FromColumns(
      TwoColSchema(),
      {ToValueColumn(std::vector<int64_t>{1, 2, 3}),
       ToValueColumn(std::vector<std::string>{"x", "y", "z"})});
  EXPECT_EQ(table.num_rows(), 3);
  EXPECT_EQ(table.at(2, 0).AsInt64(), 3);
  EXPECT_EQ(table.at(2, 1).AsString(), "z");
}

TEST(TableTest, RowMaterialisation) {
  Table table = Table::FromColumns(
      TwoColSchema(), {ToValueColumn(std::vector<int64_t>{10}),
                       ToValueColumn(std::vector<std::string>{"q"})});
  const std::vector<Value> row = table.Row(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].AsInt64(), 10);
  EXPECT_EQ(row[1].AsString(), "q");
}

TEST(TableTest, CellAccess) {
  Table table = Table::FromColumns(
      Schema({{"v", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{5, 6, 7})});
  const std::vector<Cell>& col = table.cells(0);
  EXPECT_EQ(col.size(), 3u);
  EXPECT_EQ(col[1], 6);
}

// One string holds one code, whichever table interned it first.
TEST(StringDictionaryTest, EqualStringsShareACodeAcrossTables) {
  const Schema schema({{"s", TypeKind::kString}});
  Table a = Table::FromColumns(
      schema, {ToValueColumn(std::vector<std::string>{"dict-x", "dict-y"})});
  Table b = Table::FromColumns(
      schema, {ToValueColumn(std::vector<std::string>{"dict-y", "dict-x"})});
  EXPECT_EQ(a.cells(0)[0], b.cells(0)[1]);
  EXPECT_EQ(a.cells(0)[1], b.cells(0)[0]);
  EXPECT_NE(a.cells(0)[0], a.cells(0)[1]);
  EXPECT_EQ(StringDictionary::Global().Lookup(a.cells(0)[1]), "dict-y");
  EXPECT_EQ(StringDictionary::Global().Find("dict-x"),
            std::optional<Cell>(a.cells(0)[0]));
  EXPECT_EQ(StringDictionary::Global().Find("dict-never-stored"),
            std::nullopt);
}

// Builder threads intern overlapping strings into new tables while another
// thread counts a string join between two tables built before them: the
// dictionary is the only state they share. Every count stays exact, and
// every built table reads back its own strings.
TEST(StringDictionaryTest, ConcurrentInterningKeepsJoinsExact) {
  Catalog catalog;
  std::vector<std::string> left;
  std::vector<std::string> right;
  for (int i = 0; i < 200; ++i) {
    left.push_back("race-" + std::to_string(i % 40));
    right.push_back("race-" + std::to_string((i * 7) % 60));
  }
  const Schema schema({{"s", TypeKind::kString}});
  ASSERT_TRUE(
      catalog.AddTable("L", Table::FromColumns(schema, {ToValueColumn(left)}))
          .ok());
  ASSERT_TRUE(
      catalog.AddTable("R", Table::FromColumns(schema, {ToValueColumn(right)}))
          .ok());
  QuerySpec spec = MakeCountSpec(catalog, 2);
  spec.predicates = {Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0})};
  const int64_t expected = EnumerateJoin(catalog, spec, {}).rows;
  ASSERT_GT(expected, 0);

  std::atomic<bool> mismatch{false};
  std::vector<std::thread> builders;
  for (int t = 0; t < 3; ++t) {
    builders.emplace_back([t, &schema, &mismatch] {
      for (int round = 0; round < 20; ++round) {
        std::vector<std::string> strings;
        for (int i = 0; i < 50; ++i) {
          strings.push_back("race-" +
                            std::to_string((round * 13 + i * t) % 90));
        }
        const Table table =
            Table::FromColumns(schema, {ToValueColumn(strings)});
        for (int64_t r = 0; r < table.num_rows(); ++r) {
          if (table.at(r, 0).AsString() != strings[static_cast<size_t>(r)]) {
            mismatch = true;
          }
        }
      }
    });
  }
  std::thread counter([&] {
    for (int round = 0; round < 20; ++round) {
      auto truth = TrueResultSize(catalog, spec);
      if (!truth.ok() || *truth != expected) mismatch = true;
      auto plan = ExecutePlan(catalog, spec, *CanonicalSafePlan(spec));
      if (!plan.ok() || plan->count != expected) mismatch = true;
    }
  });
  for (std::thread& builder : builders) builder.join();
  counter.join();
  EXPECT_FALSE(mismatch);
}

TEST(TableTest, EmptyTable) {
  Table table(TwoColSchema());
  EXPECT_EQ(table.num_rows(), 0);
  EXPECT_EQ(table.num_columns(), 2);
}

TEST(TableDeathTest, TypeMismatchAborts) {
  Table table(TwoColSchema());
  EXPECT_DEATH(table.AppendRow({Value(std::string("no")), Value(int64_t{1})}),
               "type mismatch");
}

TEST(TableDeathTest, RaggedColumnsAbort) {
  EXPECT_DEATH(Table::FromColumns(
                   TwoColSchema(),
                   {ToValueColumn(std::vector<int64_t>{1, 2}),
                    ToValueColumn(std::vector<std::string>{"a"})}),
               "ragged");
}

// ---------------------------------------------------------------- Analyze

TEST(AnalyzeTest, RowAndDistinctCounts) {
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}, {"b", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1, 1, 2, 2, 3}),
       ToValueColumn(std::vector<int64_t>{7, 7, 7, 7, 7})});
  const TableStats stats = AnalyzeTable(table);
  EXPECT_DOUBLE_EQ(stats.row_count, 5);
  EXPECT_DOUBLE_EQ(stats.column(0).distinct_count, 3);
  EXPECT_DOUBLE_EQ(stats.column(1).distinct_count, 1);
}

TEST(AnalyzeTest, MinMaxForNumericColumns) {
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{5, -2, 9, 0})});
  const TableStats stats = AnalyzeTable(table);
  EXPECT_DOUBLE_EQ(*stats.column(0).min, -2);
  EXPECT_DOUBLE_EQ(*stats.column(0).max, 9);
}

TEST(AnalyzeTest, StringColumnsHaveNoMinMax) {
  Table table = Table::FromColumns(
      Schema({{"s", TypeKind::kString}}),
      {ToValueColumn(std::vector<std::string>{"a", "b"})});
  const TableStats stats = AnalyzeTable(table);
  EXPECT_FALSE(stats.column(0).min.has_value());
  EXPECT_DOUBLE_EQ(stats.column(0).distinct_count, 2);
}

TEST(AnalyzeTest, HistogramAttachedWhenRequested) {
  Rng rng(3);
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(MakeUniformColumn(1000, 100, rng))});
  AnalyzeOptions options;
  options.histogram_kind = AnalyzeOptions::HistogramKind::kEquiDepth;
  const TableStats stats = AnalyzeTable(table, options);
  ASSERT_NE(stats.column(0).histogram, nullptr);
  EXPECT_EQ(stats.column(0).histogram->kind(), Histogram::Kind::kEquiDepth);
  EXPECT_DOUBLE_EQ(stats.column(0).histogram->total_rows(), 1000);
}

TEST(AnalyzeTest, EndBiasedHistogramAttached) {
  Rng rng(9);
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(MakeZipfColumn(5000, 100, 1.0, rng))});
  AnalyzeOptions options;
  options.histogram_kind = AnalyzeOptions::HistogramKind::kEndBiased;
  options.end_biased_singletons = 8;
  const TableStats stats = AnalyzeTable(table, options);
  ASSERT_NE(stats.column(0).histogram, nullptr);
  EXPECT_EQ(stats.column(0).histogram->kind(), Histogram::Kind::kEndBiased);
}

TEST(AnalyzeTest, FullScanDistinctIsExact) {
  Rng rng(11);
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(MakeUniformColumn(5000, 321, rng))});
  const TableStats stats = AnalyzeTable(table);
  EXPECT_DOUBLE_EQ(stats.column(0).distinct_count, 321);
}

TEST(AnalyzeTest, SampledDistinctReasonable) {
  Rng rng(13);
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(MakeUniformColumn(50000, 500, rng))});
  AnalyzeOptions options;
  options.sample_fraction = 0.1;
  const TableStats stats = AnalyzeTable(table, options);
  // Row count stays exact; distinct estimated within 2x.
  EXPECT_DOUBLE_EQ(stats.row_count, 50000);
  EXPECT_GT(stats.column(0).distinct_count, 250);
  EXPECT_LT(stats.column(0).distinct_count, 1000);
}

TEST(AnalyzeTest, SampledDistinctClampedToRowCount) {
  Rng rng(17);
  // Key column: every sampled value is a singleton; GEE scales f1 by
  // sqrt(n/r) which must not exceed n.
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(MakeKeyColumn(10000, rng))});
  AnalyzeOptions options;
  options.sample_fraction = 0.05;
  const TableStats stats = AnalyzeTable(table, options);
  EXPECT_LE(stats.column(0).distinct_count, 10000);
  EXPECT_GT(stats.column(0).distinct_count, 1000);
}

TEST(AnalyzeTest, SampledMinMaxFromSample) {
  Rng rng(19);
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(MakeUniformColumn(20000, 1000, rng))});
  AnalyzeOptions options;
  options.sample_fraction = 0.2;
  const TableStats stats = AnalyzeTable(table, options);
  ASSERT_TRUE(stats.column(0).min.has_value());
  EXPECT_GE(*stats.column(0).min, 0);
  EXPECT_LE(*stats.column(0).max, 999);
}

TEST(AnalyzeTest, NoHistogramByDefault) {
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1, 2})});
  EXPECT_EQ(AnalyzeTable(table).column(0).histogram, nullptr);
}

// ---------------------------------------------------------------- Catalog

TEST(CatalogTest, AddAndResolve) {
  Catalog catalog;
  Table table(TwoColSchema());
  auto id = catalog.AddTable("t", std::move(table));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0);
  EXPECT_EQ(*catalog.ResolveTable("t"), 0);
  EXPECT_EQ(catalog.table_name(0), "t");
}

TEST(CatalogTest, DuplicateNameRejected) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", Table(TwoColSchema())).ok());
  const auto duplicate = catalog.AddTable("t", Table(TwoColSchema()));
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kAlreadyExists);
}

TEST(CatalogTest, UnknownTableNotFound) {
  Catalog catalog;
  EXPECT_EQ(catalog.ResolveTable("nope").status().code(),
            StatusCode::kNotFound);
}

TEST(CatalogTest, StatsCollectedOnAdd) {
  Catalog catalog;
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1, 1, 2})});
  ASSERT_TRUE(catalog.AddTable("t", std::move(table)).ok());
  EXPECT_DOUBLE_EQ(catalog.stats(0).row_count, 3);
  EXPECT_DOUBLE_EQ(catalog.stats(0).column(0).distinct_count, 2);
}

TEST(CatalogTest, ReanalyzeSwapsHistograms) {
  Catalog catalog;
  Rng rng(5);
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(MakeUniformColumn(100, 10, rng))});
  ASSERT_TRUE(catalog.AddTable("t", std::move(table)).ok());
  EXPECT_EQ(catalog.stats(0).column(0).histogram, nullptr);
  AnalyzeOptions options;
  options.histogram_kind = AnalyzeOptions::HistogramKind::kEquiWidth;
  ASSERT_TRUE(catalog.Reanalyze(0, options).ok());
  EXPECT_NE(catalog.stats(0).column(0).histogram, nullptr);
}

// ---------------------------------------------------------------- Datagen

TEST(DatagenTest, UniformColumnDomainAndCover) {
  Rng rng(7);
  const std::vector<int64_t> data = MakeUniformColumn(1000, 50, rng);
  EXPECT_EQ(data.size(), 1000u);
  for (int64_t v : data) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 50);
  }
  // ensure_cover guarantees the realised cardinality equals d exactly.
  EXPECT_EQ(CountDistinct(data), 50);
}

TEST(DatagenTest, UniformColumnWithoutCover) {
  Rng rng(7);
  const std::vector<int64_t> data =
      MakeUniformColumn(10, 1000, rng, /*ensure_cover=*/false);
  EXPECT_EQ(data.size(), 10u);
  EXPECT_LE(CountDistinct(data), 10);
}

TEST(DatagenTest, KeyColumnIsPermutation) {
  Rng rng(11);
  const std::vector<int64_t> data = MakeKeyColumn(500, rng);
  EXPECT_EQ(CountDistinct(data), 500);
  EXPECT_EQ(*std::min_element(data.begin(), data.end()), 0);
  EXPECT_EQ(*std::max_element(data.begin(), data.end()), 499);
}

TEST(DatagenTest, SequentialColumn) {
  const std::vector<int64_t> data = MakeSequentialColumn(5);
  EXPECT_EQ(data, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(DatagenTest, BalancedColumnExactlyEquifrequent) {
  Rng rng(19);
  const std::vector<int64_t> data = MakeBalancedColumn(1000, 50, rng);
  std::vector<int> counts(50, 0);
  for (int64_t v : data) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 50);
    ++counts[v];
  }
  for (int c : counts) EXPECT_EQ(c, 20);
}

TEST(DatagenTest, BalancedColumnShuffled) {
  Rng rng(23);
  const std::vector<int64_t> data = MakeBalancedColumn(1000, 10, rng);
  // The unshuffled layout would be 0,1,..,9,0,1,..; count positions where
  // data[i] == i % 10 — should be near 100, not 1000.
  int in_place = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (data[i] == static_cast<int64_t>(i % 10)) ++in_place;
  }
  EXPECT_LT(in_place, 300);
}

TEST(DatagenDeathTest, BalancedColumnRequiresDivisibility) {
  Rng rng(1);
  EXPECT_DEATH(MakeBalancedColumn(10, 3, rng), "divide");
}

TEST(DatagenTest, ZipfColumnSkewed) {
  Rng rng(13);
  const std::vector<int64_t> data = MakeZipfColumn(10000, 100, 1.2, rng);
  int zeros = 0;
  for (int64_t v : data) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
    if (v == 0) ++zeros;
  }
  // Rank 1 under Zipf(1.2) holds far more than the uniform share (1%).
  EXPECT_GT(zeros, 1000);
}

TEST(DatagenTest, StringColumnShape) {
  Rng rng(17);
  const std::vector<std::string> data = MakeStringColumn(100, 5, rng);
  std::set<std::string> distinct(data.begin(), data.end());
  EXPECT_LE(distinct.size(), 5u);
  for (const std::string& s : data) EXPECT_EQ(s.rfind("v", 0), 0u);
}

// ---------------------------------------------------------------- Datasets

TEST(DatasetsTest, PaperDatasetCardinalities) {
  Catalog catalog;
  PaperDatasetOptions options;
  options.with_payload = false;
  ASSERT_TRUE(BuildPaperDataset(catalog, options).ok());
  ASSERT_EQ(catalog.num_tables(), 4);
  const std::vector<std::pair<std::string, double>> expected = {
      {"S", 1000}, {"M", 10000}, {"B", 50000}, {"G", 100000}};
  for (const auto& [name, rows] : expected) {
    const int id = *catalog.ResolveTable(name);
    EXPECT_DOUBLE_EQ(catalog.stats(id).row_count, rows) << name;
    // Join columns are keys: d = ||R||.
    EXPECT_DOUBLE_EQ(catalog.stats(id).column(0).distinct_count, rows)
        << name;
  }
}

TEST(DatasetsTest, PaperDatasetContainment) {
  Catalog catalog;
  PaperDatasetOptions options;
  options.with_payload = false;
  ASSERT_TRUE(BuildPaperDataset(catalog, options).ok());
  // Every s value lies in {0..9999} etc. (containment by construction).
  const Table& s = catalog.table(*catalog.ResolveTable("S"));
  for (int64_t r = 0; r < s.num_rows(); ++r) {
    EXPECT_GE(s.at(r, 0).AsInt64(), 0);
    EXPECT_LT(s.at(r, 0).AsInt64(), 1000);
  }
}

TEST(DatasetsTest, PaperDatasetScales) {
  Catalog catalog;
  PaperDatasetOptions options;
  options.scale = 2;
  options.with_payload = false;
  ASSERT_TRUE(BuildPaperDataset(catalog, options).ok());
  EXPECT_DOUBLE_EQ(catalog.stats(*catalog.ResolveTable("S")).row_count, 2000);
}

TEST(DatasetsTest, Example1DatasetMatchesPaperStatistics) {
  Catalog catalog;
  ASSERT_TRUE(BuildExample1Dataset(catalog).ok());
  const TableStats& r1 = catalog.stats(*catalog.ResolveTable("R1"));
  const TableStats& r2 = catalog.stats(*catalog.ResolveTable("R2"));
  const TableStats& r3 = catalog.stats(*catalog.ResolveTable("R3"));
  EXPECT_DOUBLE_EQ(r1.row_count, 100);
  EXPECT_DOUBLE_EQ(r2.row_count, 1000);
  EXPECT_DOUBLE_EQ(r3.row_count, 1000);
  EXPECT_DOUBLE_EQ(r1.column(1).distinct_count, 10);   // d_x
  EXPECT_DOUBLE_EQ(r2.column(0).distinct_count, 100);  // d_y
  EXPECT_DOUBLE_EQ(r3.column(0).distinct_count, 1000); // d_z
}

}  // namespace
}  // namespace joinest
