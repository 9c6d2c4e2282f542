// Tests for src/sketch/: HLL accuracy and merge, CMS bounds and merge,
// reservoir sampling and merge, heavy-hitter recall, the partitioned
// sketch ANALYZE path, and sketch statistics flowing through Algorithm ELS.

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

#include "common/random.h"
#include "estimator/presets.h"
#include "gtest/gtest.h"
#include "sketch/count_min.h"
#include "sketch/hyperloglog.h"
#include "sketch/reservoir.h"
#include "sketch/sketch_profile.h"
#include "storage/analyze.h"
#include "storage/datagen.h"
#include "storage/datasets.h"

namespace joinest {
namespace {

// ------------------------------------------------------------- HyperLogLog

TEST(HyperLogLogTest, AccuracyOnLargeStream) {
  // 10^5 distinct values at p=12: relative error should stay within a few
  // standard errors (1.04/sqrt(4096) ~ 1.6%).
  HyperLogLog hll(12);
  const int64_t n = 100000;
  for (int64_t i = 0; i < n; ++i) hll.AddValue(Value(i));
  const double error = std::abs(hll.Estimate() - n) / n;
  EXPECT_LT(error, 3 * hll.RelativeStandardError())
      << "estimate " << hll.Estimate();
}

TEST(HyperLogLogTest, DuplicatesDoNotInflate) {
  HyperLogLog hll(12);
  for (int round = 0; round < 10; ++round) {
    for (int64_t i = 0; i < 1000; ++i) hll.AddValue(Value(i));
  }
  EXPECT_NEAR(hll.Estimate(), 1000, 0.05 * 1000);
}

TEST(HyperLogLogTest, SmallCardinalitiesNearExact) {
  // Linear counting regime: tiny streams should be near-exact.
  for (int64_t d : {1, 5, 50, 500}) {
    HyperLogLog hll(12);
    for (int64_t i = 0; i < d; ++i) hll.AddValue(Value(i * 7919));
    EXPECT_NEAR(hll.Estimate(), static_cast<double>(d),
                std::max(1.0, 0.03 * static_cast<double>(d)))
        << "d=" << d;
  }
}

TEST(HyperLogLogTest, MergeEqualsSinglePassBuild) {
  // Registers after Merge(build(evens), build(odds)) must be bit-identical
  // to build(all) — the property partitioned ANALYZE relies on.
  HyperLogLog all(10), evens(10), odds(10);
  for (int64_t i = 0; i < 20000; ++i) {
    all.AddValue(Value(i));
    (i % 2 == 0 ? evens : odds).AddValue(Value(i));
  }
  evens.Merge(odds);
  EXPECT_EQ(evens.registers(), all.registers());
  EXPECT_DOUBLE_EQ(evens.Estimate(), all.Estimate());
}

TEST(HyperLogLogTest, MergeWithOverlapIsIdempotent) {
  HyperLogLog a(10), b(10);
  for (int64_t i = 0; i < 5000; ++i) {
    a.AddValue(Value(i));
    b.AddValue(Value(i));  // Identical stream.
  }
  const double before = a.Estimate();
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Estimate(), before);
}

TEST(HyperLogLogTest, StringAndNumericValuesSupported) {
  HyperLogLog hll(12);
  for (int i = 0; i < 3000; ++i) hll.AddValue(Value("key" + std::to_string(i)));
  EXPECT_NEAR(hll.Estimate(), 3000, 0.05 * 3000);
}

// ----------------------------------------------------------- CountMinSketch

TEST(CountMinSketchTest, NeverUnderestimates) {
  CountMinSketch cms(4, 512);
  Rng rng(3);
  std::unordered_map<int64_t, uint64_t> truth;
  for (int i = 0; i < 20000; ++i) {
    const int64_t v = static_cast<int64_t>(rng.NextBounded(2000));
    cms.AddValue(Value(v));
    ++truth[v];
  }
  for (const auto& [value, count] : truth) {
    EXPECT_GE(cms.EstimateValueCount(Value(value)), count);
  }
}

TEST(CountMinSketchTest, ErrorBounded) {
  // Overestimate is at most total·e/width with probability 1 - e^-depth;
  // use a generous 3x slack to keep the test deterministic-robust.
  CountMinSketch cms(4, 2048);
  Rng rng(4);
  std::unordered_map<int64_t, uint64_t> truth;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const int64_t v = static_cast<int64_t>(rng.NextBounded(5000));
    cms.AddValue(Value(v));
    ++truth[v];
  }
  const double bound = 3.0 * std::exp(1.0) * n / 2048;
  for (const auto& [value, count] : truth) {
    EXPECT_LE(cms.EstimateValueCount(Value(value)) - count, bound);
  }
}

TEST(CountMinSketchTest, MergeEqualsSinglePassBuild) {
  CountMinSketch all(4, 256), left(4, 256), right(4, 256);
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const Value v(static_cast<int64_t>(rng.NextBounded(300)));
    all.AddValue(v);
    (i < 5000 ? left : right).AddValue(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.total_count(), all.total_count());
  for (int64_t v = 0; v < 300; ++v) {
    EXPECT_EQ(left.EstimateValueCount(Value(v)),
              all.EstimateValueCount(Value(v)));
  }
}

// ---------------------------------------------------------------- Reservoir

TEST(ReservoirTest, KeepsEverythingBelowCapacity) {
  ReservoirSample reservoir(100, 1);
  for (int64_t i = 0; i < 50; ++i) reservoir.Add(Value(i));
  EXPECT_EQ(reservoir.sample().size(), 50u);
  EXPECT_EQ(reservoir.items_seen(), 50);
}

TEST(ReservoirTest, CapsAtCapacityAndSamplesUniformly) {
  // Mean of a uniform {0..9999} sample should be near 5000.
  ReservoirSample reservoir(500, 2);
  const int64_t n = 10000;
  for (int64_t i = 0; i < n; ++i) reservoir.Add(Value(i));
  EXPECT_EQ(reservoir.sample().size(), 500u);
  EXPECT_EQ(reservoir.items_seen(), n);
  double mean = 0;
  for (const Value& v : reservoir.sample()) mean += v.ToNumeric();
  mean /= 500;
  EXPECT_NEAR(mean, 5000, 400);  // ~3 standard errors.
}

TEST(ReservoirTest, MergeMatchesSinglePassDistribution) {
  // merge(build(A), build(B)) must sample (approximately) uniformly from
  // A ∪ B: proportions from each side track the stream sizes. A holds
  // 30000 negatives, B 10000 positives → ~75% of merged slots negative.
  ReservoirSample a(400, 3), b(400, 4);
  for (int64_t i = 0; i < 30000; ++i) a.Add(Value(-1 - i));
  for (int64_t i = 0; i < 10000; ++i) b.Add(Value(i + 1));
  a.Merge(b);
  EXPECT_EQ(a.items_seen(), 40000);
  EXPECT_EQ(a.sample().size(), 400u);
  int negatives = 0;
  for (const Value& v : a.sample()) negatives += v.ToNumeric() < 0;
  EXPECT_NEAR(negatives / 400.0, 0.75, 0.08);
}

TEST(ReservoirTest, MergeOnlyDrawsFromInputs) {
  ReservoirSample a(64, 5), b(64, 6);
  std::set<int64_t> universe;
  for (int64_t i = 0; i < 1000; ++i) {
    a.Add(Value(i));
    b.Add(Value(10000 + i));
    universe.insert(i);
    universe.insert(10000 + i);
  }
  a.Merge(b);
  for (const Value& v : a.sample()) {
    EXPECT_TRUE(universe.count(v.AsInt64())) << v.ToString();
  }
}

TEST(ReservoirTest, MergeWithEmptySideIsCopy) {
  ReservoirSample a(64, 7), empty(64, 8);
  for (int64_t i = 0; i < 100; ++i) a.Add(Value(i));
  a.Merge(empty);
  EXPECT_EQ(a.items_seen(), 100);
  EXPECT_EQ(a.sample().size(), 64u);
  ReservoirSample target(64, 9);
  target.Merge(a);
  EXPECT_EQ(target.items_seen(), 100);
  EXPECT_EQ(target.sample().size(), 64u);
}

// ------------------------------------------------------------ Heavy hitters

TEST(HeavyHitterTest, RecallsTopValuesOnZipf) {
  // Zipf(1.2) over 1000 values: the top ranks dominate; the tracker must
  // recall the true heaviest values.
  Rng rng(11);
  std::vector<int64_t> data = MakeZipfColumn(100000, 1000, 1.2, rng);
  CountMinSketch cms(4, 4096);
  HeavyHitterTracker tracker(16);
  std::unordered_map<int64_t, uint64_t> truth;
  for (int64_t v : data) {
    const Value value(v);
    cms.AddValue(value);
    tracker.Offer(value, cms.EstimateValueCount(value));
    ++truth[v];
  }
  // True top-8 by frequency.
  std::vector<std::pair<uint64_t, int64_t>> ranked;
  for (const auto& [value, count] : truth) ranked.emplace_back(count, value);
  std::sort(ranked.rbegin(), ranked.rend());
  std::unordered_set<int64_t> tracked;
  for (const auto& [value, count] : tracker.Sorted()) {
    tracked.insert(value.AsInt64());
  }
  int recalled = 0;
  for (int i = 0; i < 8; ++i) recalled += tracked.count(ranked[i].second);
  EXPECT_GE(recalled, 7) << "recalled only " << recalled << " of true top-8";
}

TEST(HeavyHitterTest, MergeRescoresAgainstMergedCounts) {
  // A value that ranks LAST in each partition's tracker but appears in both
  // partitions must come out FIRST after the merge re-scores candidates
  // against the merged CMS.
  CountMinSketch cms_a(4, 1024), cms_b(4, 1024);
  HeavyHitterTracker a(3), b(3);
  auto feed = [](CountMinSketch& cms, HeavyHitterTracker& t, int64_t v,
                 int times) {
    for (int i = 0; i < times; ++i) {
      const Value value(v);
      cms.AddValue(value);
      t.Offer(value, cms.EstimateValueCount(value));
    }
  };
  // Value 42 appears 60x in each partition; partition-local hitters appear
  // 80x but only on one side.
  feed(cms_a, a, 42, 60);
  for (int64_t v = 100; v < 102; ++v) feed(cms_a, a, v, 80);
  feed(cms_b, b, 42, 60);
  for (int64_t v = 200; v < 202; ++v) feed(cms_b, b, v, 80);

  cms_a.Merge(cms_b);
  a.Merge(b, cms_a);
  const auto sorted = a.Sorted();
  EXPECT_EQ(sorted.size(), 3u);
  // 42 has 120 total — the heaviest value overall (CMS never underestimates
  // and with 5 values in a 1024-wide sketch collisions are absent).
  EXPECT_EQ(sorted[0].first.AsInt64(), 42);
  EXPECT_EQ(sorted[0].second, 120u);
}

// ---------------------------------------------------------- Sketch ANALYZE

TEST(SketchAnalyzeTest, PartitionedDistinctWithinFivePercent) {
  // Acceptance criterion: kSketch with num_partitions >= 4 lands within 5%
  // of exact distinct counts on a uniform 10^5-row table.
  Rng rng(21);
  const int64_t rows = 100000;
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}, {"b", TypeKind::kInt64}}),
      {ToValueColumn(MakeUniformColumn(rows, 20000, rng)),
       ToValueColumn(MakeKeyColumn(rows, rng))});
  const TableStats exact = AnalyzeTable(table, AnalyzeOptions());

  AnalyzeOptions options;
  options.stats_mode = AnalyzeOptions::StatsMode::kSketch;
  options.num_partitions = 4;
  const TableStats sketch = AnalyzeTable(table, options);

  EXPECT_EQ(sketch.source, StatsSource::kSketch);
  EXPECT_DOUBLE_EQ(sketch.row_count, exact.row_count);
  for (int c = 0; c < 2; ++c) {
    const double truth = exact.column(c).distinct_count;
    EXPECT_NEAR(sketch.column(c).distinct_count, truth, 0.05 * truth)
        << "column " << c;
    ASSERT_TRUE(sketch.column(c).distinct_relative_error.has_value());
    // Exact min/max survive sketching.
    EXPECT_EQ(*sketch.column(c).min, *exact.column(c).min);
    EXPECT_EQ(*sketch.column(c).max, *exact.column(c).max);
  }
}

TEST(SketchAnalyzeTest, PartitionCountDoesNotChangeDistinct) {
  // HLL/CMS/min/max merges are exact, so the distinct estimate must be
  // identical however many partitions streamed the rows.
  Rng rng(22);
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(MakeUniformColumn(50000, 5000, rng))});
  AnalyzeOptions options;
  options.stats_mode = AnalyzeOptions::StatsMode::kSketch;
  options.num_partitions = 1;
  const TableStats one = AnalyzeTable(table, options);
  for (const int partitions : {4, 8}) {
    options.num_partitions = partitions;
    const TableStats split = AnalyzeTable(table, options);
    EXPECT_DOUBLE_EQ(one.column(0).distinct_count,
                     split.column(0).distinct_count)
        << partitions;
    EXPECT_DOUBLE_EQ(one.row_count, split.row_count) << partitions;
  }
}

TEST(SketchAnalyzeTest, EndBiasedHistogramFindsHotKeys) {
  // 50% of rows share one hot key; the sketch-synthesized end-biased
  // histogram must isolate it like the exact builder does.
  Rng rng(23);
  std::vector<int64_t> data;
  for (int i = 0; i < 50000; ++i) data.push_back(777);
  std::vector<int64_t> tail = MakeUniformColumn(50000, 1000, rng);
  data.insert(data.end(), tail.begin(), tail.end());
  Table table = Table::FromColumns(Schema({{"a", TypeKind::kInt64}}),
                                   {ToValueColumn(data)});
  AnalyzeOptions options;
  options.stats_mode = AnalyzeOptions::StatsMode::kSketch;
  options.num_partitions = 4;
  options.histogram_kind = AnalyzeOptions::HistogramKind::kEndBiased;
  const TableStats stats = AnalyzeTable(table, options);
  ASSERT_NE(stats.column(0).histogram, nullptr);
  const double sel =
      stats.column(0).histogram->Selectivity(CompareOp::kEq, 777);
  // True selectivity is slightly above 0.5 (hot key + uniform share).
  EXPECT_NEAR(sel, 0.5, 0.1);
  // Histogram mass stays close to the table cardinality.
  EXPECT_NEAR(stats.column(0).histogram->total_rows(), 100000, 5000);
}

TEST(SketchAnalyzeTest, GeeCrossEstimateAgreesOnUniformData) {
  Rng rng(24);
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(MakeUniformColumn(100000, 100, rng))});
  AnalyzeOptions options;
  options.stats_mode = AnalyzeOptions::StatsMode::kSketch;
  const SketchProfile profile = BuildSketchProfile(table, options);
  // d=100 ≪ reservoir capacity: every distinct value is repeated in the
  // sample, so GEE degenerates to the sample's distinct count.
  EXPECT_NEAR(profile.column(0).GeeEstimate(100000), 100, 5);
}

TEST(SketchAnalyzeTest, StringColumnsGetDistinctButNoHistogram) {
  Rng rng(25);
  Table table = Table::FromColumns(
      Schema({{"s", TypeKind::kString}}),
      {ToValueColumn(MakeStringColumn(20000, 500, rng))});
  AnalyzeOptions options;
  options.stats_mode = AnalyzeOptions::StatsMode::kSketch;
  options.histogram_kind = AnalyzeOptions::HistogramKind::kEndBiased;
  const TableStats stats = AnalyzeTable(table, options);
  EXPECT_NEAR(stats.column(0).distinct_count, 500, 0.05 * 500);
  EXPECT_EQ(stats.column(0).histogram, nullptr);
  EXPECT_FALSE(stats.column(0).min.has_value());
}

TEST(SketchAnalyzeTest, EmptyTableIsWellFormed) {
  Table table(Schema({{"a", TypeKind::kInt64}}));
  AnalyzeOptions options;
  options.stats_mode = AnalyzeOptions::StatsMode::kSketch;
  options.num_partitions = 4;
  const TableStats stats = AnalyzeTable(table, options);
  EXPECT_DOUBLE_EQ(stats.row_count, 0);
  EXPECT_DOUBLE_EQ(stats.column(0).distinct_count, 0);
}

TEST(SketchAnalyzeTest, SampledModeStillWorksAndRecordsSource) {
  Rng rng(26);
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(MakeUniformColumn(10000, 100, rng))});
  AnalyzeOptions options;
  options.sample_fraction = 0.1;  // Legacy knob without stats_mode.
  const TableStats stats = AnalyzeTable(table, options);
  EXPECT_EQ(stats.source, StatsSource::kSampled);
  EXPECT_DOUBLE_EQ(stats.row_count, 10000);
}

// ------------------------------------------------- Estimator under sketches

TEST(SketchEstimatorTest, ElsEstimatesTrackExactStatsOnPaperExample) {
  // Acceptance: kSketch ELS estimates stay within a small factor of kExact
  // on the paper's running-example schema (R1(a,x) ⋈ R2(y) ⋈ R3(z)).
  Catalog catalog;
  ASSERT_TRUE(BuildExample1Dataset(catalog).ok());

  QuerySpec spec;
  spec.count_star = true;
  ASSERT_TRUE(spec.AddTable(catalog, "R1").ok());
  ASSERT_TRUE(spec.AddTable(catalog, "R2").ok());
  ASSERT_TRUE(spec.AddTable(catalog, "R3").ok());
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 1}, ColumnRef{1, 0}));
  spec.predicates.push_back(Predicate::Join(ColumnRef{1, 0}, ColumnRef{2, 0}));

  auto exact_analyzed = AnalyzedQuery::Create(
      catalog, spec, PresetOptions(AlgorithmPreset::kELS));
  ASSERT_TRUE(exact_analyzed.ok()) << exact_analyzed.status();
  const double exact_estimate = exact_analyzed->EstimateFullJoin();

  ASSERT_TRUE(
      catalog.ReanalyzeAll(StatsPresetOptions(StatsPreset::kSketchStats))
          .ok());
  ASSERT_EQ(catalog.stats(0).source, StatsSource::kSketch);
  auto sketch_analyzed = AnalyzedQuery::Create(
      catalog, spec, PresetOptions(AlgorithmPreset::kELS));
  ASSERT_TRUE(sketch_analyzed.ok()) << sketch_analyzed.status();
  const double sketch_estimate = sketch_analyzed->EstimateFullJoin();

  ASSERT_GT(exact_estimate, 0);
  ASSERT_GT(sketch_estimate, 0);
  const double q_error = std::max(exact_estimate / sketch_estimate,
                                  sketch_estimate / exact_estimate);
  EXPECT_LT(q_error, 1.25) << "exact " << exact_estimate << " sketch "
                           << sketch_estimate;
}

}  // namespace
}  // namespace joinest
