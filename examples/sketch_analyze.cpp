// Sketch statistics walkthrough: collect catalog statistics with the
// streaming sketch subsystem (src/sketch/) instead of a full exact scan,
// inspect what changed, and show that Algorithm ELS estimates survive the
// approximation.
//
// The sketch path streams every column once through a HyperLogLog (distinct
// count), a Count-Min sketch + top-k tracker (heavy hitters for the
// end-biased histogram), and a reservoir sample (histogram tail, min/max) —
// fixed-size state that merges exactly across row-range partitions, so the
// scan splits into `num_partitions` partitions that ParallelFor
// (common/thread_pool.h) spreads over up to NumPoolThreads() threads.

#include <cstdio>

#include "estimator/presets.h"
#include "executor/execute.h"
#include "query/parser.h"
#include "storage/datagen.h"
#include "storage/datasets.h"

using namespace joinest;  // NOLINT - example code

int main() {
  // 1. The paper's running example, analyzed exactly on load.
  Catalog catalog;
  Status status = BuildExample1Dataset(catalog, /*seed=*/7);
  JOINEST_CHECK(status.ok()) << status;

  auto query = ParseQuery(
      catalog, "SELECT COUNT(*) FROM R1, R2, R3 WHERE R1.x = R2.y AND "
               "R2.y = R3.z");
  JOINEST_CHECK(query.ok()) << query.status();

  auto estimate = [&] {
    auto analyzed = AnalyzedQuery::Create(
        catalog, *query, PresetOptions(AlgorithmPreset::kELS));
    JOINEST_CHECK(analyzed.ok()) << analyzed.status();
    return analyzed->EstimateFullJoin();
  };

  std::printf("== Exact statistics ==\n");
  for (int t = 0; t < catalog.num_tables(); ++t) {
    std::printf("%s: %s\n", catalog.table_name(t).c_str(),
                catalog.stats(t).ToString().c_str());
  }
  const double exact_estimate = estimate();
  std::printf("ELS estimate: %.0f\n\n", exact_estimate);

  // 2. Re-collect every table's statistics from sketches, four partitions
  //    per table. Distinct counts become HLL estimates and each
  //    column records its a-priori relative standard error (1.04/sqrt(2^p)).
  AnalyzeOptions analyze;
  analyze.stats_mode = AnalyzeOptions::StatsMode::kSketch;
  analyze.num_partitions = 4;
  status = catalog.ReanalyzeAll(analyze);
  JOINEST_CHECK(status.ok()) << status;

  std::printf("== Sketch statistics (4 partitions per table) ==\n");
  for (int t = 0; t < catalog.num_tables(); ++t) {
    std::printf("%s: %s\n", catalog.table_name(t).c_str(),
                catalog.stats(t).ToString().c_str());
  }
  const double sketch_estimate = estimate();
  std::printf("ELS estimate: %.0f\n\n", sketch_estimate);

  // 3. Ground truth for both.
  auto truth = TrueResultSize(catalog, *query);
  JOINEST_CHECK(truth.ok()) << truth.status();
  std::printf("True result size: %lld\n", static_cast<long long>(*truth));
  std::printf("estimate/truth: exact stats %.3f, sketch stats %.3f\n",
              exact_estimate / static_cast<double>(*truth),
              sketch_estimate / static_cast<double>(*truth));
  return 0;
}
