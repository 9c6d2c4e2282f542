// Predicate-transfer throughput: COUNT(*) over a skewed 3-table chain whose
// canonical plan builds a large intermediate that the final selective join
// then throws away — the workload predicate transfer exists for.
//
//   F1(j)  -j-  F2(j, z)  -z-  D(z)
//
// The j columns are Zipf-skewed over a small domain, so F1 ⨝ F2 fans out to
// many times the base rows; D covers only a small prefix of F2's z domain,
// so the last join keeps a few percent of that intermediate. The backward
// transfer pass pushes D's domain through F2 into F1 before any join runs,
// shrinking the intermediate at the source.
//
// Three modes, required to produce bit-identical counts:
//   pt_off    — the canonical safe plan (F1 ⨝ F2 first) over full scans;
//   pt_on     — RunPredicateTransfer, then the same plan over the reduced
//               scans. Timed end to end (reduction included);
//   optimizer — the plan OptimizeQuery picks under the ELS preset, over
//               full scans, without predicate transfer. Planned once,
//               outside the timer.
//
// Each mode runs one warm-up plus five timed runs, interleaved with
// the other modes' runs; the reported wall time is the median
// (bench/timing.h). rows/sec normalises by total
// base-table rows. pt_on must run at least 1.5x pt_off's rate, in smoke
// and full mode alike, or the run fails. pt_on's rate over optimizer's is
// printed and not checked: the cost-based plan joins D first and discards
// the intermediate at the source without any transfer, so pt_off is the
// plan PT rescues, not the best plan for this query.
//
// Usage: bench_pt [--smoke]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "estimator/presets.h"
#include "executor/execute.h"
#include "optimizer/optimizer.h"
#include "pt/reducer.h"
#include "storage/catalog.h"
#include "storage/datagen.h"
#include "storage/table.h"
#include "timing.h"

namespace joinest {
namespace {

struct Fixture {
  Catalog catalog;
  QuerySpec spec;
  int64_t total_rows = 0;
};

// F1, F2 with `scale` rows each; D with scale/50 rows. The j domain is
// scale/8 with Zipf(0.8) frequencies (heavy hitters multiply through the
// first join); D's z domain is the {0 .. scale/50 - 1} prefix of F2's much
// wider z domain, so only a few percent of F2 — and of the F1 ⨝ F2
// intermediate — survives the final join.
Fixture MakeFixture(int64_t scale) {
  Fixture f;
  Rng rng(42);
  const int64_t d_j = std::max<int64_t>(8, scale / 8);
  const int64_t dim_rows = std::max<int64_t>(16, scale / 50);
  const int64_t d_z = 20 * dim_rows;

  Table f1 = Table::FromColumns(
      Schema({{"j", TypeKind::kInt64}}),
      {ToValueColumn(MakeZipfColumn(scale, d_j, 0.8, rng))});
  Table f2 = Table::FromColumns(
      Schema({{"j", TypeKind::kInt64}, {"z", TypeKind::kInt64}}),
      {ToValueColumn(MakeZipfColumn(scale, d_j, 0.8, rng)),
       ToValueColumn(MakeUniformColumn(scale, d_z, rng))});
  Table d = Table::FromColumns(
      Schema({{"z", TypeKind::kInt64}}),
      {ToValueColumn(MakeUniformColumn(dim_rows, dim_rows, rng))});
  JOINEST_CHECK(f.catalog.AddTable("F1", std::move(f1)).ok());
  JOINEST_CHECK(f.catalog.AddTable("F2", std::move(f2)).ok());
  JOINEST_CHECK(f.catalog.AddTable("D", std::move(d)).ok());

  f.spec.count_star = true;
  for (const char* name : {"F1", "F2", "D"}) {
    JOINEST_CHECK(f.spec.AddTable(f.catalog, name).ok());
  }
  f.spec.predicates.push_back(
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  f.spec.predicates.push_back(
      Predicate::Join(ColumnRef{1, 1}, ColumnRef{2, 0}));
  f.total_rows = 2 * scale + dim_rows;
  return f;
}

}  // namespace
}  // namespace joinest

int main(int argc, char** argv) {
  using namespace joinest;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }

  const int64_t scale = smoke ? 50000 : 400000;
  std::fprintf(stderr, "building fixture (scale %lld)...\n",
               static_cast<long long>(scale));
  const Fixture f = MakeFixture(scale);
  const std::unique_ptr<PlanNode> plan = CanonicalSafePlan(f.spec);
  OptimizerOptions optimizer_options;
  optimizer_options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto optimized = OptimizeQuery(f.catalog, f.spec, optimizer_options);
  JOINEST_CHECK(optimized.ok()) << optimized.status();

  std::printf("== predicate transfer: %lld base rows%s ==\n",
              static_cast<long long>(f.total_rows), smoke ? " (smoke)" : "");
  std::string order;
  for (int table : optimized->join_order) {
    if (!order.empty()) order += " ⨝ ";
    order += f.catalog.entry(f.spec.tables[table].catalog_id).name;
  }
  std::printf("optimizer plan (ELS): %s\n", order.c_str());

  int64_t rows_pruned = 0;
  const std::vector<Timing> results = TimeModes({
      {"pt_off",
       [&] {
         auto run = ExecutePlan(f.catalog, f.spec, *plan);
         JOINEST_CHECK(run.ok()) << run.status();
         return run->count;
       }},
      {"pt_on",
       [&] {
         auto pt = RunPredicateTransfer(f.catalog, f.spec);
         JOINEST_CHECK(pt.ok()) << pt.status();
         rows_pruned = pt->rows_pruned();
         auto run = ExecutePlan(f.catalog, f.spec, *plan, &pt->selections);
         JOINEST_CHECK(run.ok()) << run.status();
         return run->count;
       }},
      {"optimizer",
       [&] {
         auto run = ExecutePlan(f.catalog, f.spec, *optimized->root);
         JOINEST_CHECK(run.ok()) << run.status();
         return run->count;
       }},
  });

  // The reduction may only drop rows that cannot join, and every plan
  // counts the same join: identical counts or the numbers are meaningless.
  for (const Timing& r : results) {
    JOINEST_CHECK_EQ(r.result, results[0].result)
        << r.mode << " diverges from pt_off";
  }

  TablePrinter printer({"mode", "wall s", "rows/sec", "vs pt_off"});
  char buf[64];
  for (const Timing& r : results) {
    std::vector<std::string> cells;
    cells.push_back(r.mode);
    std::snprintf(buf, sizeof buf, "%.4f", r.seconds);
    cells.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.0f", f.total_rows / r.seconds);
    cells.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.2fx", results[0].seconds / r.seconds);
    cells.push_back(buf);
    printer.AddRow(std::move(cells));
  }
  printer.Print(std::cout);
  std::printf("pt_on pruned %lld rows\n", static_cast<long long>(rows_pruned));

  // Rates over the same rows, so each ratio of rates is a ratio of times.
  const Timing& pt_off = results[0];
  const Timing& pt_on = results[1];
  const Timing& optimizer = results[2];
  std::printf("pt_on / optimizer: %.2fx (reported, not checked)\n",
              optimizer.seconds / pt_on.seconds);
  return CheckRatios({{"pt_on / pt_off", pt_off.seconds / pt_on.seconds, 1.5}});
}
