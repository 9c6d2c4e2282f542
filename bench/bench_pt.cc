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
// Two modes, required to produce bit-identical counts:
//   pt_off — the canonical safe plan over full scans;
//   pt_on  — RunPredicateTransfer, then the same plan over the reduced
//            scans. Timed end to end (reduction included), so the reported
//            speedup is the real latency win, not just the join win.
//
// Each mode runs one warm-up plus `repeats` timed runs; the reported wall
// time is the median. rows/sec normalises by total base-table rows. In full
// (non-smoke) runs pt_on must beat pt_off by >= 1.5x or the bench fails.
// Results land in BENCH_pt.json (tools/check_bench_regression.py gates the
// smoke numbers in ctest).
//
// Usage: bench_pt [--smoke] [--out PATH]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "executor/execute.h"
#include "obs/metrics.h"
#include "pt/reducer.h"
#include "storage/catalog.h"
#include "storage/datagen.h"
#include "storage/table.h"

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

struct ModeResult {
  std::string mode;
  double seconds = 0;
  double rows_per_sec = 0;
  int64_t count = 0;
  int64_t rows_pruned = 0;
};

template <typename Fn>
ModeResult TimeMode(const std::string& mode, int repeats, int64_t total_rows,
                    Fn&& run) {
  ModeResult result;
  result.mode = mode;
  std::fprintf(stderr, "  [%s] warm-up...\n", mode.c_str());
  result.count = run(result);  // Warm-up: touches every page.
  std::vector<double> times;
  times.reserve(repeats);
  for (int i = 0; i < repeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const int64_t count = run(result);
    const auto end = std::chrono::steady_clock::now();
    JOINEST_CHECK_EQ(count, result.count) << mode << " count drifted";
    times.push_back(std::chrono::duration<double>(end - start).count());
  }
  std::sort(times.begin(), times.end());
  result.seconds = times[times.size() / 2];  // Median.
  result.rows_per_sec =
      result.seconds > 0 ? total_rows / result.seconds : 0;
  return result;
}

}  // namespace
}  // namespace joinest

int main(int argc, char** argv) {
  using namespace joinest;

  bool smoke = false;
  std::string out_path = "BENCH_pt.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  const int64_t scale = smoke ? 50000 : 400000;
  const int repeats = smoke ? 3 : 5;
  std::fprintf(stderr, "building fixture (scale %lld)...\n",
               static_cast<long long>(scale));
  const Fixture f = MakeFixture(scale);
  const std::unique_ptr<PlanNode> plan = CanonicalSafePlan(f.spec);

  std::printf("== predicate transfer: %lld base rows%s ==\n",
              static_cast<long long>(f.total_rows), smoke ? " (smoke)" : "");

  std::vector<ModeResult> results;
  results.push_back(
      TimeMode("pt_off", repeats, f.total_rows, [&](ModeResult&) {
        auto run = ExecutePlan(f.catalog, f.spec, *plan);
        JOINEST_CHECK(run.ok()) << run.status();
        return run->count;
      }));
  results.push_back(
      TimeMode("pt_on", repeats, f.total_rows, [&](ModeResult& mode) {
        auto pt = RunPredicateTransfer(f.catalog, f.spec);
        JOINEST_CHECK(pt.ok()) << pt.status();
        mode.rows_pruned = pt->rows_pruned();
        auto run = ExecutePlan(f.catalog, f.spec, *plan, &pt->selections);
        JOINEST_CHECK(run.ok()) << run.status();
        return run->count;
      }));

  // The reduction may only drop rows that cannot join: identical counts or
  // the numbers are meaningless.
  JOINEST_CHECK_EQ(results[1].count, results[0].count)
      << "pt_on diverges from pt_off";

  const double off_rate = results[0].rows_per_sec;
  const double speedup =
      off_rate > 0 ? results[1].rows_per_sec / off_rate : 0;
  TablePrinter printer({"mode", "wall s", "rows/sec", "pruned", "vs pt_off"});
  char buf[64];
  for (const ModeResult& r : results) {
    std::vector<std::string> cells;
    cells.push_back(r.mode);
    std::snprintf(buf, sizeof buf, "%.4f", r.seconds);
    cells.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.0f", r.rows_per_sec);
    cells.push_back(buf);
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(r.rows_pruned));
    cells.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.2fx",
                  off_rate > 0 ? r.rows_per_sec / off_rate : 0);
    cells.push_back(buf);
    printer.AddRow(std::move(cells));
  }
  printer.Print(std::cout);

  // Same registry-scrape-then-serialise pattern as bench_executor: gauges
  // are the source of truth for the JSON.
  MetricsRegistry& registry = MetricsRegistry::Global();
  auto mode_gauge = [&registry](const char* name,
                                const std::string& mode) -> Gauge& {
    return registry.GetGauge(name, "bench_pt per-mode result",
                             {{"mode", mode}});
  };
  for (const ModeResult& r : results) {
    mode_gauge("bench_pt_seconds", r.mode).Set(r.seconds);
    mode_gauge("bench_pt_rows_per_sec", r.mode).Set(r.rows_per_sec);
  }
  Gauge& speedup_gauge = registry.GetGauge(
      "bench_pt_speedup", "pt_on rows/sec over pt_off rows/sec");
  speedup_gauge.Set(speedup);

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("pt");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("scale");
  json.Int(scale);
  json.Key("total_rows");
  json.Int(f.total_rows);
  json.Key("repeats");
  json.Int(repeats);
  json.Key("count");
  json.Int(results[0].count);
  json.Key("rows_pruned");
  json.Int(results[1].rows_pruned);
  json.Key("speedup");
  json.Number(speedup_gauge.Value());
  json.Key("modes");
  json.BeginArray();
  for (const ModeResult& r : results) {
    json.BeginObject();
    json.Key("mode");
    json.String(r.mode);
    json.Key("seconds");
    json.Number(mode_gauge("bench_pt_seconds", r.mode).Value());
    json.Key("rows_per_sec");
    json.Number(mode_gauge("bench_pt_rows_per_sec", r.mode).Value());
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (!WriteTextFile(out_path, json.str())) return 1;
  std::printf("wrote %s\n", out_path.c_str());

  // The whole point of the subsystem: in a full run the end-to-end win
  // (reduction cost included) must clear 1.5x. Smoke scales are too small
  // for a stable ratio, so they only report.
  if (!smoke && speedup < 1.5) {
    std::fprintf(stderr, "FAIL: pt_on speedup %.2fx < 1.5x\n", speedup);
    return 1;
  }
  return 0;
}
