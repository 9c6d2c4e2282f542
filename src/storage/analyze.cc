#include "storage/analyze.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "stats/distinct.h"

namespace joinest {

namespace {

// Fills min/max and the configured histogram from materialised numeric
// values (the full column in exact mode, the sample in sampled mode).
void AttachNumericStats(ColumnStats& col, const std::vector<double>& values,
                        const AnalyzeOptions& options) {
  if (values.empty()) return;
  double min = values[0];
  double max = values[0];
  for (double v : values) {
    if (v < min) min = v;
    if (v > max) max = v;
  }
  col.min = min;
  col.max = max;
  switch (options.histogram_kind) {
    case AnalyzeOptions::HistogramKind::kNone:
      break;
    case AnalyzeOptions::HistogramKind::kEquiWidth:
      col.histogram = std::make_shared<Histogram>(
          Histogram::BuildEquiWidth(values, options.histogram_buckets));
      break;
    case AnalyzeOptions::HistogramKind::kEquiDepth:
      col.histogram = std::make_shared<Histogram>(
          Histogram::BuildEquiDepth(values, options.histogram_buckets));
      break;
    case AnalyzeOptions::HistogramKind::kEndBiased:
      col.histogram = std::make_shared<Histogram>(
          Histogram::BuildEndBiased(values, options.end_biased_singletons,
                                    options.histogram_buckets));
      break;
  }
}

// A cell's key under its column's own equality (-0.0 meets 0.0).
int64_t DistinctKey(KeyEncoding encoding, Cell cell) {
  int64_t key = 0;
  EncodeKey(encoding, cell, &key);
  return key;
}

double NumericCell(TypeKind type, Cell cell) {
  return type == TypeKind::kInt64 ? static_cast<double>(cell)
                                  : CellDouble(cell);
}

TableStats AnalyzeExact(const Table& table, const AnalyzeOptions& options) {
  TableStats stats;
  stats.source = StatsSource::kExact;
  stats.row_count = static_cast<double>(table.num_rows());
  stats.columns.resize(table.num_columns());
  for (int c = 0; c < table.num_columns(); ++c) {
    ColumnStats& col = stats.columns[c];
    const std::vector<Cell>& data = table.cells(c);
    const TypeKind type = table.schema().column(c).type;
    const KeyEncoding encoding = KeyEncodingFor(type, type);
    std::unordered_set<int64_t> distinct;
    distinct.reserve(data.size());
    for (Cell cell : data) distinct.insert(DistinctKey(encoding, cell));
    col.distinct_count = static_cast<double>(distinct.size());

    if (type == TypeKind::kString) continue;
    std::vector<double> values;
    values.reserve(data.size());
    for (Cell cell : data) values.push_back(NumericCell(type, cell));
    AttachNumericStats(col, values, options);
  }
  return stats;
}

TableStats AnalyzeSampled(const Table& table, const AnalyzeOptions& options) {
  // Bernoulli row sample (shared across columns so per-row correlations are
  // preserved, as a real ANALYZE would).
  std::vector<int64_t> sample_rows;
  Rng rng(options.sample_seed);
  sample_rows.reserve(
      static_cast<size_t>(static_cast<double>(table.num_rows()) *
                          options.sample_fraction) +
      1);
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    if (rng.NextBool(options.sample_fraction)) sample_rows.push_back(r);
  }

  TableStats stats;
  stats.source = StatsSource::kSampled;
  stats.row_count = static_cast<double>(table.num_rows());
  stats.columns.resize(table.num_columns());
  for (int c = 0; c < table.num_columns(); ++c) {
    ColumnStats& col = stats.columns[c];
    const std::vector<Cell>& data = table.cells(c);
    const TypeKind type = table.schema().column(c).type;
    const KeyEncoding encoding = KeyEncodingFor(type, type);

    std::unordered_map<int64_t, int64_t> counts;
    for (int64_t r : sample_rows) ++counts[DistinctKey(encoding, data[r])];
    double singletons = 0;
    double repeated = 0;
    for (const auto& [value, count] : counts) {
      (count == 1 ? singletons : repeated) += 1;
    }
    col.distinct_count =
        GeeDistinct(singletons, repeated, stats.row_count,
                    static_cast<double>(sample_rows.size()));

    if (type == TypeKind::kString) continue;
    std::vector<double> values;
    values.reserve(sample_rows.size());
    for (int64_t r : sample_rows) values.push_back(NumericCell(type, data[r]));
    AttachNumericStats(col, values, options);
  }
  return stats;
}

std::vector<bool> NumericColumns(const Table& table) {
  std::vector<bool> numeric(table.num_columns());
  for (int c = 0; c < table.num_columns(); ++c) {
    numeric[c] = table.schema().column(c).type != TypeKind::kString;
  }
  return numeric;
}

SketchHistogramSpec HistogramSpec(const AnalyzeOptions& options) {
  SketchHistogramSpec spec;
  spec.buckets = options.histogram_buckets;
  spec.singletons = options.end_biased_singletons;
  switch (options.histogram_kind) {
    case AnalyzeOptions::HistogramKind::kNone:
      break;
    case AnalyzeOptions::HistogramKind::kEquiWidth:
      spec.kind = Histogram::Kind::kEquiWidth;
      break;
    case AnalyzeOptions::HistogramKind::kEquiDepth:
      spec.kind = Histogram::Kind::kEquiDepth;
      break;
    case AnalyzeOptions::HistogramKind::kEndBiased:
      spec.kind = Histogram::Kind::kEndBiased;
      break;
  }
  return spec;
}

}  // namespace

SketchProfile BuildSketchProfile(const Table& table,
                                 const AnalyzeOptions& options) {
  JOINEST_CHECK_GE(options.num_partitions, 1);
  const std::vector<bool> numeric = NumericColumns(table);
  const int64_t rows = table.num_rows();
  const int partitions = static_cast<int>(
      std::min<int64_t>(options.num_partitions, std::max<int64_t>(rows, 1)));

  // Per-partition sketch builds over contiguous row ranges. Each partition
  // gets its own reservoir seed so samples are independent; HLL/CMS/min/max
  // merge bit-exactly regardless of the split.
  std::vector<SketchProfile> partials;
  partials.reserve(partitions);
  for (int p = 0; p < partitions; ++p) {
    SketchOptions part_options = options.sketch;
    part_options.seed =
        MixHash64(options.sketch.seed + 0x51ed270b9c6b3617ull * (p + 1));
    partials.emplace_back(numeric, part_options);
  }

  auto build_partition = [&](int p) {
    const int64_t begin = rows * p / partitions;
    const int64_t end = rows * (p + 1) / partitions;
    for (int c = 0; c < table.num_columns(); ++c) {
      partials[p].AddColumnRange(c, table.schema().column(c).type,
                                 table.cells(c), begin, end);
    }
  };

  if (partitions == 1) {
    build_partition(0);
  } else {
    // Partitions 1..n-1 go to the shared pool; the caller builds partition
    // 0 and then helps drain the rest. Partials merge in fixed order below,
    // so the split is invisible in the result.
    TaskGroup group(SharedThreadPool());
    for (int p = 1; p < partitions; ++p) {
      group.Run([&build_partition, p] { build_partition(p); });
    }
    build_partition(0);
  }

  SketchProfile merged = std::move(partials[0]);
  for (int p = 1; p < partitions; ++p) merged.Merge(partials[p]);
  return merged;
}

TableStats AnalyzeTable(const Table& table, const AnalyzeOptions& options) {
  JOINEST_CHECK_GT(options.sample_fraction, 0.0);
  JOINEST_CHECK_LE(options.sample_fraction, 1.0);
  AnalyzeOptions::StatsMode mode = options.stats_mode;
  if (mode == AnalyzeOptions::StatsMode::kExact &&
      options.sample_fraction < 1.0) {
    mode = AnalyzeOptions::StatsMode::kSampled;
  }
  switch (mode) {
    case AnalyzeOptions::StatsMode::kExact:
      return AnalyzeExact(table, options);
    case AnalyzeOptions::StatsMode::kSampled:
      if (options.sample_fraction >= 1.0) return AnalyzeExact(table, options);
      return AnalyzeSampled(table, options);
    case AnalyzeOptions::StatsMode::kSketch: {
      const SketchProfile profile = BuildSketchProfile(table, options);
      return profile.ToTableStats(HistogramSpec(options));
    }
  }
  return AnalyzeExact(table, options);
}

}  // namespace joinest
