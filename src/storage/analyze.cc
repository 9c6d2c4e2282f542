#include "storage/analyze.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
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

// Distinct keys counted in one flat open-addressing array, keys stored
// inline (the CountMap idiom, executor/hash_table.h) rather than a node per
// key. The array is sized once, at most half full after `max_keys`
// inserts, and Clear() readies it for the next column. Every int64 is a
// possible key, so kEmpty marks a free slot and a flag records whether
// kEmpty itself occurred.
class DistinctKeys {
 public:
  explicit DistinctKeys(size_t max_keys) {
    size_t capacity = 1;
    while (capacity < 2 * max_keys) capacity *= 2;
    slots_.assign(capacity, kEmpty);
  }

  void Clear() {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    count_ = 0;
    saw_empty_key_ = false;
  }

  void Insert(int64_t key) {
    if (key == kEmpty) {
      saw_empty_key_ = true;
      return;
    }
    const size_t mask = slots_.size() - 1;
    for (size_t slot = HashInt64(key) & mask;; slot = (slot + 1) & mask) {
      if (slots_[slot] == key) return;
      if (slots_[slot] == kEmpty) {
        slots_[slot] = key;
        ++count_;
        return;
      }
    }
  }

  int64_t size() const { return count_ + (saw_empty_key_ ? 1 : 0); }

 private:
  static constexpr int64_t kEmpty = std::numeric_limits<int64_t>::min();
  std::vector<int64_t> slots_;
  int64_t count_ = 0;
  bool saw_empty_key_ = false;
};

TableStats AnalyzeExact(const Table& table, const AnalyzeOptions& options) {
  TableStats stats;
  stats.source = StatsSource::kExact;
  stats.row_count = static_cast<double>(table.num_rows());
  stats.columns.resize(table.num_columns());
  const bool histogram =
      options.histogram_kind != AnalyzeOptions::HistogramKind::kNone;
  DistinctKeys distinct(static_cast<size_t>(table.num_rows()));
  for (int c = 0; c < table.num_columns(); ++c) {
    ColumnStats& col = stats.columns[c];
    const std::vector<Cell>& data = table.cells(c);
    const TypeKind type = table.schema().column(c).type;
    const KeyEncoding encoding = KeyEncodingFor(type, type);
    // Without a histogram, min/max come from the same pass, compared as
    // AttachNumericStats compares them.
    const bool min_max = type != TypeKind::kString && !histogram;
    double min = 0;
    double max = 0;
    if (c > 0) distinct.Clear();
    for (size_t r = 0; r < data.size(); ++r) {
      distinct.Insert(DistinctKey(encoding, data[r]));
      if (!min_max) continue;
      const double v = NumericCell(type, data[r]);
      if (r == 0) min = max = v;
      if (v < min) min = v;
      if (v > max) max = v;
    }
    col.distinct_count = static_cast<double>(distinct.size());
    if (min_max && !data.empty()) {
      col.min = min;
      col.max = max;
    }

    if (type == TypeKind::kString || !histogram) continue;
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

  // Partials merge in fixed order below, so which thread built which
  // partition is invisible in the result.
  ParallelFor(partitions, build_partition);

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
