// Mergeable per-table statistics profile built from streaming sketches.
//
// One ColumnSketch per column bundles the four streaming summaries ANALYZE
// needs, all single-pass and bounded-memory:
//
//   * HyperLogLog        → distinct count d_x (±1.04/√(2^p));
//   * CountMinSketch     → per-value frequency upper bounds;
//   * HeavyHitterTracker → the top-k values by CMS count, which become the
//                          end-biased histogram's exact singleton buckets;
//   * ReservoirSample    → a uniform value sample for min/max refinement,
//                          histogram tails, and the GEE cross-estimate;
//   * exact running min/max and row count (O(1) state, so always exact).
//
// SketchProfile aggregates the columns and is mergeable across disjoint
// row-range partitions: Merge(build(rows A), build(rows B)) is equivalent
// to build(rows A ∪ B) — bit-exact for HLL/CMS/min/max/counts,
// distributionally for the reservoir. This is what makes ANALYZE
// shard-parallel: each partition streams independently (on its own thread
// or its own shard), and the coordinator folds the profiles together.

#ifndef JOINEST_SKETCH_SKETCH_PROFILE_H_
#define JOINEST_SKETCH_SKETCH_PROFILE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sketch/count_min.h"
#include "sketch/hyperloglog.h"
#include "sketch/reservoir.h"
#include "stats/column_stats.h"
#include "stats/histogram.h"
#include "types/cell.h"
#include "types/value.h"

namespace joinest {

struct SketchOptions {
  // HLL register-array precision; memory 2^p bytes, error 1.04/√(2^p)
  // (p=12 → 4 KiB, ±1.6%).
  int hll_precision = 12;
  int cms_depth = 4;
  int cms_width = 2048;
  // Heavy hitters tracked per column (end-biased singleton candidates).
  int top_k = 16;
  int reservoir_capacity = 1024;
  // Base seed for reservoir randomness; partition builds must derive
  // distinct seeds (see AnalyzeTable) so partitions sample independently.
  uint64_t seed = 1;
};

// How to synthesize a histogram from a column's sketches. Mirrors
// AnalyzeOptions::HistogramKind without depending on storage/.
struct SketchHistogramSpec {
  std::optional<Histogram::Kind> kind;  // nullopt → no histogram.
  int buckets = 32;
  int singletons = 16;  // kEndBiased only.
};

class ColumnSketch {
 public:
  ColumnSketch(bool numeric, const SketchOptions& options, uint64_t seed);

  void Add(const Value& v);
  void Merge(const ColumnSketch& other);

  // Synthesizes catalog statistics for a column of `total_rows` rows:
  // distinct from HLL (clamped to [1, total_rows]), exact min/max, and a
  // histogram per `spec` — end-biased singletons from the heavy-hitter
  // tracker, tails equi-depth over the reservoir scaled to full size.
  ColumnStats ToColumnStats(double total_rows,
                            const SketchHistogramSpec& spec) const;

  // GEE distinct estimate treating the reservoir as the row sample; the
  // sampling-theory cross-check to the HLL estimate.
  double GeeEstimate(double total_rows) const;

  bool numeric() const { return numeric_; }
  const HyperLogLog& hll() const { return hll_; }
  const CountMinSketch& cms() const { return cms_; }
  const HeavyHitterTracker& heavy_hitters() const { return heavy_hitters_; }
  const ReservoirSample& reservoir() const { return reservoir_; }
  std::optional<double> min() const { return min_; }
  std::optional<double> max() const { return max_; }

 private:
  bool numeric_;
  HyperLogLog hll_;
  CountMinSketch cms_;
  HeavyHitterTracker heavy_hitters_;
  ReservoirSample reservoir_;
  std::optional<double> min_;
  std::optional<double> max_;
};

class SketchProfile {
 public:
  // `numeric_columns[c]` flags whether column c supports min/max/histograms.
  SketchProfile(const std::vector<bool>& numeric_columns,
                const SketchOptions& options);

  // Streams cells `data[begin, end)` of type `type` into column c's
  // sketches, each as its Value. Row counting is driven by column 0 (all
  // columns of a table have equal length).
  void AddColumnRange(int column, TypeKind type, const std::vector<Cell>& data,
                      int64_t begin, int64_t end);

  void Merge(const SketchProfile& other);

  TableStats ToTableStats(const SketchHistogramSpec& spec) const;

  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t rows() const { return rows_; }
  const ColumnSketch& column(int c) const;

  // Approximate heap footprint of the sketch state (all columns), for
  // memory accounting in benchmarks.
  size_t MemoryBytes() const;

  std::string ToString() const;

 private:
  std::vector<ColumnSketch> columns_;
  int64_t rows_ = 0;
};

}  // namespace joinest

#endif  // JOINEST_SKETCH_SKETCH_PROFILE_H_
