// Statistics collection (ANALYZE).
//
// Computes the catalog statistics the estimator consumes: table cardinality
// ||R||, per-column distinct counts d_x, numeric min/max, and (optionally) a
// histogram per numeric column. Three collection modes trade accuracy for
// memory and scan cost:
//
//   kExact   — full scan with exact hash sets; memory proportional to the
//              number of distinct values per column.
//   kSampled — Bernoulli row sample; distinct counts extrapolated with the
//              GEE estimator, min/max/histograms from the sample.
//   kSketch  — single streaming pass through the src/sketch/ subsystem
//              (HLL + CMS/heavy-hitters + reservoir); bounded memory
//              regardless of table size, and mergeable across row-range
//              partitions, so the scan parallelises (`num_partitions`).

#ifndef JOINEST_STORAGE_ANALYZE_H_
#define JOINEST_STORAGE_ANALYZE_H_

#include "sketch/sketch_profile.h"
#include "stats/column_stats.h"
#include "storage/table.h"

namespace joinest {

struct AnalyzeOptions {
  enum class StatsMode { kExact, kSampled, kSketch };
  // kExact with sample_fraction < 1 is promoted to kSampled for backward
  // compatibility with callers that predate the mode knob.
  StatsMode stats_mode = StatsMode::kExact;

  // Histogram to attach to numeric columns; kNone keeps only d/min/max so
  // local selectivities fall back to the uniformity assumption.
  enum class HistogramKind { kNone, kEquiWidth, kEquiDepth, kEndBiased };
  HistogramKind histogram_kind = HistogramKind::kNone;
  int histogram_buckets = 32;
  // kEndBiased only: number of heavy-hitter values kept exactly.
  int end_biased_singletons = 16;

  // kSampled: 1.0 scans everything (exact statistics); below 1.0 a
  // Bernoulli row sample is taken, distinct counts are extrapolated with
  // the GEE estimator (Charikar et al.: d̂ = √(n/r)·f₁ + Σ_{j≥2} f_j, where
  // f_j is the number of values seen exactly j times in the sample), and
  // min/max/histograms come from the sample. The table cardinality stays
  // exact (systems know it from storage metadata). This models the
  // imperfect catalog statistics whose error propagation the paper cites
  // ([4]).
  double sample_fraction = 1.0;
  uint64_t sample_seed = 1;

  // kSketch: sketch sizing, and the number of row-range partitions to
  // stream through ParallelFor (common/thread_pool.h) before merging
  // profiles; at most NumPoolThreads() of them run at once.
  SketchOptions sketch;
  int num_partitions = 1;
};

TableStats AnalyzeTable(const Table& table,
                        const AnalyzeOptions& options = AnalyzeOptions());

// The kSketch scan core: builds one mergeable SketchProfile per row-range
// partition (concurrently when num_partitions > 1) and folds them in
// partition order, so the result does not depend on which thread built
// which partition. Exposed so benchmarks and shard coordinators can reuse
// partial profiles.
SketchProfile BuildSketchProfile(const Table& table,
                                 const AnalyzeOptions& options);

}  // namespace joinest

#endif  // JOINEST_STORAGE_ANALYZE_H_
