#include "sketch/sketch_profile.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/logging.h"
#include "stats/distinct.h"

namespace joinest {

namespace {

// Scales a sample-built histogram up to the full column: rows by the
// sampling ratio, per-bucket distinct so the total tracks `target_distinct`
// (the sketch's domain-level estimate) instead of the sample's, capped by
// the scaled row count.
std::vector<HistogramBucket> ScaleBuckets(const Histogram& sample_histogram,
                                          double row_scale,
                                          double target_distinct) {
  double sample_distinct = 0;
  for (const HistogramBucket& b : sample_histogram.buckets()) {
    sample_distinct += b.distinct;
  }
  const double distinct_scale =
      sample_distinct > 0 ? std::max(1.0, target_distinct / sample_distinct)
                          : 1.0;
  std::vector<HistogramBucket> scaled;
  for (const HistogramBucket& b : sample_histogram.buckets()) {
    HistogramBucket out = b;
    out.rows = b.rows * row_scale;
    out.distinct = std::min(b.distinct * distinct_scale, out.rows);
    out.distinct = std::max(out.distinct, 1.0);
    scaled.push_back(out);
  }
  return scaled;
}

}  // namespace

ColumnSketch::ColumnSketch(bool numeric, const SketchOptions& options,
                           uint64_t seed)
    : numeric_(numeric),
      hll_(options.hll_precision),
      cms_(options.cms_depth, options.cms_width),
      heavy_hitters_(options.top_k),
      reservoir_(options.reservoir_capacity, seed) {}

void ColumnSketch::Add(const Value& v) {
  const uint64_t hash = SketchHash(v);
  hll_.Add(hash);
  cms_.Add(hash);
  heavy_hitters_.Offer(v, cms_.EstimateCount(hash));
  reservoir_.Add(v);
  if (numeric_) {
    const double x = v.ToNumeric();
    if (!min_.has_value() || x < *min_) min_ = x;
    if (!max_.has_value() || x > *max_) max_ = x;
  }
}

void ColumnSketch::Merge(const ColumnSketch& other) {
  JOINEST_CHECK_EQ(numeric_, other.numeric_);
  hll_.Merge(other.hll_);
  cms_.Merge(other.cms_);
  heavy_hitters_.Merge(other.heavy_hitters_, cms_);
  reservoir_.Merge(other.reservoir_);
  if (other.min_.has_value() && (!min_.has_value() || *other.min_ < *min_)) {
    min_ = other.min_;
  }
  if (other.max_.has_value() && (!max_.has_value() || *other.max_ > *max_)) {
    max_ = other.max_;
  }
}

double ColumnSketch::GeeEstimate(double total_rows) const {
  std::unordered_map<Value, int64_t, ValueHash> counts;
  for (const Value& v : reservoir_.sample()) ++counts[v];
  double singletons = 0;
  double repeated = 0;
  for (const auto& [value, count] : counts) {
    (count == 1 ? singletons : repeated) += 1;
  }
  return GeeDistinct(singletons, repeated, total_rows,
                     static_cast<double>(reservoir_.sample().size()));
}

ColumnStats ColumnSketch::ToColumnStats(
    double total_rows, const SketchHistogramSpec& spec) const {
  ColumnStats stats;
  if (total_rows <= 0) return stats;
  stats.distinct_count =
      std::clamp(std::round(hll_.Estimate()), 1.0, total_rows);
  stats.distinct_relative_error = hll_.RelativeStandardError();
  // d <= ||R||: the clamp keeps the HLL estimate inside the urn-model
  // domain every downstream formula assumes.
  JOINEST_CHECK_CARDINALITY(stats.distinct_count);
  JOINEST_DCHECK_LE(stats.distinct_count, total_rows)
      << "sketch distinct count exceeds the row count";
  if (!numeric_) return stats;
  stats.min = min_;
  stats.max = max_;
  if (!spec.kind.has_value()) return stats;

  const std::vector<double> sample = reservoir_.NumericSample();
  if (sample.empty()) return stats;

  if (*spec.kind != Histogram::Kind::kEndBiased) {
    const Histogram from_sample =
        *spec.kind == Histogram::Kind::kEquiWidth
            ? Histogram::BuildEquiWidth(sample, spec.buckets)
            : Histogram::BuildEquiDepth(sample, spec.buckets);
    const double row_scale = total_rows / static_cast<double>(sample.size());
    stats.histogram = std::make_shared<Histogram>(Histogram::FromBuckets(
        *spec.kind,
        ScaleBuckets(from_sample, row_scale, stats.distinct_count)));
    return stats;
  }

  // End-biased: heavy hitters become exact-count singleton buckets, the
  // reservoir tail is equi-depth bucketed per segment between them (so all
  // buckets stay disjoint) and scaled to the remaining row mass.
  std::vector<std::pair<double, double>> singletons;  // (value, count)
  double singleton_rows = 0;
  for (const auto& [value, count] : heavy_hitters_.Sorted()) {
    if (static_cast<int>(singletons.size()) >= spec.singletons) break;
    const double c =
        std::min(static_cast<double>(count), total_rows - singleton_rows);
    if (c <= 0) break;
    singletons.emplace_back(value.ToNumeric(), c);
    singleton_rows += c;
  }
  std::sort(singletons.begin(), singletons.end());

  std::vector<HistogramBucket> buckets;
  for (const auto& [value, count] : singletons) {
    HistogramBucket bucket;
    bucket.lo = bucket.hi = value;
    bucket.rows = count;
    bucket.distinct = 1;
    buckets.push_back(bucket);
  }

  std::vector<double> tail;
  for (double v : sample) {
    const bool is_singleton = std::any_of(
        singletons.begin(), singletons.end(),
        [v](const std::pair<double, double>& s) { return s.first == v; });
    if (!is_singleton) tail.push_back(v);
  }
  const double tail_rows = std::max(0.0, total_rows - singleton_rows);
  if (!tail.empty() && tail_rows > 0) {
    std::sort(tail.begin(), tail.end());
    const double row_scale = tail_rows / static_cast<double>(tail.size());
    const double tail_distinct = std::max(
        1.0, stats.distinct_count - static_cast<double>(singletons.size()));
    // Segment the tail at singleton values so synthesized range buckets
    // never span a singleton bucket.
    size_t begin = 0;
    std::vector<std::pair<size_t, size_t>> segments;
    for (const auto& [value, count] : singletons) {
      const size_t end =
          std::lower_bound(tail.begin() + begin, tail.end(), value) -
          tail.begin();
      if (end > begin) segments.emplace_back(begin, end);
      begin = end;
    }
    if (begin < tail.size()) segments.emplace_back(begin, tail.size());
    for (const auto& [seg_begin, seg_end] : segments) {
      const double fraction = static_cast<double>(seg_end - seg_begin) /
                              static_cast<double>(tail.size());
      const int budget =
          std::max(1, static_cast<int>(std::lround(fraction * spec.buckets)));
      const std::vector<double> segment(tail.begin() + seg_begin,
                                        tail.begin() + seg_end);
      const Histogram inner = Histogram::BuildEquiDepth(segment, budget);
      for (HistogramBucket b :
           ScaleBuckets(inner, row_scale, tail_distinct * fraction)) {
        buckets.push_back(b);
      }
    }
  }
  std::sort(buckets.begin(), buckets.end(),
            [](const HistogramBucket& a, const HistogramBucket& b) {
              return a.lo < b.lo;
            });
  stats.histogram = std::make_shared<Histogram>(
      Histogram::FromBuckets(Histogram::Kind::kEndBiased, std::move(buckets)));
  return stats;
}

SketchProfile::SketchProfile(const std::vector<bool>& numeric_columns,
                             const SketchOptions& options) {
  columns_.reserve(numeric_columns.size());
  for (size_t c = 0; c < numeric_columns.size(); ++c) {
    // Distinct reservoir stream per column (and per caller-varied seed for
    // partitions) so column samples are independent.
    columns_.emplace_back(numeric_columns[c], options,
                          MixHash64(options.seed * 0x9e3779b97f4a7c15ull + c));
  }
}

void SketchProfile::AddColumnRange(int column, TypeKind type,
                                   const std::vector<Cell>& data,
                                   int64_t begin, int64_t end) {
  JOINEST_CHECK_GE(column, 0);
  JOINEST_CHECK_LT(static_cast<size_t>(column), columns_.size());
  JOINEST_CHECK_GE(begin, 0);
  JOINEST_CHECK_LE(static_cast<size_t>(end), data.size());
  ColumnSketch& sketch = columns_[column];
  for (int64_t r = begin; r < end; ++r) sketch.Add(CellToValue(type, data[r]));
  if (column == 0) rows_ += end - begin;
}

void SketchProfile::Merge(const SketchProfile& other) {
  JOINEST_CHECK_EQ(columns_.size(), other.columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].Merge(other.columns_[c]);
  }
  rows_ += other.rows_;
}

TableStats SketchProfile::ToTableStats(const SketchHistogramSpec& spec) const {
  TableStats stats;
  stats.source = StatsSource::kSketch;
  stats.row_count = static_cast<double>(rows_);
  stats.columns.reserve(columns_.size());
  for (const ColumnSketch& sketch : columns_) {
    stats.columns.push_back(
        sketch.ToColumnStats(stats.row_count, spec));
  }
  return stats;
}

const ColumnSketch& SketchProfile::column(int c) const {
  JOINEST_CHECK_GE(c, 0);
  JOINEST_CHECK_LT(static_cast<size_t>(c), columns_.size());
  return columns_[c];
}

size_t SketchProfile::MemoryBytes() const {
  size_t bytes = 0;
  for (const ColumnSketch& sketch : columns_) {
    bytes += sketch.hll().registers().size();
    bytes += static_cast<size_t>(sketch.cms().depth()) *
             sketch.cms().width() * sizeof(uint64_t);
    bytes += static_cast<size_t>(sketch.reservoir().capacity()) *
             sizeof(Value);
    bytes += sketch.heavy_hitters().size() * (sizeof(Value) + sizeof(uint64_t));
  }
  return bytes;
}

std::string SketchProfile::ToString() const {
  std::ostringstream oss;
  oss << "profile(rows=" << rows_ << ", cols=" << columns_.size() << ")";
  for (size_t c = 0; c < columns_.size(); ++c) {
    oss << " col" << c << "{" << columns_[c].hll().ToString() << " "
        << columns_[c].reservoir().ToString() << "}";
  }
  return oss.str();
}

}  // namespace joinest
