// Measurement helpers for the perfbench binary: clocks, order statistics,
// process memory, registry read-back and the result line.

#ifndef JOINEST_PERFBENCH_HARNESS_H_
#define JOINEST_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Fewest samples a reported percentile must have strictly beyond it.
inline constexpr int64_t kMinTailSamples = 10;

// Nearest-rank q-quantile (0 < q < 1) of `values`, or nullopt when fewer
// than kMinTailSamples samples lie beyond that rank. q = 0.5 always has
// enough once there are 20 samples.
std::optional<double> Percentile(std::vector<double> values, double q);

// Smallest sample count for which Percentile(values, q) reports.
int64_t MinSamplesFor(double q);

// Median of `values` (the lower middle for even counts); 0 when empty.
double Median(std::vector<double> values);

double Mean(const std::vector<double>& values);

// Request latencies in log-spaced buckets 0.2% wide, from 10 ns to about
// 100 s, so a run's memory does not grow with its request count (peak RSS
// is a gated metric). Quantiles follow Percentile's nearest-rank and
// ten-beyond rules and interpolate inside the bucket.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(double seconds);
  void Merge(const LatencyHistogram& other);
  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0; }
  std::optional<double> Percentile(double q) const;

 private:
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  double sum_ = 0;
};

// Peak resident set size of this process (ru_maxrss), in MB.
double PeakRssMb();

// User plus system CPU seconds this process has used so far (getrusage).
// Against wall time it shows how much of a phase the host let it run.
double ProcessCpuSeconds();

// Milliseconds a fixed unit of integer and first-level-cache work (about
// 0.45 ms on a quiet 2.1 GHz Xeon) takes on this host now. Sampled through
// a run, it shows how fast the host ran. It calls no code of the program,
// so a change to the program cannot move it.
double CalibrationMs();

// Sum of every series of counter family `family` in the registry's
// Prometheus exposition `text` whose label set contains `label` (for
// example `source="inline"`; empty matches all). Reading the exposition
// never registers a series.
double ScrapeSum(const std::string& text, const std::string& family,
                 const std::string& label = "");

// Registry read-back for the counter families the per-layer metrics use.
struct RegistryCounts {
  double analyses = 0;     // estimator_queries_total
  double build_rows = 0;   // executor_hashjoin_build_rows_total
  double morsel_rows = 0;  // executor_morsel_rows_total
  double recorded = 0;     // recorder_records_total
  double pool_inline = 0;  // pool_tasks_total{source="inline"}
  double pool_worker = 0;  // pool_tasks_total{source="worker"}
  double steals = 0;       // pool_steals_total

  static RegistryCounts Scrape();
  RegistryCounts operator-(const RegistryCounts& base) const;
};

// One named metric of the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const MetricMap& metrics);

}  // namespace perfbench

#endif  // JOINEST_PERFBENCH_HARNESS_H_
