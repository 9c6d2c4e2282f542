#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/json_writer.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

// 0-based nearest rank of the q-quantile among n sorted samples.
int64_t NearestRank(int64_t n, double q) {
  const auto rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(n))) - 1;
  return std::clamp<int64_t>(rank, 0, n - 1);
}

// xoshiro256++, the generator of common/random.h, kept here so that the
// speed reading does not move when the program's code does. Out of line,
// so every step also stores and reloads the state.
struct SpeedRng {
  uint64_t state[4] = {0x9E3779B97F4A7C15ull, 0xBF58476D1CE4E5B9ull,
                       0x94D049BB133111EBull, 0x2545F4914F6CDD1Dull};

  [[gnu::noinline]] uint64_t Next() {
    auto rotl = [](uint64_t x, int k) { return (x << k) | (x >> (64 - k)); };
    const uint64_t result = rotl(state[0] + state[3], 23) + state[0];
    const uint64_t t = state[1] << 17;
    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);
    return result;
  }
};

}  // namespace

std::optional<double> Percentile(std::vector<double> values, double q) {
  const auto n = static_cast<int64_t>(values.size());
  if (n == 0) return std::nullopt;
  const int64_t rank = NearestRank(n, q);
  if (n - 1 - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[static_cast<size_t>(rank)];
}

int64_t MinSamplesFor(double q) {
  int64_t n = 1;
  while (n - 1 - NearestRank(n, q) < kMinTailSamples) ++n;
  return n;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = (values.size() - 1) / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  return values[mid];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

namespace {
constexpr double kLowest = 1e-8;
constexpr double kRatio = 1.002;
constexpr size_t kBuckets = 11600;  // kLowest * kRatio^kBuckets ~ 115 s.
}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

void LatencyHistogram::Add(double seconds) {
  const double position = std::log(std::max(seconds, kLowest) / kLowest) /
                          std::log(kRatio);
  const auto bucket = std::min(static_cast<size_t>(position), kBuckets - 1);
  ++buckets_[bucket];
  ++count_;
  sum_ += seconds;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  sum_ += other.sum_;
}

std::optional<double> LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) return std::nullopt;
  const int64_t rank = NearestRank(count_, q);
  if (count_ - 1 - rank < kMinTailSamples) return std::nullopt;
  int64_t below = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (below + buckets_[b] > rank) {
      // The rank's share of the way through its bucket, on a log scale.
      const double within = (static_cast<double>(rank - below) + 0.5) /
                            static_cast<double>(buckets_[b]);
      return kLowest * std::pow(kRatio, static_cast<double>(b) + within);
    }
    below += buckets_[b];
  }
  return std::nullopt;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double CalibrationMs() {
  // 16 KiB: stays in the first-level cache, whose sets do not depend on
  // where the buffer's pages lie in physical memory. (A 256 KiB buffer
  // read one of two speeds 10% apart from process to process.)
  constexpr size_t kWords = size_t{1} << 11;
  constexpr int kSteps = 1 << 18;
  std::vector<uint64_t> words(kWords, 0);
  SpeedRng rng;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kSteps; ++i) {
    const uint64_t x = rng.Next();
    words[x & (kWords - 1)] += x;
  }
  // The stores may be read: the compiler keeps the loop.
  asm volatile("" : : "r"(words.data()) : "memory");
  return SecondsSince(start) * 1e3;
}

double ScrapeSum(const std::string& text, const std::string& family,
                 const std::string& label) {
  double sum = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, family.size(), family) != 0) continue;
    const char next = line.size() > family.size() ? line[family.size()] : 0;
    if (next != '{' && next != ' ') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    if (!label.empty() && line.substr(0, space).find(label) ==
                              std::string::npos) {
      continue;
    }
    sum += std::stod(line.substr(space + 1));
  }
  return sum;
}

RegistryCounts RegistryCounts::Scrape() {
  const std::string text = joinest::MetricsRegistry::Global().PrometheusText();
  RegistryCounts c;
  c.analyses = ScrapeSum(text, "estimator_queries_total");
  c.build_rows = ScrapeSum(text, "executor_hashjoin_build_rows_total");
  c.morsel_rows = ScrapeSum(text, "executor_morsel_rows_total");
  c.recorded = ScrapeSum(text, "recorder_records_total");
  c.pool_inline = ScrapeSum(text, "pool_tasks_total", "source=\"inline\"");
  c.pool_worker = ScrapeSum(text, "pool_tasks_total", "source=\"worker\"");
  c.steals = ScrapeSum(text, "pool_steals_total");
  return c;
}

RegistryCounts RegistryCounts::operator-(const RegistryCounts& base) const {
  RegistryCounts d;
  d.analyses = analyses - base.analyses;
  d.build_rows = build_rows - base.build_rows;
  d.morsel_rows = morsel_rows - base.morsel_rows;
  d.recorded = recorded - base.recorded;
  d.pool_inline = pool_inline - base.pool_inline;
  d.pool_worker = pool_worker - base.pool_worker;
  d.steals = steals - base.steals;
  return d;
}

std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const MetricMap& metrics) {
  joinest::JsonWriter json;
  json.BeginObject();
  json.Key("correct");
  json.Bool(correct);
  json.Key("attempted");
  json.Int(attempted);
  json.Key("failed");
  json.Int(failed);
  json.Key("metrics");
  json.BeginObject();
  for (const auto& [name, metric] : metrics) {
    json.Key(name);
    json.BeginObject();
    json.Key("value");
    json.Number(metric.value);
    json.Key("unit");
    json.String(metric.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

}  // namespace perfbench
