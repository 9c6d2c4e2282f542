// Timing and same-run speed checks for the smoke benches (bench_executor,
// bench_service, bench_pt, bench_feedback).
//
// TimeModes runs each mode once untimed (the warm-up touches every page and
// fills allocators and caches), then `repeats` rounds that call every mode
// once in turn, and keeps each mode's median wall time. Interleaving puts
// the modes under the same host load, so a slow stretch of a shared host
// slows them all instead of one. Every call of a mode must return the same
// number, a count or the operations it served, so no two timings of a mode
// cover different work.
//
// CheckRatios is the only speed check: each reading is a ratio between two
// modes timed in the same run on the same host, never an absolute rate, so
// it means the same on any machine. Each bench picks modes whose ratio
// collapses when the thing it measures regresses, and sizes every window
// that feeds a ratio to last 10 ms or more on a 4-vCPU host, so one
// preempted thread cannot set it.

#ifndef JOINEST_BENCH_TIMING_H_
#define JOINEST_BENCH_TIMING_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/logging.h"

namespace joinest {

struct Mode {
  std::string name;
  std::function<int64_t()> run;
};

struct Timing {
  std::string mode;
  int64_t result = 0;  // What every call returned.
  double seconds = 0;  // Median wall time of the timed calls.
};

inline std::vector<Timing> TimeModes(const std::vector<Mode>& modes,
                                     int repeats = 5) {
  std::vector<Timing> timings;
  for (const Mode& mode : modes) {
    std::fprintf(stderr, "  [%s] warm-up...\n", mode.name.c_str());
    timings.push_back({mode.name, mode.run(), 0});
  }
  std::vector<std::vector<double>> seconds(modes.size());
  for (int round = 0; round < repeats; ++round) {
    for (size_t m = 0; m < modes.size(); ++m) {
      const auto start = std::chrono::steady_clock::now();
      const int64_t result = modes[m].run();
      seconds[m].push_back(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
      JOINEST_CHECK_EQ(result, timings[m].result)
          << modes[m].name << " drifted";
    }
  }
  for (size_t m = 0; m < modes.size(); ++m) {
    std::sort(seconds[m].begin(), seconds[m].end());
    timings[m].seconds = seconds[m][seconds[m].size() / 2];
  }
  return timings;
}

// `reading` is one mode's rate over another's, measured in the same run; it
// must be at least `bound`.
struct RatioCheck {
  const char* name;
  double reading;
  double bound;
};

// Prints each reading next to its bound. Returns the exit status of the
// run: 0 when every reading meets its bound, 1 otherwise.
inline int CheckRatios(std::initializer_list<RatioCheck> checks) {
  int status = 0;
  for (const RatioCheck& check : checks) {
    const bool ok = check.reading >= check.bound;
    std::printf("%s: %.2fx (bound >= %.2fx) %s\n", check.name, check.reading,
                check.bound, ok ? "ok" : "FAIL");
    if (!ok) status = 1;
  }
  return status;
}

}  // namespace joinest

#endif  // JOINEST_BENCH_TIMING_H_
