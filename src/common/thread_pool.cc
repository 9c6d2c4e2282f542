#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <system_error>
#include <thread>
#include <vector>

namespace joinest {

int NumPoolThreads() {
  if (const char* env = std::getenv("JOINEST_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  // Thread start and join order every access around the counter, so it
  // needs no ordering of its own.
  std::atomic<int> next{0};
  auto drain = [&next, n, &fn] {
    for (int i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  const int helpers = std::min(n, NumPoolThreads()) - 1;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(helpers));
  for (int t = 0; t < helpers; ++t) {
    try {
      threads.emplace_back(drain);
    } catch (const std::system_error&) {
      break;  // The running threads claim this one's indices.
    }
  }
  drain();
  for (std::thread& thread : threads) thread.join();
}

}  // namespace joinest
