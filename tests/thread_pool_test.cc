// Tests for ParallelFor (common/thread_pool.h) and the annotated mutex
// wrappers (common/thread_annotations.h). Runs under tsan
// (tools/run_sanitizers.sh): every assertion here is also a data-race probe.

#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_annotations.h"

namespace joinest {
namespace {

// Sets JOINEST_THREADS for one scope, then restores what was there.
class ScopedThreadBudget {
 public:
  explicit ScopedThreadBudget(int threads) {
    if (const char* old = std::getenv("JOINEST_THREADS")) saved_ = old;
    setenv("JOINEST_THREADS", std::to_string(threads).c_str(), 1);
  }
  ~ScopedThreadBudget() {
    if (saved_) {
      setenv("JOINEST_THREADS", saved_->c_str(), 1);
    } else {
      unsetenv("JOINEST_THREADS");
    }
  }

  ScopedThreadBudget(const ScopedThreadBudget&) = delete;
  ScopedThreadBudget& operator=(const ScopedThreadBudget&) = delete;

 private:
  std::optional<std::string> saved_;
};

// Each index writes only its own plain slot, and the caller reads every
// slot after the call: an index run twice reads 2, one never run reads 0,
// and under tsan a missing join shows as a race.
void ExpectEveryIndexOnce(int n) {
  std::vector<int> runs(static_cast<size_t>(n), 0);
  ParallelFor(n, [&runs](int i) { ++runs[static_cast<size_t>(i)]; });
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(runs[static_cast<size_t>(i)], 1) << "index " << i << " of " << n;
  }
}

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 4}) {
    const ScopedThreadBudget budget(threads);
    ASSERT_EQ(NumPoolThreads(), threads);
    for (const int n : {0, 1, 2, threads + 3, 1000}) ExpectEveryIndexOnce(n);
  }
}

TEST(ParallelForTest, BudgetOfOneRunsInlineInOrder) {
  const ScopedThreadBudget budget(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  std::vector<std::thread::id> ran_on;
  ParallelFor(64, [&](int i) {
    order.push_back(i);
    ran_on.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
    EXPECT_EQ(ran_on[static_cast<size_t>(i)], caller);
  }
}

// With a budget above one, indices spread over more than one thread, and
// over no more threads than the budget.
TEST(ParallelForTest, SpreadsOverThreadsWithinTheBudget) {
  constexpr int kThreads = 4;
  const ScopedThreadBudget budget(kThreads);
  struct ThreadsSeen {
    Mutex mu;
    std::set<std::thread::id> ids JOINEST_GUARDED_BY(mu);

    void Add(std::thread::id id) {
      MutexLock lock(mu);
      ids.insert(id);
    }
    size_t Count() {
      MutexLock lock(mu);
      return ids.size();
    }
  };
  ThreadsSeen seen;
  // Each index waits until a second thread has one, so the first thread to
  // start cannot run every index alone. The deadline turns a ParallelFor
  // that never starts a thread into a failure, not a hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  ParallelFor(64, [&seen, deadline](int) {
    seen.Add(std::this_thread::get_id());
    while (seen.Count() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  EXPECT_GE(seen.Count(), 2u);
  EXPECT_LE(seen.Count(), static_cast<size_t>(kThreads));
}

// Exercises the annotated Mutex/MutexLock/CondVar wrappers
// (common/thread_annotations.h) directly, producer/consumer style. Under
// tsan this proves the wrappers forward to the std primitives faithfully
// (lock really excludes, CondVar::Wait really releases and reacquires);
// under the clang gate the GUARDED_BY discipline is proved at compile
// time. Raw std::thread is deliberate here: the test simulates external
// client threads, which is the sanctioned exception.
TEST(ThreadAnnotationsTest, MutexCondVarWrappersSynchronize) {
  struct Channel {
    Mutex mu;
    CondVar cv;
    std::vector<int> items JOINEST_GUARDED_BY(mu);
    bool done JOINEST_GUARDED_BY(mu) = false;
    long long sum JOINEST_GUARDED_BY(mu) = 0;  // Racy unless mu excludes.
  };
  Channel channel;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1000;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&channel, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        MutexLock lock(channel.mu);
        channel.items.push_back(p * kPerProducer + i);
        channel.cv.NotifyOne();
      }
    });
  }

  std::thread consumer([&channel] {
    int consumed = 0;
    while (consumed < kProducers * kPerProducer) {
      MutexLock lock(channel.mu);
      while (channel.items.empty()) {
        channel.cv.Wait(channel.mu);
      }
      for (int item : channel.items) {
        channel.sum += item;
        ++consumed;
      }
      channel.items.clear();
    }
    MutexLock lock(channel.mu);
    channel.done = true;
  });

  for (std::thread& producer : producers) producer.join();
  {
    // Wake the consumer in case it parked after the final push.
    MutexLock lock(channel.mu);
    channel.cv.NotifyAll();
  }
  consumer.join();

  const int n = kProducers * kPerProducer;
  MutexLock lock(channel.mu);
  EXPECT_TRUE(channel.done);
  EXPECT_EQ(channel.sum, static_cast<long long>(n) * (n - 1) / 2);
  EXPECT_TRUE(channel.items.empty());
}

// TryLock must fail while another thread holds the capability and succeed
// after release.
TEST(ThreadAnnotationsTest, TryLockReflectsOwnership) {
  Mutex mu;
  mu.Lock();
  std::atomic<bool> grabbed{true};
  std::thread prober([&mu, &grabbed] {
    grabbed.store(mu.TryLock());
    if (grabbed.load()) mu.Unlock();
  });
  prober.join();
  EXPECT_FALSE(grabbed.load());
  mu.Unlock();

  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

}  // namespace
}  // namespace joinest
