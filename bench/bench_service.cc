// Estimation service throughput: multi-threaded QPS through the Database /
// Session facade, and the speedup the fingerprint-keyed cache buys.
//
// Six modes over the paper's §8 dataset with a workload of distinct
// 4-table queries (varying local-predicate constants → distinct
// fingerprints):
//   estimate_cold_8t — 8 threads, cache bypassed: every Estimate runs the
//                      full preliminary phase (headline + LS/M/SS rules);
//   estimate_warm_8t — 8 threads, cache pre-filled: every Estimate is a
//                      shard lookup;
//   optimize_cold_1t / optimize_warm_1t — same contrast for full
//                      cost-based optimization;
//   mixed_8t         — 7 query threads with the cache on racing 1 writer
//                      thread that republishes snapshots. The writer
//                      republishes S's statistics unchanged, so no table
//                      digest changes and no entry is invalidated: the
//                      mode measures the no-op republish path;
//   mixed_32t        — the same race with 31 query threads: far more
//                      clients than cores, so the sessions oversubscribe
//                      the machine. The mode exists to catch convoying or
//                      starvation under contention, not to show speedup.
//
// Before timing, every workload query's warm estimate is checked
// bit-identical (==, not within-epsilon) to the cache-bypassing cold path.
// Each mode runs one warm-up plus five timed calls, interleaved with
// the other modes' calls, and reports the median (bench/timing.h). Every
// session is built and every worker thread started before the clock
// starts, and each timed call serves enough rounds to last 10 ms or more,
// so a call times the queries rather than thread start-up or one
// preempted worker. Three same-run checks fail the
// run, in smoke and full mode alike:
//   estimate_warm_8t >= 5x estimate_cold_8t  — the result cache;
//   optimize_warm_1t >= 5x optimize_cold_1t  — the plan cache;
//   mixed_32t >= 0.25x mixed_8t              — convoying at 32 clients.
//
// Usage: bench_service [--smoke]

#include <atomic>
#include <barrier>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/table_printer.h"
#include "joinest/joinest.h"
#include "timing.h"

namespace joinest {
namespace {

constexpr int kThreads = 8;

struct Fixture {
  std::unique_ptr<Database> db;
  std::vector<PreparedQuery> queries;
};

Fixture MakeFixture(int num_queries) {
  Fixture f;
  auto db = Database::Open(Database::Options()
                               .set_cache_capacity(4 * num_queries)
                               .set_cache_label("bench"));
  JOINEST_CHECK(db.ok()) << db.status();
  f.db = std::move(*db);

  Catalog staged;
  PaperDatasetOptions dataset;
  JOINEST_CHECK(BuildPaperDataset(staged, dataset).ok());
  JOINEST_CHECK(f.db->ImportTables(std::move(staged)).ok());

  const Session session =
      f.db->CreateSession(Session::Options()).value();
  f.queries.reserve(static_cast<size_t>(num_queries));
  for (int k = 0; k < num_queries; ++k) {
    auto prepared = session.Prepare(
        "SELECT COUNT(*) FROM S, M, B, G WHERE S.s = M.m AND M.m = B.b "
        "AND B.b = G.g AND S.s < " +
        std::to_string(k + 1));
    JOINEST_CHECK(prepared.ok()) << prepared.status();
    f.queries.push_back(std::move(*prepared));
  }
  return f;
}

// Warm results must be bit-identical to the cold path — the cache-key
// contract the service tests assert per query; repeated here so the
// benchmark never reports speedup on wrong answers.
void CheckWarmEqualsCold(const Fixture& f) {
  const Session cached = f.db->CreateSession(Session::Options()).value();
  const Session uncached =
      f.db->CreateSession(Session::Options().set_use_cache(false)).value();
  for (const PreparedQuery& q : f.queries) {
    auto cold = uncached.Estimate(q);
    JOINEST_CHECK(cold.ok()) << cold.status();
    auto fill = cached.Estimate(q);
    JOINEST_CHECK(fill.ok()) << fill.status();
    auto warm = cached.Estimate(q);
    JOINEST_CHECK(warm.ok()) << warm.status();
    JOINEST_CHECK(warm->cache_hit());
    JOINEST_CHECK(warm->rows() == cold->rows())
        << "cached estimate differs from cold path";
    JOINEST_CHECK(warm->groups() == cold->groups());
    JOINEST_CHECK_EQ(warm->per_rule().size(), cold->per_rule().size());
    for (size_t i = 0; i < warm->per_rule().size(); ++i) {
      JOINEST_CHECK(warm->per_rule()[i].rows == cold->per_rule()[i].rows);
    }
  }
}

// `n` threads that each run `work(t)` once per Run(). The threads start
// before the first Run and wait between runs, so a timed Run covers the
// work and one wake-up, not thread start-up.
class Crew {
 public:
  Crew(int n, std::function<void(int)> work)
      : work_(std::move(work)), start_(n + 1), done_(n + 1) {
    threads_.reserve(static_cast<size_t>(n));
    for (int t = 0; t < n; ++t) {
      threads_.emplace_back([this, t] {
        while (true) {
          start_.arrive_and_wait();
          if (stop_.load()) return;
          work_(t);
          done_.arrive_and_wait();
        }
      });
    }
  }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;
  ~Crew() {
    stop_.store(true);
    start_.arrive_and_wait();
    for (std::thread& t : threads_) t.join();
  }

  void Run() {
    start_.arrive_and_wait();
    done_.arrive_and_wait();
  }

 private:
  std::function<void(int)> work_;
  std::barrier<> start_;
  std::barrier<> done_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

std::vector<Session> MakeSessions(const Fixture& f, int n, bool use_cache) {
  std::vector<Session> sessions;
  sessions.reserve(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) {
    sessions.push_back(
        f.db->CreateSession(Session::Options().set_use_cache(use_cache))
            .value());
  }
  return sessions;
}

// kThreads workers split the query list; each estimates its stride
// `rounds` times per call.
Mode EstimateMode(std::string name, const Fixture& f, bool use_cache,
                  int rounds) {
  auto crew = std::make_shared<Crew>(
      kThreads, [&f, rounds,
                 sessions = MakeSessions(f, kThreads, use_cache)](int t) {
        for (int round = 0; round < rounds; ++round) {
          for (size_t q = static_cast<size_t>(t); q < f.queries.size();
               q += kThreads) {
            auto estimate =
                sessions[static_cast<size_t>(t)].Estimate(f.queries[q]);
            JOINEST_CHECK(estimate.ok()) << estimate.status();
          }
        }
      });
  return {std::move(name), [crew, &f, rounds] {
            crew->Run();
            return static_cast<int64_t>(f.queries.size()) * rounds;
          }};
}

Mode OptimizeMode(std::string name, const Fixture& f, bool use_cache,
                  int rounds) {
  return {std::move(name),
          [&f, rounds, session = MakeSessions(f, 1, use_cache)[0]] {
            for (int round = 0; round < rounds; ++round) {
              for (const PreparedQuery& q : f.queries) {
                auto plan = session.Optimize(q);
                JOINEST_CHECK(plan.ok()) << plan.status();
              }
            }
            return static_cast<int64_t>(f.queries.size()) * rounds;
          }};
}

// `clients` query threads (cache on, re-Preparing so they follow
// republishes) race 1 writer thread that keeps publishing new snapshots
// with S's statistics unchanged (digests equal, so nothing is reclaimed)
// until the clients finish or it has published `republishes` times.
Mode MixedMode(std::string name, const Fixture& f, int clients,
               int iterations, int republishes) {
  auto clients_left = std::make_shared<std::atomic<int>>(0);
  auto crew = std::make_shared<Crew>(
      clients + 1,
      [&f, clients, iterations, republishes, clients_left,
       sessions = MakeSessions(f, clients, /*use_cache=*/true)](int t) {
        if (t == clients) {
          for (int i = 0; i < republishes && clients_left->load() > 0; ++i) {
            TableStats stats = f.db->snapshot()->catalog().stats(0);
            JOINEST_CHECK(f.db->SetTableStats("S", std::move(stats)).ok());
            std::this_thread::yield();
          }
          return;
        }
        const Session& session = sessions[static_cast<size_t>(t)];
        for (int i = 0; i < iterations; ++i) {
          const PreparedQuery& q =
              f.queries[static_cast<size_t>(t + i) % f.queries.size()];
          auto prepared = session.Prepare(q.sql);
          JOINEST_CHECK(prepared.ok()) << prepared.status();
          auto estimate = session.Estimate(*prepared);
          JOINEST_CHECK(estimate.ok()) << estimate.status();
        }
        clients_left->fetch_sub(1);
      });
  return {std::move(name), [crew, clients_left, clients, iterations] {
            clients_left->store(clients);
            crew->Run();
            return static_cast<int64_t>(clients) * iterations;
          }};
}

}  // namespace
}  // namespace joinest

int main(int argc, char** argv) {
  using namespace joinest;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }

  const int num_queries = smoke ? 48 : 256;
  std::fprintf(stderr, "building fixture (%d queries)...\n", num_queries);
  const Fixture f = MakeFixture(num_queries);

  std::fprintf(stderr, "checking warm results are bit-identical...\n");
  CheckWarmEqualsCold(f);

  std::printf("== service throughput: %d queries, %d threads%s ==\n",
              num_queries, kThreads, smoke ? " (smoke)" : "");

  // Rounds per timed call, chosen so that each call lasts 10 ms or more at
  // smoke scale (about 20 ms on a 4-vCPU host); the estimate and optimize
  // calls of a full run cover five times the queries. mixed_32t has four
  // times mixed_8t's clients and a quarter of its iterations per client,
  // so both serve about the same number of queries per call.
  constexpr int kColdRounds = 32;
  constexpr int kWarmRounds = 2400;
  constexpr int kOptimizeColdRounds = 32;
  constexpr int kOptimizeWarmRounds = 4000;
  constexpr int kRepublishes = 120;
  constexpr int kManyClients = 31;
  const std::vector<Timing> results = TimeModes({
      EstimateMode("estimate_cold_8t", f, /*use_cache=*/false, kColdRounds),
      EstimateMode("estimate_warm_8t", f, /*use_cache=*/true, kWarmRounds),
      OptimizeMode("optimize_cold_1t", f, /*use_cache=*/false,
                   kOptimizeColdRounds),
      OptimizeMode("optimize_warm_1t", f, /*use_cache=*/true,
                   kOptimizeWarmRounds),
      MixedMode("mixed_8t", f, kThreads - 1, 600, kRepublishes),
      MixedMode("mixed_32t", f, kManyClients, 140, kRepublishes),
  });

  auto qps = [](const Timing& r) {
    return static_cast<double>(r.result) / r.seconds;
  };
  TablePrinter printer({"mode", "wall s", "queries/sec", "vs cold_8t"});
  char buf[64];
  for (const Timing& r : results) {
    std::vector<std::string> cells;
    cells.push_back(r.mode);
    std::snprintf(buf, sizeof buf, "%.4f", r.seconds);
    cells.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.0f", qps(r));
    cells.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.2fx", qps(r) / qps(results[0]));
    cells.push_back(buf);
    printer.AddRow(std::move(cells));
  }
  printer.Print(std::cout);

  return CheckRatios(
      {{"estimate_warm_8t / estimate_cold_8t", qps(results[1]) /
                                                   qps(results[0]),
        5.0},
       {"optimize_warm_1t / optimize_cold_1t",
        qps(results[3]) / qps(results[2]), 5.0},
       {"mixed_32t / mixed_8t", qps(results[5]) / qps(results[4]), 0.25}});
}
