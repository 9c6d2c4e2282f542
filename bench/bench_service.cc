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
//                      mode measures the no-op republish path, and its hit
//                      rate (exported as service_cache_hit_rate) should
//                      stay near 1;
//   mixed_32t        — the same race with 31 query threads: far more
//                      clients than cores or shared-pool workers, so the
//                      sessions' batch drains oversubscribe the executor
//                      pool (bounded submission degrades to inline runs).
//                      The mode exists to catch convoying or starvation
//                      under contention, not to show speedup.
//
// Before timing, every workload query's warm estimate is checked
// bit-identical (==, not within-epsilon) to the cache-bypassing cold path;
// after timing, warm-vs-cold speedup at 8 threads must be >= 5x. The
// reported rows_per_sec is queries/sec (naming kept for
// tools/check_bench_regression.py). Results land in BENCH_service.json via
// a metrics-registry read-back, like the other benches.
//
// Usage: bench_service [--smoke] [--out PATH]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/logging.h"
#include "common/table_printer.h"
#include "joinest/joinest.h"

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

struct ModeResult {
  std::string mode;
  double seconds = 0;
  double queries_per_sec = 0;
  int64_t ops = 0;
};

// Median of `repeats` timed runs after one warm-up; `run` returns the
// number of queries it served.
template <typename Fn>
ModeResult TimeMode(const std::string& mode, int repeats, Fn&& run) {
  ModeResult result;
  result.mode = mode;
  std::fprintf(stderr, "  [%s] warm-up...\n", mode.c_str());
  result.ops = run();
  std::vector<double> times;
  times.reserve(static_cast<size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const int64_t ops = run();
    const auto end = std::chrono::steady_clock::now();
    JOINEST_CHECK_EQ(ops, result.ops) << mode << " op count drifted";
    times.push_back(std::chrono::duration<double>(end - start).count());
  }
  std::sort(times.begin(), times.end());
  result.seconds = times[times.size() / 2];
  result.queries_per_sec =
      result.seconds > 0 ? static_cast<double>(result.ops) / result.seconds
                         : 0;
  return result;
}

// `threads` workers split the query list; each estimates its stride.
int64_t EstimateSweep(const Fixture& f, bool use_cache, int threads,
                      int rounds) {
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&f, use_cache, threads, rounds, t] {
      const Session session =
          f.db->CreateSession(Session::Options().set_use_cache(use_cache))
              .value();
      for (int round = 0; round < rounds; ++round) {
        for (size_t q = static_cast<size_t>(t); q < f.queries.size();
             q += static_cast<size_t>(threads)) {
          auto estimate = session.Estimate(f.queries[q]);
          JOINEST_CHECK(estimate.ok()) << estimate.status();
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return static_cast<int64_t>(f.queries.size()) * rounds;
}

int64_t OptimizeSweep(const Fixture& f, bool use_cache, int rounds) {
  const Session session =
      f.db->CreateSession(Session::Options().set_use_cache(use_cache))
          .value();
  for (int round = 0; round < rounds; ++round) {
    for (const PreparedQuery& q : f.queries) {
      auto plan = session.Optimize(q);
      JOINEST_CHECK(plan.ok()) << plan.status();
    }
  }
  return static_cast<int64_t>(f.queries.size()) * rounds;
}

// `clients` query threads (cache on, re-Preparing so they follow
// republishes) race 1 writer thread that keeps publishing new snapshots
// with S's statistics unchanged (digests equal, so nothing is reclaimed).
// With clients >> cores this doubles as the oversubscription check: every
// session funnels into the one shared executor pool, whose bounded
// submission must degrade to inline execution instead of queue blow-up.
int64_t MixedSweep(const Fixture& f, int clients, int iterations,
                   int republishes) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(clients));
  for (int t = 0; t < clients; ++t) {
    workers.emplace_back([&f, iterations, t] {
      const Session session =
          f.db->CreateSession(Session::Options()).value();
      for (int i = 0; i < iterations; ++i) {
        const PreparedQuery& q =
            f.queries[static_cast<size_t>(t + i) % f.queries.size()];
        auto prepared = session.Prepare(q.sql);
        JOINEST_CHECK(prepared.ok()) << prepared.status();
        auto estimate = session.Estimate(*prepared);
        JOINEST_CHECK(estimate.ok()) << estimate.status();
      }
    });
  }
  std::thread writer([&f, &stop, republishes] {
    for (int i = 0; i < republishes && !stop.load(); ++i) {
      TableStats stats = f.db->snapshot()->catalog().stats(0);
      JOINEST_CHECK(f.db->SetTableStats("S", std::move(stats)).ok());
      std::this_thread::yield();
    }
  });
  for (std::thread& w : workers) w.join();
  stop.store(true);
  writer.join();
  return static_cast<int64_t>(clients) * iterations;
}

}  // namespace
}  // namespace joinest

int main(int argc, char** argv) {
  using namespace joinest;

  bool smoke = false;
  std::string out_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  const int num_queries = smoke ? 48 : 256;
  const int repeats = smoke ? 3 : 5;
  const int warm_rounds = smoke ? 8 : 16;  // Hits are fast; batch them up.
  std::fprintf(stderr, "building fixture (%d queries)...\n", num_queries);
  const Fixture f = MakeFixture(num_queries);

  std::fprintf(stderr, "checking warm results are bit-identical...\n");
  CheckWarmEqualsCold(f);

  std::printf("== service throughput: %d queries, %d threads%s ==\n",
              num_queries, kThreads, smoke ? " (smoke)" : "");

  std::vector<ModeResult> results;
  results.push_back(TimeMode("estimate_cold_8t", repeats, [&] {
    return EstimateSweep(f, /*use_cache=*/false, kThreads, 1);
  }));
  results.push_back(TimeMode("estimate_warm_8t", repeats, [&] {
    return EstimateSweep(f, /*use_cache=*/true, kThreads, warm_rounds);
  }));
  results.push_back(TimeMode("optimize_cold_1t", repeats, [&] {
    return OptimizeSweep(f, /*use_cache=*/false, 1);
  }));
  results.push_back(TimeMode("optimize_warm_1t", repeats, [&] {
    return OptimizeSweep(f, /*use_cache=*/true, warm_rounds);
  }));

  const ServiceCacheStats before_mixed = f.db->cache_stats();
  results.push_back(TimeMode("mixed_8t", repeats, [&] {
    return MixedSweep(f, kThreads - 1, smoke ? 50 : 200, smoke ? 10 : 40);
  }));
  const ServiceCacheStats after_mixed = f.db->cache_stats();
  const int64_t mixed_lookups =
      (after_mixed.hits - before_mixed.hits) +
      (after_mixed.misses - before_mixed.misses);
  const double mixed_hit_rate =
      mixed_lookups > 0
          ? static_cast<double>(after_mixed.hits - before_mixed.hits) /
                static_cast<double>(mixed_lookups)
          : 0.0;

  // High-client-count mixed load: 31 query threads plus the writer — four
  // times the mixed_8t client count and far past this machine's cores.
  // Fewer iterations per client keep total work comparable to mixed_8t.
  constexpr int kManyClients = 31;
  results.push_back(TimeMode("mixed_32t", repeats, [&] {
    return MixedSweep(f, kManyClients, smoke ? 12 : 50, smoke ? 10 : 40);
  }));

  const double cold_qps = results[0].queries_per_sec;
  const double warm_qps = results[1].queries_per_sec;
  const double speedup = cold_qps > 0 ? warm_qps / cold_qps : 0;
  // The acceptance bar: the cache must buy at least 5x at 8 threads.
  JOINEST_CHECK_GE(speedup, 5.0)
      << "cache speedup collapsed (warm " << warm_qps << " qps vs cold "
      << cold_qps << " qps)";

  TablePrinter printer({"mode", "wall s", "queries/sec", "vs cold_8t"});
  char buf[64];
  for (const ModeResult& r : results) {
    std::vector<std::string> cells;
    cells.push_back(r.mode);
    std::snprintf(buf, sizeof buf, "%.4f", r.seconds);
    cells.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.0f", r.queries_per_sec);
    cells.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.2fx",
                  cold_qps > 0 ? r.queries_per_sec / cold_qps : 0);
    cells.push_back(buf);
    printer.AddRow(std::move(cells));
  }
  printer.Print(std::cout);
  std::printf("warm/cold speedup %.1fx, mixed hit rate %.1f%%\n", speedup,
              mixed_hit_rate * 100);

  // Registry read-back is the source of truth for the JSON, same contract
  // as the other benches: one telemetry surface, doubles round-trip
  // bit-exactly through the gauges.
  MetricsRegistry& registry = MetricsRegistry::Global();
  auto mode_gauge = [&registry](const char* name,
                                const std::string& mode) -> Gauge& {
    return registry.GetGauge(name, "bench_service per-mode result",
                             {{"mode", mode}});
  };
  for (const ModeResult& r : results) {
    mode_gauge("bench_service_seconds", r.mode).Set(r.seconds);
    mode_gauge("bench_service_queries_per_sec", r.mode)
        .Set(r.queries_per_sec);
  }
  Gauge& speedup_gauge = registry.GetGauge(
      "bench_service_warm_speedup", "warm vs cold estimate QPS at 8 threads");
  speedup_gauge.Set(speedup);
  Gauge& hit_rate_gauge = registry.GetGauge(
      "service_cache_hit_rate", "cache hit rate over the mixed workload",
      {{"cache", "bench"}});
  hit_rate_gauge.Set(mixed_hit_rate);

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("service");
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("queries");
  json.Int(num_queries);
  json.Key("threads");
  json.Int(kThreads);
  json.Key("repeats");
  json.Int(repeats);
  json.Key("warm_speedup");
  json.Number(speedup_gauge.Value());
  json.Key("cache_hit_rate");
  json.Number(hit_rate_gauge.Value());
  json.Key("modes");
  json.BeginArray();
  for (const ModeResult& r : results) {
    json.BeginObject();
    json.Key("mode");
    json.String(r.mode);
    json.Key("seconds");
    json.Number(mode_gauge("bench_service_seconds", r.mode).Value());
    json.Key("rows_per_sec");  // queries/sec; name feeds the shared gate.
    json.Number(
        mode_gauge("bench_service_queries_per_sec", r.mode).Value());
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (!WriteTextFile(out_path, json.str())) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
