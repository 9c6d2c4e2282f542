// Observability-layer tests: exactness of the sharded metrics under
// concurrency, span nesting and ring behaviour of the tracing layer, the
// CheckFailure post-mortem dump, exclusive operator timing, and the
// EXPLAIN ANALYZE report on the paper's query.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "estimator/presets.h"
#include "executor/execute.h"
#include "obs/explain_analyze.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "storage/datasets.h"

namespace joinest {
namespace {

// ----------------------------------------------------------------- Metrics

TEST(MetricsTest, ConcurrentIncrementsScrapeToExactTotals) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("obs_test_ops_total");
  HistogramMetric& histogram = registry.GetHistogram(
      "obs_test_values", "", HistogramBuckets::Exponential(1.0, 2.0, 10));

  // At least the process's thread budget, so the test exercises the
  // concurrency ParallelFor produces (JOINEST_THREADS honoured).
  const int num_threads = std::max(NumPoolThreads(), 4);
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    workers.emplace_back([&counter, &histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        histogram.Observe(1.0);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Sharded relaxed increments must still merge to the exact sum — no
  // lost updates, no double counting.
  const int64_t expected =
      static_cast<int64_t>(num_threads) * static_cast<int64_t>(kPerThread);
  EXPECT_EQ(counter.Value(), expected);
  const HistogramMetric::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, expected);
  EXPECT_DOUBLE_EQ(snap.sum, static_cast<double>(expected));
  // All observations were exactly 1.0 = the first bound: `le` is inclusive.
  ASSERT_FALSE(snap.bucket_counts.empty());
  EXPECT_EQ(snap.bucket_counts[0], expected);
}

TEST(MetricsTest, RegistrationIsIdempotentAndLabelAware) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("requests", "help", {{"rule", "LS"}});
  Counter& b = registry.GetCounter("requests", "ignored", {{"rule", "LS"}});
  Counter& c = registry.GetCounter("requests", "help", {{"rule", "M"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.Add(3);
  c.Add(5);
  EXPECT_EQ(a.Value(), 3);
  EXPECT_EQ(c.Value(), 5);
  EXPECT_EQ(RenderSeriesName("requests", {{"rule", "LS"}}),
            "requests{rule=\"LS\"}");
}

TEST(MetricsTest, ExpositionCarriesCountersGaugesAndHistograms) {
  MetricsRegistry registry;
  registry.GetCounter("events_total", "Event count").Add(7);
  registry.GetGauge("temperature", "Level").Set(2.5);
  registry
      .GetHistogram("latency_seconds", "Latency",
                    HistogramBuckets::Exponential(0.001, 10.0, 3))
      .Observe(0.005);

  const std::string prom = registry.PrometheusText();
  EXPECT_NE(prom.find("# TYPE events_total counter"), std::string::npos);
  EXPECT_NE(prom.find("events_total 7"), std::string::npos);
  EXPECT_NE(prom.find("temperature 2.5"), std::string::npos);
  // Cumulative buckets plus the +Inf catch-all, _sum and _count.
  EXPECT_NE(prom.find("latency_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("latency_seconds_count 1"), std::string::npos);

  const std::string json = registry.JsonText();
  EXPECT_NE(json.find("\"name\":\"latency_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
}

TEST(MetricsTest, BucketQuantilePinsExactAnswersOnKnownLayouts) {
  const std::vector<double> bounds = {10.0, 20.0, 40.0};

  // Empty histogram: no observations, no quantile.
  EXPECT_DOUBLE_EQ(BucketQuantile(bounds, {0, 0, 0, 0}, 0.5), 0.0);

  // One observation per finite bucket plus one overflow. Rank walks the
  // buckets one observation at a time; the maximum lives in +inf, whose
  // only defensible point estimate is the last finite bound.
  const std::vector<int64_t> spread = {1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(BucketQuantile(bounds, spread, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(BucketQuantile(bounds, spread, 1.0 / 3.0), 20.0);
  EXPECT_DOUBLE_EQ(BucketQuantile(bounds, spread, 2.0 / 3.0), 40.0);
  EXPECT_DOUBLE_EQ(BucketQuantile(bounds, spread, 1.0), 40.0);

  // Uniform-within-bucket interpolation: 4 observations in [0, 10]; the
  // median sits at rank 2.5 of 4 = 62.5% of the way up the bucket.
  EXPECT_DOUBLE_EQ(BucketQuantile(bounds, {4, 0, 0, 0}, 0.5), 6.25);
  // 2 observations in (10, 20]; rank 1.5 of 2 = 75% into the bucket.
  EXPECT_DOUBLE_EQ(BucketQuantile(bounds, {0, 2, 0, 0}, 0.5), 17.5);
}

TEST(MetricsTest, ApproxQuantileReadsTheLiveBuckets) {
  MetricsRegistry registry;
  HistogramMetric& histogram = registry.GetHistogram(
      "obs_test_quantiles", "", HistogramBuckets::Exponential(1.0, 2.0, 3));
  // Bounds are {1, 2, 4}; `le` is inclusive, so these land one per bucket
  // (100 overflows into +inf).
  histogram.Observe(1.0);
  histogram.Observe(2.0);
  histogram.Observe(100.0);
  EXPECT_DOUBLE_EQ(histogram.ApproxQuantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram.ApproxQuantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(histogram.ApproxQuantile(1.0), 4.0);  // Clamped to last
                                                         // finite bound.
}

TEST(MetricsTest, QErrorBucketsSpanOrdersOfMagnitude) {
  const HistogramBuckets buckets = HistogramBuckets::QError();
  ASSERT_FALSE(buckets.bounds.empty());
  EXPECT_DOUBLE_EQ(buckets.bounds.front(), 1.0);
  EXPECT_GT(buckets.bounds.back(), 1e3);
  for (size_t i = 1; i < buckets.bounds.size(); ++i) {
    EXPECT_GT(buckets.bounds[i], buckets.bounds[i - 1]);
  }
}

// ----------------------------------------------------------------- Tracing

TEST(TraceTest, SpanNestingRoundTripsThroughExport) {
  TraceSession session;
  session.Activate();
  {
    Span outer("outer");
    {
      Span inner("inner", "rows", 42);
    }
    Span sibling("sibling");
  }
  session.Deactivate();

  // Spans record on destruction: inner first, then sibling, then outer.
  const std::vector<TraceSession::Event> events = session.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "sibling");
  EXPECT_STREQ(events[2].name, "outer");

  const TraceSession::Event& inner = events[0];
  const TraceSession::Event& sibling = events[1];
  const TraceSession::Event& outer = events[2];
  EXPECT_EQ(outer.parent_id, -1);
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.parent_id, outer.id);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(sibling.parent_id, outer.id);
  EXPECT_EQ(sibling.depth, 1);
  EXPECT_EQ(inner.arg_value, 42);
  EXPECT_STREQ(inner.arg_name, "rows");
  // Containment on the shared monotonic clock.
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.duration_ns,
            outer.start_ns + outer.duration_ns);

  // Chrome trace-event schema essentials (tools/check_trace.py validates
  // the full schema in the analysis suite; this guards the C++ writer).
  const std::string json = session.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\":42"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
  int64_t balance = 0;
  for (char c : json) {
    if (c == '{') ++balance;
    if (c == '}') --balance;
  }
  EXPECT_EQ(balance, 0);
}

TEST(TraceTest, RingOverwritesOldestAndCountsDropped) {
  TraceSession session(/*capacity=*/8);
  session.Activate();
  for (int i = 0; i < 20; ++i) {
    Span span(i % 2 == 0 ? "even" : "odd", "i", i);
  }
  session.Deactivate();

  const std::vector<TraceSession::Event> events = session.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(session.dropped(), 12);
  EXPECT_EQ(session.total_events(), 20);
  // Oldest-first: the survivors are spans 12..19 in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg_value, static_cast<int64_t>(12 + i));
  }

  // The export header accounts for the ring exactly (tools/check_trace.py
  // enforces events + dropped == total against these fields).
  const std::string json = session.ToChromeTraceJson();
  EXPECT_NE(json.find("\"dropped_events\":12"), std::string::npos);
  EXPECT_NE(json.find("\"total_events\":20"), std::string::npos);
  EXPECT_NE(json.find("\"capacity\":8"), std::string::npos);
}

TEST(TraceTest, SpansAreInertWithoutActiveSession) {
  ASSERT_EQ(TraceSession::Active(), nullptr);
  {
    Span span("ignored");
  }
  TraceSession session;
  EXPECT_TRUE(session.Snapshot().empty());
}

TEST(TraceTest, InternReturnsStablePointers) {
  TraceSession session;
  const char* a = session.Intern("HashJoin::Open");
  const char* b = session.Intern("HashJoin::Open");
  const char* c = session.Intern("SeqScan::Open");
  EXPECT_EQ(a, b);
  EXPECT_STRNE(a, c);
}

#if JOINEST_CONTRACTS

using ObsDeathTest = ::testing::Test;

TEST(ObsDeathTest, CheckFailureDumpsActiveTrace) {
  const char* kPath = "obs_test_postmortem.json";
  std::remove(kPath);
  EXPECT_DEATH(
      {
        InstallCheckFailureTraceDump(kPath);
        TraceSession session;
        session.Activate();
        Span span("doomed_work");
        // Spans still open are not in the ring yet; give the dump one
        // finished event to carry.
        { Span done("finished_work"); }
        JOINEST_CHECK(false) << "deliberate failure with tracing active";
      },
      "dumped post-mortem trace to obs_test_postmortem.json");
  // The death-test child ran in this directory: its dump must be a Chrome
  // trace carrying the finished span.
  std::ifstream dump(kPath);
  ASSERT_TRUE(dump.good()) << "post-mortem file missing";
  std::stringstream content;
  content << dump.rdbuf();
  EXPECT_NE(content.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.str().find("finished_work"), std::string::npos);
  std::remove(kPath);
}

#endif  // JOINEST_CONTRACTS

// ------------------------------------------------------- Operator timing

TEST(OperatorTimingTest, SelfTimeExcludesChildren) {
  Catalog catalog;
  ASSERT_TRUE(BuildExample1Dataset(catalog).ok());
  auto query = ParseQuery(
      catalog,
      "SELECT COUNT(*) FROM R1, R2, R3 WHERE R1.x = R2.y AND R2.y = R3.z");
  ASSERT_TRUE(query.ok()) << query.status();
  const auto plan = CanonicalSafePlan(*query);
  auto result = ExecutePlan(catalog, *query, *plan);
  ASSERT_TRUE(result.ok()) << result.status();

  ASSERT_FALSE(result->operators.empty());
  double total_self = 0;
  double max_inclusive = 0;
  for (const OperatorStats& op : result->operators) {
    EXPECT_GE(op.self_seconds, 0.0) << op.name;
    EXPECT_LE(op.self_seconds, op.seconds + 1e-9) << op.name;
    total_self += op.self_seconds;
    max_inclusive = std::max(max_inclusive, op.seconds);
  }
  // Exclusive times partition the inclusive root time: their sum cannot
  // exceed the largest inclusive time (everything ran on one thread).
  EXPECT_LE(total_self, max_inclusive * (1.0 + 1e-6) + 1e-9);
  // Batch statistics flowed through the non-virtual wrapper.
  const OperatorStats& root = result->operators.back();
  EXPECT_GT(root.batches, 0);
  EXPECT_EQ(root.batch_rows, root.rows);
}

// ------------------------------------------------------- EXPLAIN ANALYZE

TEST(ExplainAnalyzeTest, PaperQueryReportsExactEstimates) {
  Catalog catalog;
  PaperDatasetOptions dataset;
  ASSERT_TRUE(BuildPaperDataset(catalog, dataset).ok());
  auto query = ParseQuery(catalog,
                          "SELECT COUNT(*) FROM S, M, B, G WHERE S.s = M.m "
                          "AND M.m = B.b AND B.b = G.g AND S.s < 100");
  ASSERT_TRUE(query.ok()) << query.status();

  ExplainAnalyzeOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto report = ExplainAnalyzeQuery(catalog, *query, options);
  ASSERT_TRUE(report.ok()) << report.status();

  // The paper's construction: every prefix restricted by s < 100 has true
  // size exactly 100, and Rule LS estimates it exactly.
  EXPECT_EQ(report->count, 100);
  EXPECT_EQ(report->rule, std::string("LS"));
  ASSERT_EQ(report->join_levels.size(), 3u);
  for (const ExplainAnalyzeReport::JoinLevel& level : report->join_levels) {
    EXPECT_EQ(level.actual, 100);
    EXPECT_NEAR(level.est_ls, 100.0, 1e-6);
    EXPECT_NEAR(level.q_ls, 1.0, 1e-9);
    // Rule M multiplies independent selectivities and collapses.
    EXPECT_GT(level.q_m, level.q_ls);
  }

  // Estimated and actual rows agree on every operator of the exact-stats
  // plan; the final aggregate row is present at depth 0.
  ASSERT_FALSE(report->operators.empty());
  EXPECT_EQ(report->operators.front().depth, 0);
  for (const ExplainAnalyzeReport::OperatorRow& row : report->operators) {
    if (row.has_estimate && row.has_actual) {
      EXPECT_NEAR(row.estimated_rows,
                  static_cast<double>(row.actual_rows), 1e-6)
          << row.label;
    }
  }

  // The traced run produced estimator and executor spans plus a trace doc.
  EXPECT_GT(report->trace_events, 0);
  EXPECT_FALSE(report->trace_json.empty());
  bool saw_estimator_span = false;
  for (const ExplainAnalyzeReport::SpanSummary& span : report->spans) {
    if (span.name.rfind("estimator::", 0) == 0) saw_estimator_span = true;
  }
  EXPECT_TRUE(saw_estimator_span);

  const std::string text = report->FormatText();
  EXPECT_NE(text.find("q-error"), std::string::npos);
  EXPECT_NE(text.find("COUNT(*) = 100"), std::string::npos);
  const std::string json = report->ToJson();
  EXPECT_NE(json.find("\"qerrors\""), std::string::npos);

  // The q-errors fed the global registry's per-rule histograms.
  const std::string prom = MetricsRegistry::Global().PrometheusText();
  EXPECT_NE(prom.find("estimator_qerror_count{rule=\"LS\"}"),
            std::string::npos);
}

// Under COUNT(*) the plan's top join counts its matches instead of emitting
// them: its EXPLAIN ANALYZE row still reports the rows it would have
// emitted, but no batches, so the fill column reads "-".
TEST(ExplainAnalyzeTest, CountingJoinReportsRowsWithoutBatches) {
  Catalog catalog;
  ASSERT_TRUE(BuildPaperDataset(catalog, PaperDatasetOptions()).ok());
  auto query = ParseQuery(catalog,
                          "SELECT COUNT(*) FROM S, M, B, G WHERE S.s = M.m "
                          "AND M.m = B.b AND B.b = G.g AND S.s < 100");
  ASSERT_TRUE(query.ok()) << query.status();
  ExplainAnalyzeOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  options.with_true_cardinalities = false;
  auto report = ExplainAnalyzeQuery(catalog, *query, options);
  ASSERT_TRUE(report.ok()) << report.status();

  // operators[0] is the CountAgg; operators[1] is the plan's top join.
  ASSERT_GE(report->operators.size(), 2u);
  const ExplainAnalyzeReport::OperatorRow& join = report->operators[1];
  ASSERT_EQ(join.depth, 1);
  ASSERT_TRUE(join.label.rfind("HashJoin", 0) == 0 ||
              join.label.rfind("IndexNLJoin", 0) == 0)
      << join.label;
  ASSERT_TRUE(join.has_actual);
  EXPECT_EQ(join.actual_rows, report->count);
  EXPECT_EQ(join.actual_rows, 100);
  EXPECT_EQ(join.batches, 0);
  EXPECT_GT(join.inclusive_seconds, 0.0);

  // Text cells: | operator | est | act | incl | self | batches | fill |.
  std::istringstream text(report->FormatText());
  bool found = false;
  for (std::string line; std::getline(text, line);) {
    std::vector<std::string> cells;
    std::istringstream fields(line);
    for (std::string cell; std::getline(fields, cell, '|');) {
      const size_t begin = cell.find_first_not_of(' ');
      const size_t end = cell.find_last_not_of(' ');
      cells.push_back(begin == std::string::npos
                          ? ""
                          : cell.substr(begin, end - begin + 1));
    }
    if (cells.size() != 8 || cells[1] != join.label) continue;
    found = true;
    EXPECT_EQ(cells[3], "100") << line;
    EXPECT_EQ(cells[6], "0") << line;
    EXPECT_EQ(cells[7], "-") << line;
  }
  EXPECT_TRUE(found) << report->FormatText();
}

// The X-macro table in obs/metric_names.h is the telemetry contract: the
// runtime view must agree with it, and the production family names must be
// declared. (The full both-directions check — every Get* literal declared,
// every declared name used — is the metric-name-registry lint checker.)
TEST(MetricNamesTest, RuntimeViewMatchesTable) {
  EXPECT_TRUE(IsDeclaredMetricName("estimator_qerror"));
  EXPECT_TRUE(IsDeclaredMetricName("pt_rows_pruned"));
  EXPECT_TRUE(IsDeclaredMetricName("service_snapshot_version"));
  EXPECT_TRUE(IsDeclaredMetricName("bench_accuracy_gmean_ratio"));
  EXPECT_FALSE(IsDeclaredMetricName("estimator_qerorr"));  // Typo.
  EXPECT_FALSE(IsDeclaredMetricName(""));

  // Every name in the table round-trips through the runtime view.
#define JOINEST_METRIC_NAME_EXPECT_(n) \
  EXPECT_TRUE(IsDeclaredMetricName(#n));
  JOINEST_METRIC_NAMES(JOINEST_METRIC_NAME_EXPECT_)
#undef JOINEST_METRIC_NAME_EXPECT_
}

TEST(QErrorValueTest, SymmetricAndClamped) {
  EXPECT_DOUBLE_EQ(QErrorValue(100.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(QErrorValue(200.0, 100.0), 2.0);
  EXPECT_DOUBLE_EQ(QErrorValue(50.0, 100.0), 2.0);
  // Sub-row estimates clamp to one row instead of exploding.
  EXPECT_DOUBLE_EQ(QErrorValue(1e-8, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(QErrorValue(0.0, 0.0), 1.0);
}

}  // namespace
}  // namespace joinest
