// Flight-recorder and accuracy-monitor tests: ring bounds and capture
// order under concurrent writers (tsan via tools/run_sanitizers.sh),
// deterministic seeded sampling, capture-policy overrides, NDJSON/JSON
// export shape, drift detection on a synthetic skew shift, and the
// service-level contracts: cache hits are captured, a forced data shift
// raises the drift alert, and the paper's §8 LS-vs-M/SS q-error ordering
// is reproducible from recorded history alone.

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "joinest/joinest.h"
#include "obs/accuracy_monitor.h"
#include "obs/flight_recorder.h"

namespace joinest {
namespace {

QueryRecord MakeRecord(double total_seconds = 0.0, double q_error = 0.0) {
  QueryRecord record;
  record.api = QueryRecord::Api::kExecute;
  record.fingerprint = 0xfeedfacecafe;
  record.snapshot_version = 1;
  record.rule = "LS";
  record.estimated_rows = 100.0;
  record.total_seconds = total_seconds;
  record.q_error = q_error;
  return record;
}

TEST(FlightRecorderTest, DisabledRecorderCapturesNothing) {
  FlightRecorder recorder{FlightRecorder::Options()};
  EXPECT_FALSE(recorder.enabled());
  EXPECT_FALSE(recorder.Record(MakeRecord()));
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_EQ(recorder.total_captured(), 0);
}

TEST(FlightRecorderTest, OptionsValidate) {
  EXPECT_FALSE(FlightRecorder::Options().set_capacity(0).Validate().ok());
  EXPECT_FALSE(FlightRecorder::Options().set_shards(0).Validate().ok());
  EXPECT_FALSE(FlightRecorder::Options()
                   .set_capacity(2)
                   .set_shards(4)
                   .Validate()
                   .ok());
  EXPECT_FALSE(
      FlightRecorder::Options().set_sample_every_n(-1).Validate().ok());
  EXPECT_FALSE(
      FlightRecorder::Options().set_slow_query_seconds(-1).Validate().ok());
  EXPECT_FALSE(
      FlightRecorder::Options().set_qerror_threshold(-1).Validate().ok());
  EXPECT_TRUE(FlightRecorder::Options().Validate().ok());
  EXPECT_FALSE(AccuracyMonitor::Options().set_window(0).Validate().ok());
  EXPECT_FALSE(AccuracyMonitor::Options().set_min_samples(0).Validate().ok());
  EXPECT_FALSE(
      AccuracyMonitor::Options().set_drift_factor(1.0).Validate().ok());
  EXPECT_TRUE(AccuracyMonitor::Options().Validate().ok());
}

TEST(FlightRecorderTest, RingKeepsTheMostRecentRecordsInCaptureOrder) {
  FlightRecorder recorder{FlightRecorder::Options()
                              .set_enabled(true)
                              .set_capacity(8)
                              .set_shards(2)};
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(recorder.Record(MakeRecord()));
  }
  EXPECT_EQ(recorder.total_offered(), 20);
  EXPECT_EQ(recorder.total_captured(), 20);

  // Each shard ring kept its most recent 4: the survivors are seqs 12..19.
  const std::vector<QueryRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 8u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, static_cast<int64_t>(12 + i));
  }

  // last_n trims from the front.
  const std::vector<QueryRecord> tail = recorder.Snapshot(/*last_n=*/3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.front().seq, 17);
  EXPECT_EQ(tail.back().seq, 19);
}

TEST(FlightRecorderTest, SamplingIsDeterministicAndSeeded) {
  const auto captured_seqs = [](uint64_t seed) {
    FlightRecorder recorder{FlightRecorder::Options()
                                .set_enabled(true)
                                .set_sample_every_n(4)
                                .set_sample_seed(seed)};
    for (int i = 0; i < 40; ++i) recorder.Record(MakeRecord());
    std::set<int64_t> seqs;
    for (const QueryRecord& r : recorder.Snapshot()) seqs.insert(r.seq);
    return seqs;
  };

  // Capture exactly the residue class seed mod 4 — and identically on a
  // rerun: replaying a workload replays the sampling decisions.
  const std::set<int64_t> first = captured_seqs(1);
  EXPECT_EQ(first, captured_seqs(1));
  ASSERT_EQ(first.size(), 10u);
  for (int64_t seq : first) EXPECT_EQ(seq % 4, 1);
  // A different seed shifts the class instead of re-rolling dice.
  const std::set<int64_t> shifted = captured_seqs(2);
  for (int64_t seq : shifted) EXPECT_EQ(seq % 4, 2);
}

TEST(FlightRecorderTest, SlowAndBadQueriesBypassSampling) {
  // sample_every_n = 0: nothing is sampled, only policy overrides capture.
  FlightRecorder recorder{FlightRecorder::Options()
                              .set_enabled(true)
                              .set_sample_every_n(0)
                              .set_slow_query_seconds(0.5)
                              .set_qerror_threshold(10.0)};
  EXPECT_FALSE(recorder.Record(MakeRecord(0.001, 1.0)));  // Fast + accurate.
  EXPECT_TRUE(recorder.Record(MakeRecord(0.9, 1.0)));     // Slow.
  EXPECT_TRUE(recorder.Record(MakeRecord(0.001, 64.0)));  // Bad estimate.
  EXPECT_EQ(recorder.total_offered(), 3);
  EXPECT_EQ(recorder.total_captured(), 2);
}

// The tsan centrepiece: concurrent writers on a sharded ring. Sequence
// numbers must stay unique, rings bounded, and every surviving record
// intact (no torn strings, no half-written structs).
TEST(FlightRecorderTest, ConcurrentWritersKeepRingsConsistent) {
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 500;
  FlightRecorder recorder{FlightRecorder::Options()
                              .set_enabled(true)
                              .set_capacity(64)
                              .set_shards(4)};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder] {
      for (int i = 0; i < kPerWriter; ++i) {
        recorder.Record(MakeRecord(/*total_seconds=*/0.001, /*q_error=*/2.0));
      }
    });
  }
  for (std::thread& t : writers) t.join();

  EXPECT_EQ(recorder.total_offered(), kWriters * kPerWriter);
  EXPECT_EQ(recorder.total_captured(), kWriters * kPerWriter);
  const std::vector<QueryRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 64u);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].seq, records[i].seq);
  }
  for (const QueryRecord& r : records) {
    EXPECT_EQ(r.rule, "LS");
    EXPECT_EQ(r.fingerprint, 0xfeedfacecafeULL);
  }
}

TEST(FlightRecorderTest, ExportsNdjsonAndJsonDocument) {
  QueryRecord record = MakeRecord(0.25, 2.0);
  record.seq = 7;
  record.actual_rows = 50.0;
  record.per_rule.push_back({"LS", 100.0, 2.0});
  record.join_levels.push_back({1, 50.0, 100.0, 80.0, 90.0, 2.0, 1.6, 1.8});
  record.pt_filters.push_back({"R2", "y", 0.5});
  record.pt_rows_pruned = 500.0;
  record.operators_total = 5;

  const std::string ndjson =
      QueryRecordsToNdjson({record, MakeRecord()});
  // One complete JSON object per line.
  ASSERT_EQ(std::count(ndjson.begin(), ndjson.end(), '\n'), 2);
  const std::string line = ndjson.substr(0, ndjson.find('\n'));
  EXPECT_NE(line.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(line.find("\"api\":\"execute\""), std::string::npos);
  EXPECT_NE(line.find("\"rule\":\"LS\""), std::string::npos);
  EXPECT_NE(line.find("\"actual_rows\":50"), std::string::npos);
  EXPECT_NE(line.find("\"join_levels\""), std::string::npos);
  EXPECT_NE(line.find("\"pt_filters\""), std::string::npos);
  EXPECT_NE(line.find("\"operators_total\":5"), std::string::npos);
  EXPECT_NE(line.find("\"total_seconds\":0.25"), std::string::npos);
  // Optional sections stay out of records that lack them.
  const std::string plain = ndjson.substr(ndjson.find('\n') + 1);
  EXPECT_EQ(plain.find("\"join_levels\""), std::string::npos);
  EXPECT_EQ(plain.find("\"pt_filters\""), std::string::npos);

  const std::string json = QueryRecordsToJson({record});
  EXPECT_NE(json.find("\"querylog\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

// ------------------------------------------------------- Accuracy monitor

QueryRecord ExecutedRecord(uint64_t version, double q_error) {
  QueryRecord record = MakeRecord(0.001, q_error);
  record.snapshot_version = version;
  record.actual_rows = 100.0 / q_error;
  record.per_rule.push_back({"LS", 100.0, q_error});
  return record;
}

TEST(AccuracyMonitorTest, IgnoresUnexecutedRecords) {
  AccuracyMonitor monitor{AccuracyMonitor::Options()};
  QueryRecord record = MakeRecord();  // actual_rows = -1.
  record.per_rule.push_back({"LS", 100.0, 0.0});
  monitor.Ingest(record);
  EXPECT_TRUE(monitor.Report().empty());
}

TEST(AccuracyMonitorTest, DriftFiresOnceOnSyntheticSkewShift) {
  // window = 8 so the recovery phase below fully flushes the bad q-errors.
  AccuracyMonitor monitor{AccuracyMonitor::Options()
                              .set_window(8)
                              .set_min_samples(4)
                              .set_drift_factor(4.0)};
  // Snapshot v1: the estimator is healthy (q-errors near 1).
  for (int i = 0; i < 8; ++i) monitor.Ingest(ExecutedRecord(1, 1.2));
  EXPECT_EQ(monitor.alerts_total(), 0);

  // Snapshot v2: the data shifted under the statistics; q-errors explode.
  for (int i = 0; i < 8; ++i) monitor.Ingest(ExecutedRecord(2, 60.0));
  EXPECT_EQ(monitor.alerts_total(), 1);  // Transition, not one per Ingest.

  const std::vector<AccuracyMonitor::WindowStats> report = monitor.Report();
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report[0].snapshot_version, 1u);
  EXPECT_TRUE(report[0].is_baseline);
  EXPECT_FALSE(report[0].drifted);
  EXPECT_EQ(report[1].snapshot_version, 2u);
  EXPECT_FALSE(report[1].is_baseline);
  EXPECT_TRUE(report[1].drifted);
  EXPECT_GE(report[1].drift_ratio, 4.0);
  EXPECT_GT(report[1].geomean, report[0].geomean);

  // Recovery clears the drift flag without a second alert.
  for (int i = 0; i < 8; ++i) monitor.Ingest(ExecutedRecord(2, 1.2));
  EXPECT_EQ(monitor.alerts_total(), 1);
  for (const AccuracyMonitor::WindowStats& window : monitor.Report()) {
    EXPECT_FALSE(window.drifted);
  }
}

// ------------------------------------------------------- Service wiring

constexpr char kJoinSql[] =
    "SELECT COUNT(*) FROM R1, R2, R3 WHERE R1.x = R2.y AND R2.y = R3.z";

std::unique_ptr<Database> OpenExample1(Database::Options options = {}) {
  auto db = Database::Open(std::move(options));
  JOINEST_CHECK(db.ok()) << db.status();
  Catalog staged;
  JOINEST_CHECK(BuildExample1Dataset(staged).ok());
  JOINEST_CHECK((*db)->ImportTables(std::move(staged)).ok());
  return std::move(*db);
}

TEST(ServiceRecorderTest, RecorderOffByDefaultKeepsQueryLogEmpty) {
  auto db = OpenExample1();
  auto session = db->CreateSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Estimate(kJoinSql).ok());
  ASSERT_TRUE(session->Execute(kJoinSql).ok());
  EXPECT_FALSE(db->recorder().enabled());
  EXPECT_TRUE(db->QueryLog().empty());
}

TEST(ServiceRecorderTest, ColdAndWarmCallsBothLeaveRecords) {
  auto db = OpenExample1(Database::Options().set_recorder(
      FlightRecorder::Options().set_enabled(true)));
  auto session = db->CreateSession();
  ASSERT_TRUE(session.ok());

  ASSERT_TRUE(session->Estimate(kJoinSql).ok());
  ASSERT_TRUE(session->Estimate(kJoinSql).ok());  // Plan-cache hit.
  ASSERT_TRUE(session->Execute(kJoinSql).ok());
  ASSERT_TRUE(session->Execute(kJoinSql).ok());   // Plan-cache hit.

  const std::vector<QueryRecord> records = db->QueryLog();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].api, QueryRecord::Api::kEstimate);
  EXPECT_FALSE(records[0].cache_hit);
  EXPECT_EQ(records[1].api, QueryRecord::Api::kEstimate);
  EXPECT_TRUE(records[1].cache_hit);  // Warm estimate still captured.
  EXPECT_EQ(records[2].api, QueryRecord::Api::kExecute);
  EXPECT_EQ(records[3].api, QueryRecord::Api::kExecute);
  EXPECT_TRUE(records[3].cache_hit);  // Warm execute still captured.

  // Estimate-only records carry no ground truth; executed records do.
  EXPECT_EQ(records[0].actual_rows, -1.0);
  EXPECT_EQ(records[0].q_error, 0.0);
  EXPECT_EQ(records[2].actual_rows, 1000.0);
  EXPECT_GE(records[2].q_error, 1.0);
  ASSERT_EQ(records[2].per_rule.size(), 3u);  // LS, M, SS.
  for (const QueryRecord::RuleEstimate& rule : records[2].per_rule) {
    EXPECT_GE(rule.q_error, 1.0);
  }
  EXPECT_GT(records[2].operators_total, 0);

  // Identical fingerprints and snapshot versions across the four calls.
  for (const QueryRecord& r : records) {
    EXPECT_EQ(r.fingerprint, records[0].fingerprint);
    EXPECT_EQ(r.snapshot_version, records[0].snapshot_version);
    EXPECT_GE(r.total_seconds, 0.0);
  }

  EXPECT_FALSE(db->QueryLogNdjson().empty());
  EXPECT_NE(db->QueryLogJson().find("\"count\":4"), std::string::npos);
}

// An EXPLAIN ANALYZE record counts the operators it ran, as an Execute
// record of the same plan does.
TEST(ServiceRecorderTest, ExplainAnalyzeRecordCountsOperators) {
  auto db = OpenExample1(Database::Options().set_recorder(
      FlightRecorder::Options().set_enabled(true)));
  auto session = db->CreateSession();
  ASSERT_TRUE(session.ok());
  auto report = session->ExplainAnalyze(kJoinSql);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(session->Execute(kJoinSql).ok());

  const std::vector<QueryRecord> records = db->QueryLog();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].api, QueryRecord::Api::kExplainAnalyze);
  EXPECT_GT(records[0].operators_total, 0);
  EXPECT_EQ(records[0].operators_total, report->operators_total);
  EXPECT_EQ(records[1].api, QueryRecord::Api::kExecute);
  EXPECT_EQ(records[0].operators_total, records[1].operators_total);
}

// An EXPLAIN ANALYZE record's total is the call's wall time: it covers the
// optimizer and the ground truth the call counted, not only the estimate,
// predicate-transfer and execution stages, so it is at least the call's
// own explain_analyze span.
TEST(ServiceRecorderTest, ExplainAnalyzeTotalCoversTheWholeCall) {
  auto db = Database::Open(Database::Options().set_recorder(
      FlightRecorder::Options().set_enabled(true)));
  ASSERT_TRUE(db.ok());
  {
    Catalog staged;
    ASSERT_TRUE(BuildPaperDataset(staged, PaperDatasetOptions()).ok());
    ASSERT_TRUE((*db)->ImportTables(std::move(staged)).ok());
  }
  auto session =
      (*db)->CreateSession(Session::Options().set_capture_trace(true));
  ASSERT_TRUE(session.ok());
  auto report = session->ExplainAnalyze(
      "SELECT COUNT(*) FROM S, M, B, G WHERE S.s = M.m AND M.m = B.b AND "
      "B.b = G.g AND S.s < 100");
  ASSERT_TRUE(report.ok()) << report.status();
  double span_seconds = 0.0;
  for (const ExplainAnalyzeReport::SpanSummary& span : report->spans) {
    if (span.name == "explain_analyze") span_seconds = span.total_seconds;
  }
  ASSERT_GT(span_seconds, 0.0);

  const std::vector<QueryRecord> records = (*db)->QueryLog();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].api, QueryRecord::Api::kExplainAnalyze);
  EXPECT_GE(records[0].total_seconds, span_seconds);
}

TEST(ServiceRecorderTest, ForcedDataShiftRaisesDriftAlert) {
  auto db = OpenExample1(
      Database::Options()
          .set_recorder(FlightRecorder::Options().set_enabled(true))
          .set_accuracy(AccuracyMonitor::Options()
                            .set_min_samples(4)
                            .set_drift_factor(4.0)));
  auto session = db->CreateSession();
  ASSERT_TRUE(session.ok());

  // Healthy baseline at the initial snapshot: Example 1's exact statistics
  // estimate the join exactly, so q-errors sit at 1.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(session->Execute(kJoinSql).ok());
  EXPECT_EQ(db->accuracy_monitor().alerts_total(), 0);

  // The data "shifts" under the estimator: republished statistics claim R1
  // is 1000x larger than the rows actually stored.
  TableStats stats = db->snapshot()->catalog().stats(0);
  stats.row_count *= 1000;
  ASSERT_TRUE(db->SetTableStats("R1", std::move(stats)).ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(session->Execute(kJoinSql).ok());

  EXPECT_GE(db->accuracy_monitor().alerts_total(), 1);
  bool saw_drifted_window = false;
  for (const AccuracyMonitor::WindowStats& w :
       db->accuracy_monitor().Report()) {
    if (w.drifted) {
      saw_drifted_window = true;
      EXPECT_GE(w.drift_ratio, 4.0);
      EXPECT_GT(w.snapshot_version, 1u);
    }
  }
  EXPECT_TRUE(saw_drifted_window);
}

// The paper's §8 finding, reproduced from recorded history alone: over the
// recorded workload, Rule LS is at least as accurate as Rules M and SS at
// every join level (geometric-mean q-error), without consulting the
// estimator directly.
TEST(ServiceRecorderTest, Section8OrderingFromRecordedHistoryAlone) {
  auto db = Database::Open(
      Database::Options()
          .set_recorder(FlightRecorder::Options().set_enabled(true))
          .set_accuracy(AccuracyMonitor::Options().set_min_samples(4)));
  ASSERT_TRUE(db.ok());
  {
    Catalog staged;
    PaperDatasetOptions dataset;
    ASSERT_TRUE(BuildPaperDataset(staged, dataset).ok());
    ASSERT_TRUE((*db)->ImportTables(std::move(staged)).ok());
  }
  auto session = (*db)->CreateSession(
      Session::Options().set_preset(AlgorithmPreset::kELS));
  ASSERT_TRUE(session.ok());

  // A small recorded workload: the §8 chain query at several filter widths.
  for (int width : {100, 100, 200, 200, 400, 400}) {
    const std::string sql =
        "SELECT COUNT(*) FROM S, M, B, G WHERE S.s = M.m AND M.m = B.b "
        "AND B.b = G.g AND S.s < " +
        std::to_string(width);
    ASSERT_TRUE(session->ExplainAnalyze(sql).ok());
  }

  const std::vector<AccuracyMonitor::WindowStats> report =
      (*db)->accuracy_monitor().Report();
  ASSERT_FALSE(report.empty());
  const auto geomean = [&report](const std::string& rule,
                                 int level) -> double {
    for (const AccuracyMonitor::WindowStats& w : report) {
      if (w.rule == rule && w.level == level) return w.geomean;
    }
    ADD_FAILURE() << "no window for rule " << rule << " level " << level;
    return 0.0;
  };
  // Windows exist for the whole query (level 0) and every join level.
  for (int level : {0, 1, 2, 3}) {
    const double ls = geomean("LS", level);
    EXPECT_LE(ls, geomean("M", level) + 1e-9) << "level " << level;
    EXPECT_LE(ls, geomean("SS", level) + 1e-9) << "level " << level;
    EXPECT_GE(ls, 1.0 - 1e-9);
  }
}

}  // namespace
}  // namespace joinest
