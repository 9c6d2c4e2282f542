// perfbench: the repository benchmark. Three seeded closed-loop workloads
// through the public Database/Session facade, every answer checked.
//
//   perfbench --workload plan_cold|explain_skew|serve_mixed --seed N
//             --seconds S --trace 0|1 [--requests N] [--git-sha SHA]
//             [--trace-out PATH] [--inject-wrong-answer]
//   perfbench --selftest
//
// With --trace 0 the run sets up kSetups times (reporting the median),
// then measures for --seconds (and at least until request_p99_us has ten
// samples beyond it) and prints the end-to-end metrics, each timing scaled
// to a reference host speed (see SpeedLog). With --trace 1
// the same request stream runs three phases: untraced, traced facade
// calls (per-layer counts are registry and result deltas around these),
// and a traced replay that calls each layer's entry point directly on the
// traced requests' inputs. Per-layer times come from the benchmark's own
// spans (SpanLog below), never from the program's.
//
// Output: a {"record": ...} line with the host, build and request
// bookkeeping (including the host's speed through the run and the timings
// as measured, before scaling), then the result line {"correct",
// "attempted", "failed", "metrics"} last. A failed check fails its request
// and the exit code.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "executor/plan.h"
#include "harness.h"
#include "inputs.h"
#include "joinest/joinest.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "rewrite/transitive_closure.h"
#include "service/fingerprint.h"

namespace perfbench {
namespace {

using joinest::Database;
using joinest::ExplainAnalyzeReport;
using joinest::PreparedQuery;
using joinest::Session;

// ----------------------------------------------------------------- args

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int64_t requests = 0;  // > 0: fixed request count instead of a duration.
  std::string git_sha = "unknown";
  std::string trace_out;
  bool inject_wrong_answer = false;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (flag == "--inject-wrong-answer") {
      args.inject_wrong_answer = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--requests") {
      args.requests = std::atoll(value.c_str());
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------- requests

// What one request's timed facade calls returned, plus what a traced
// replay needs to call the layers directly on the same inputs.
struct TracedRequest {
  int64_t id = 0;
  PreparedQuery prepared;
  bool estimate_hit = false;
  bool optimize_hit = false;
  double execute_seconds = 0;  // ExplainAnalyzeReport::seconds.
  double rows_per_count = 0;   // Σ operator rows / COUNT(*).
};

struct Outcome {
  bool ok = false;
  double latency = 0;  // Seconds in the facade calls.
};

// Span names: facade calls, then direct layer calls of the replay.
constexpr const char* kRequestSpan = "bench.request";
constexpr const char* kPrepareSpan = "bench.prepare";
constexpr const char* kEstimateSpan = "bench.estimate";
constexpr const char* kOptimizeSpan = "bench.optimize";
constexpr const char* kExplainSpan = "bench.explain_analyze";
constexpr const char* kRepublishSpan = "bench.republish";
constexpr const char* kReplaySpan = "bench.replay";
constexpr const char* kParseSpan = "bench.parse";
constexpr const char* kFingerprintSpan = "bench.fingerprint";
constexpr const char* kClosureSpan = "bench.closure";
constexpr const char* kAnalyzeSpan = "bench.analyze";
constexpr const char* kOptimizeDirectSpan = "bench.optimize_direct";
constexpr const char* kPtSpan = "bench.pt";
constexpr const char* kTruthSpan = "bench.truth";
constexpr const char* kExplainDirectSpan = "bench.explain_direct";

// The traced run's span store. The benchmark keeps its own spans instead
// of an ambient TraceSession: ExplainAnalyze summarises whatever ambient
// session is active on every call, which would make explain_skew's cost
// grow with the trace. Spans are kept in memory, exported on request in
// the Chrome trace-event format tools/check_trace.py validates, and never
// dropped.
class SpanLog {
 public:
  struct Event {
    const char* name = nullptr;
    int64_t request = 0;
    int64_t start_ns = 0;
    int64_t duration_ns = 0;
    int64_t id = 0;
    int64_t parent_id = -1;
    int32_t depth = 0;
    int32_t thread = 0;
  };

  // The log spans record into; null when tracing is off.
  static SpanLog* Active() { return active_.load(std::memory_order_acquire); }
  void Activate() { active_.store(this, std::memory_order_release); }
  void Deactivate() { active_.store(nullptr, std::memory_order_release); }

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  int64_t NextId() { return next_id_.fetch_add(1); }
  void Record(const Event& event) {
    const joinest::MutexLock lock(mu_);
    events_.push_back(event);
  }
  // Call once recording has stopped.
  const std::vector<Event>& events() const JOINEST_NO_THREAD_SAFETY_ANALYSIS {
    return events_;
  }
  std::string ToChromeTraceJson() const;

 private:
  static std::atomic<SpanLog*> active_;
  const Clock::time_point epoch_ = Clock::now();
  std::atomic<int64_t> next_id_{0};
  joinest::Mutex mu_;
  std::vector<Event> events_ JOINEST_GUARDED_BY(mu_);
};

std::atomic<SpanLog*> SpanLog::active_{nullptr};

// Small sequential id of the calling thread, for the trace's tid.
int32_t ThreadId() {
  static std::atomic<int32_t> next{0};
  thread_local const int32_t id = next.fetch_add(1);
  return id;
}

// RAII span tagged with a request id; inert while no SpanLog is active.
// Nesting follows a per-thread stack of open spans.
class Span {
 public:
  Span(const char* name, int64_t request) : log_(SpanLog::Active()) {
    if (log_ == nullptr) return;
    event_.name = name;
    event_.request = request;
    event_.id = log_->NextId();
    event_.thread = ThreadId();
    event_.depth = static_cast<int32_t>(Stack().size());
    event_.parent_id = Stack().empty() ? -1 : Stack().back();
    Stack().push_back(event_.id);
    event_.start_ns = log_->NowNs();
  }
  ~Span() {
    if (log_ == nullptr) return;
    event_.duration_ns = log_->NowNs() - event_.start_ns;
    Stack().pop_back();
    log_->Record(event_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static std::vector<int64_t>& Stack() {
    thread_local std::vector<int64_t> stack;
    return stack;
  }
  SpanLog* log_;
  SpanLog::Event event_;
};

std::string SpanLog::ToChromeTraceJson() const {
  joinest::JsonWriter json;
  json.BeginObject();
  json.Key("traceEvents");
  json.BeginArray();
  for (const Event& e : events()) {
    json.BeginObject();
    json.Key("name");
    json.String(e.name);
    json.Key("cat");
    json.String("perfbench");
    json.Key("ph");
    json.String("X");
    json.Key("ts");
    json.Number(static_cast<double>(e.start_ns) / 1e3);
    json.Key("dur");
    json.Number(static_cast<double>(e.duration_ns) / 1e3);
    json.Key("pid");
    json.Int(1);
    json.Key("tid");
    json.Int(e.thread);
    json.Key("args");
    json.BeginObject();
    json.Key("span_id");
    json.Int(e.id);
    json.Key("parent_id");
    json.Int(e.parent_id);
    json.Key("depth");
    json.Int(e.depth);
    json.Key("request");
    json.Int(e.request);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.Key("otherData");
  json.BeginObject();
  json.Key("dropped_events");
  json.Int(0);
  json.Key("total_events");
  json.Int(static_cast<int64_t>(events().size()));
  json.EndObject();
  json.EndObject();
  return json.str();
}

// The shared pool's size (JOINEST_THREADS), pinned for every workload: the
// calling thread only, so clients plus pool threads stay within nproc.
// explain_skew would give the pool a worker, but with one, ExplainAnalyze
// with trace capture on (the session default) aborted 3 of 89 runs of
// 10-20 s: a worker closes its ThreadPool::task span (obs/pool_obs.cc) after
// the task group's waiter has returned and ExplainAnalyzePlan has destroyed
// its per-call TraceSession, so the span records into freed memory.
constexpr int kPoolThreads = 1;

void Fail(const std::string& what, int64_t id) {
  std::fprintf(stderr, "perfbench: request %lld: %s\n",
               static_cast<long long>(id), what.c_str());
}

// ------------------------------------------------------------ workloads

class Workload {
 public:
  explicit Workload(const Args& args) : args_(args) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual int clients() const { return 1; }

  // Generates the tables, loads them into a fresh database and warms it
  // up. Returns each LoadTable call's seconds.
  virtual std::vector<double> Setup() = 0;
  // Runs request `seq` of the timed stream; fills `traced` when given.
  virtual Outcome Request(int client, int64_t seq, TracedRequest* traced) = 0;
  // Direct layer calls on a traced request's inputs.
  virtual void Replay(const TracedRequest& request) = 0;
  // Checks made outside the timed phase; false on a wrong answer.
  virtual bool FinalChecks() { return true; }
  // Background writer around a timed phase (serve_mixed).
  virtual void BeginPhase() {}
  virtual void EndPhase() {}
  virtual int64_t republishes() const { return 0; }
  virtual int64_t writer_failures() const { return 0; }
  virtual int64_t warmup_requests() const = 0;
  // Digest of the request list: the timed requests of a single-client
  // workload, the hot set of serve_mixed.
  uint64_t request_digest() const { return request_digest_.digest(); }

  Database& db() { return *db_; }
  // Digest of the answers, in order: equal seeds give equal digests.
  uint64_t answer_digest() const { return answers_.digest(); }
  // Per-request q-errors (explain_skew).
  const std::vector<double>& qerrors() const { return qerrors_; }

 protected:
  // Drops the previous set-up's database, so repeated set-ups peak at one
  // copy of the data. Call before generating the next set-up's tables.
  virtual void Reset() {
    db_.reset();
    table_names_.clear();
  }

  // Loads `tables` into a new database opened with `options`.
  std::vector<double> Load(std::vector<NamedTable> tables,
                           Database::Options options) {
    db_ = Database::Open(std::move(options)).value();
    std::vector<double> seconds;
    for (NamedTable& t : tables) {
      const Clock::time_point start = Clock::now();
      const joinest::Status loaded =
          db_->LoadTable(t.name, std::move(t.table));
      seconds.push_back(SecondsSince(start));
      JOINEST_CHECK(loaded.ok()) << loaded;
      table_names_.push_back(t.name);
    }
    return seconds;
  }

  // The digests are written by one thread only: the single client, or
  // serve_mixed's set-up.
  void NoteRequest(const std::string& sql) { request_digest_.MixString(sql); }

  // The wrong-answer self-test perturbs exactly request 0's check.
  double Perturb(int64_t seq, double v) const {
    return args_.inject_wrong_answer && seq == 0 ? v + 1 : v;
  }

  const Args& args_;
  std::unique_ptr<Database> db_;
  std::vector<std::string> table_names_;
  joinest::Fingerprint answers_;
  joinest::Fingerprint request_digest_;
  std::vector<double> qerrors_;
};

// Prepare → Estimate → Optimize, shared by plan_cold and serve_mixed.
struct PlanAnswer {
  double rows = 0;
  std::vector<double> per_rule;
  double cost = 0;
  std::vector<int> order;
  bool estimate_hit = false;
  bool optimize_hit = false;
};

joinest::StatusOr<PlanAnswer> PlanRequest(const Session& session,
                                          const std::string& sql,
                                          int64_t id, PreparedQuery* kept) {
  const Span request_span(kRequestSpan, id);
  joinest::StatusOr<PreparedQuery> prepared = [&] {
    const Span span(kPrepareSpan, id);
    return session.Prepare(sql);
  }();
  if (!prepared.ok()) return prepared.status();
  auto estimate = [&] {
    const Span span(kEstimateSpan, id);
    return session.Estimate(*prepared);
  }();
  if (!estimate.ok()) return estimate.status();
  auto plan = [&] {
    const Span span(kOptimizeSpan, id);
    return session.Optimize(*prepared);
  }();
  if (!plan.ok()) return plan.status();
  PlanAnswer answer;
  answer.rows = estimate->rows();
  for (const auto& rule : estimate->per_rule()) {
    answer.per_rule.push_back(rule.rows);
  }
  answer.cost = plan->estimated_cost();
  answer.order = plan->join_order();
  answer.estimate_hit = estimate->cache_hit();
  answer.optimize_hit = plan->cache_hit();
  if (kept != nullptr) *kept = std::move(*prepared);
  return answer;
}

// Replays the layers a Prepare → Estimate → Optimize request crossed:
// parse and fingerprint always, the four analyses of a cold Estimate
// (headline plus LS/M/SS) on an Estimate miss, OptimizeQuery on an
// Optimize miss. Closure is timed on every request.
void ReplayPlanRequest(const Session& session, const TracedRequest& r) {
  const joinest::Catalog& catalog = r.prepared.snapshot->catalog();
  const joinest::QuerySpec& spec = r.prepared.spec;
  const Span replay(kReplaySpan, r.id);
  {
    const Span span(kParseSpan, r.id);
    JOINEST_CHECK(joinest::ParseQuery(catalog, r.prepared.sql).ok());
  }
  {
    const Span span(kFingerprintSpan, r.id);
    [[maybe_unused]] const uint64_t digest =
        joinest::QuerySpecFingerprint(spec) ^
        joinest::EstimationOptionsDigest(session.options().estimation()) ^
        joinest::OptimizerOptionsDigest(session.options().optimizer());
  }
  {
    const Span span(kClosureSpan, r.id);
    [[maybe_unused]] const joinest::ClosureResult closure =
        joinest::ComputeTransitiveClosure(spec.predicates);
  }
  if (!r.estimate_hit) {
    const joinest::EstimationOptions options[] = {
        session.options().estimation(),
        joinest::PresetOptions(joinest::AlgorithmPreset::kELS),
        joinest::PresetOptions(joinest::AlgorithmPreset::kSM),
        joinest::PresetOptions(joinest::AlgorithmPreset::kSSS)};
    for (const joinest::EstimationOptions& o : options) {
      const Span span(kAnalyzeSpan, r.id);
      JOINEST_CHECK(joinest::AnalyzedQuery::Create(catalog, spec, o).ok());
    }
  }
  if (!r.optimize_hit) {
    const Span span(kOptimizeDirectSpan, r.id);
    JOINEST_CHECK(
        joinest::OptimizeQuery(catalog, spec, session.options().optimizer())
            .ok());
  }
}

// plan_cold: one client plans queries it has never seen. Every lookup
// misses; the default-capacity cache only takes inserts and evictions.
class PlanCold final : public Workload {
 public:
  using Workload::Workload;
  int64_t warmup_requests() const override { return kWarmup; }

  void Reset() override {
    session_.reset();
    Workload::Reset();
  }

  std::vector<double> Setup() override {
    Reset();
    std::vector<double> load =
        Load(MakePlanTables(args_.seed, kBaseRows, kStepRows),
             Database::Options());
    session_ = std::make_unique<Session>(
        db_->CreateSession(
               Session::Options().set_preset(joinest::AlgorithmPreset::kELS))
            .value());
    for (int64_t w = 0; w < kWarmup; ++w) {
      JOINEST_CHECK(PlanRequest(*session_,
                                PlanQuerySql(args_.seed, Stream::kWarmup, w),
                                -1 - w, nullptr)
                        .ok());
    }
    return load;
  }

  Outcome Request(int, int64_t seq, TracedRequest* traced) override {
    const std::string sql = PlanQuerySql(args_.seed, Stream::kTimed, seq);
    NoteRequest(sql);
    PreparedQuery prepared;
    const Clock::time_point start = Clock::now();
    joinest::StatusOr<PlanAnswer> answer =
        PlanRequest(*session_, sql, seq, &prepared);
    Outcome outcome;
    outcome.latency = SecondsSince(start);
    if (!answer.ok()) {
      Fail(answer.status().ToString(), seq);
      return outcome;
    }
    answers_.MixDouble(answer->rows);
    answers_.MixDouble(answer->cost);
    // Rule LS is Algorithm ELS's rule: the per-rule LS row must be the
    // headline, bit for bit.
    if (answer->per_rule.empty() ||
        Perturb(seq, answer->per_rule[0]) != answer->rows) {
      Fail("LS per-rule estimate differs from the ELS headline", seq);
      return outcome;
    }
    if (traced != nullptr) {
      traced->id = seq;
      traced->prepared = std::move(prepared);
      traced->estimate_hit = answer->estimate_hit;
      traced->optimize_hit = answer->optimize_hit;
    } else if (seq % kWarmCheckEvery == 0) {
      // A warm re-Estimate must return the cold answer bit for bit.
      auto warm = session_->Estimate(prepared);
      if (!warm.ok() || !warm->cache_hit() || warm->rows() != answer->rows) {
        Fail("warm re-Estimate differs from its cold answer", seq);
        return outcome;
      }
      for (size_t k = 0; k < answer->per_rule.size(); ++k) {
        if (warm->per_rule()[k].rows != answer->per_rule[k]) {
          Fail("warm per-rule estimate differs from its cold answer", seq);
          return outcome;
        }
      }
    }
    outcome.ok = true;
    return outcome;
  }

  void Replay(const TracedRequest& request) override {
    ReplayPlanRequest(*session_, request);
  }

 private:
  // Eight tables of 40k-180k rows: planning cost depends only on
  // statistics, so their size shows in set-up time and memory alone.
  static constexpr int64_t kBaseRows = 40000;
  static constexpr int64_t kStepRows = 20000;
  static constexpr int64_t kWarmup = 64;
  static constexpr int64_t kWarmCheckEvery = 64;
  std::unique_ptr<Session> session_;
};

// explain_skew: one client runs Prepare → ExplainAnalyze on Zipf-skewed
// tables with the session defaults (true cardinalities and trace capture
// on) plus predicate transfer.
class ExplainSkew final : public Workload {
 public:
  using Workload::Workload;
  int64_t warmup_requests() const override { return kWarmup; }

  void Reset() override {
    session_.reset();
    Workload::Reset();
  }

  std::vector<double> Setup() override {
    Reset();
    std::vector<double> load =
        Load(MakeSkewTables(args_.seed, kRows), Database::Options());
    session_ = std::make_unique<Session>(
        db_->CreateSession(
               Session::Options()
                   .set_preset(joinest::AlgorithmPreset::kELS)
                   .set_features(joinest::EstimatorFeatures{
                       .runtime_selectivities = true}))
            .value());
    for (int64_t w = 0; w < kWarmup; ++w) {
      auto report = session_->ExplainAnalyze(
          SkewQuerySql(args_.seed, Stream::kWarmup, w));
      JOINEST_CHECK(report.ok()) << report.status();
    }
    samples_.clear();
    qerrors_.clear();
    return load;
  }

  Outcome Request(int, int64_t seq, TracedRequest* traced) override {
    const std::string sql = SkewQuerySql(args_.seed, Stream::kTimed, seq);
    NoteRequest(sql);
    Outcome outcome;
    const Clock::time_point start = Clock::now();
    joinest::StatusOr<PreparedQuery> prepared = joinest::Internal("not run");
    joinest::StatusOr<ExplainAnalyzeReport> report =
        joinest::Internal("not run");
    {
      const Span request_span(kRequestSpan, seq);
      {
        const Span span(kPrepareSpan, seq);
        prepared = session_->Prepare(sql);
      }
      if (prepared.ok()) {
        const Span span(kExplainSpan, seq);
        report = session_->ExplainAnalyze(*prepared);
      }
    }
    outcome.latency = SecondsSince(start);
    if (!prepared.ok()) {
      Fail(prepared.status().ToString(), seq);
      return outcome;
    }
    if (!report.ok()) {
      Fail(report.status().ToString(), seq);
      return outcome;
    }
    answers_.MixDouble(static_cast<double>(report->count));
    if (report->join_levels.empty() ||
        Perturb(seq, static_cast<double>(report->count)) !=
            static_cast<double>(report->join_levels.back().actual)) {
      Fail("COUNT(*) differs from the last join level's actual", seq);
      return outcome;
    }
    qerrors_.push_back(report->join_levels.back().q_ls);
    if (seq % kTruthSampleEvery == 0 && samples_.size() < kTruthSamples) {
      samples_.emplace_back(*prepared, report->count);
    }
    if (traced != nullptr) {
      int64_t operator_rows = 0;
      for (const auto& op : report->operators) {
        if (op.has_actual) operator_rows += op.actual_rows;
      }
      traced->id = seq;
      traced->prepared = std::move(*prepared);
      traced->execute_seconds = report->seconds;
      traced->rows_per_count = static_cast<double>(operator_rows) /
                               static_cast<double>(
                                   std::max<int64_t>(report->count, 1));
    }
    outcome.ok = true;
    return outcome;
  }

  bool FinalChecks() override {
    bool ok = true;
    for (const auto& [prepared, count] : samples_) {
      auto truth = joinest::TrueResultSize(prepared.snapshot->catalog(),
                                           prepared.spec);
      if (!truth.ok() || *truth != count) {
        Fail("ExplainAnalyze count differs from TrueResultSize", -1);
        ok = false;
      }
    }
    return ok;
  }

  // The facade's ExplainAnalyze is Optimize + predicate transfer +
  // ExplainAnalyzePlan (plan execution, ground truth, report assembly).
  void Replay(const TracedRequest& r) override {
    const joinest::Catalog& catalog = r.prepared.snapshot->catalog();
    const joinest::QuerySpec& spec = r.prepared.spec;
    const joinest::OptimizerOptions optimizer = EffectiveOptimizer();
    const Span replay(kReplaySpan, r.id);
    {
      const Span span(kParseSpan, r.id);
      JOINEST_CHECK(joinest::ParseQuery(catalog, r.prepared.sql).ok());
    }
    {
      const Span span(kFingerprintSpan, r.id);
      [[maybe_unused]] const uint64_t digest =
          joinest::QuerySpecFingerprint(spec) ^
          joinest::OptimizerOptionsDigest(optimizer);
    }
    {
      const Span span(kClosureSpan, r.id);
      [[maybe_unused]] const joinest::ClosureResult closure =
          joinest::ComputeTransitiveClosure(spec.predicates);
    }
    joinest::StatusOr<joinest::OptimizedPlan> plan = [&] {
      const Span span(kOptimizeDirectSpan, r.id);
      return joinest::OptimizeQuery(catalog, spec, optimizer);
    }();
    JOINEST_CHECK(plan.ok()) << plan.status();
    joinest::StatusOr<joinest::PtResult> pt = [&] {
      const Span span(kPtSpan, r.id);
      return joinest::RunPredicateTransfer(catalog, spec);
    }();
    JOINEST_CHECK(pt.ok()) << pt.status();
    int64_t raw_rows = 0;
    for (const joinest::PtTableStats& t : pt->tables) raw_rows += t.raw_rows;
    pruned_.push_back(static_cast<double>(pt->rows_pruned()) /
                      static_cast<double>(std::max<int64_t>(raw_rows, 1)));
    double truth_seconds = 0;
    {
      const Span span(kTruthSpan, r.id);
      const Clock::time_point start = Clock::now();
      JOINEST_CHECK(joinest::TruePrefixSizes(catalog, spec,
                                             joinest::PlanLeafOrder(
                                                 *plan->root))
                        .ok());
      truth_seconds = SecondsSince(start);
    }
    joinest::ExplainAnalyzeOptions ea;
    ea.estimation = optimizer.estimation;
    ea.scan_selections = &pt->selections;
    const Clock::time_point start = Clock::now();
    joinest::StatusOr<ExplainAnalyzeReport> report = [&] {
      const Span span(kExplainDirectSpan, r.id);
      return joinest::ExplainAnalyzePlan(catalog, spec, *plan->root, ea);
    }();
    JOINEST_CHECK(report.ok()) << report.status();
    explain_self_.push_back(SecondsSince(start) - report->seconds -
                            truth_seconds);
  }

  const std::vector<double>& pruned() const { return pruned_; }
  const std::vector<double>& explain_self() const { return explain_self_; }

 private:
  // The session's optimizer options with the database's observed
  // predicate-transfer selectivities, as the facade injects them
  // (non-owning: the database outlives every replay).
  joinest::OptimizerOptions EffectiveOptimizer() const {
    joinest::OptimizerOptions optimizer = session_->options().optimizer();
    // lint:allow(estimation-options-pokes) — mirrors the facade's injection.
    optimizer.estimation.runtime_selectivities =
        std::shared_ptr<const joinest::RuntimeSelectivityStore>(
            std::shared_ptr<void>(), &db_->runtime_selectivities());
    return optimizer;
  }

  static constexpr int64_t kRows = 1500;
  static constexpr int64_t kWarmup = 200;
  static constexpr int64_t kTruthSampleEvery = 37;
  static constexpr size_t kTruthSamples = 16;
  std::unique_ptr<Session> session_;
  std::vector<std::pair<PreparedQuery, int64_t>> samples_;
  std::vector<double> pruned_;
  std::vector<double> explain_self_;
};

// Re-ANALYZEs one table per trigger on its own thread; triggers come from
// read counts, so the work per run is fixed by the run's reads.
class Republisher {
 public:
  Republisher(Database& db, std::vector<std::string> tables)
      : db_(db), tables_(std::move(tables)), thread_([this] { Loop(); }) {}
  ~Republisher() { Stop(); }
  Republisher(const Republisher&) = delete;
  Republisher& operator=(const Republisher&) = delete;

  void Trigger() {
    {
      const joinest::MutexLock lock(mu_);
      ++pending_;
    }
    cv_.NotifyOne();
  }

  // Finishes the call in flight, drops pending triggers and joins.
  void Stop() {
    {
      const joinest::MutexLock lock(mu_);
      stopping_ = true;
    }
    cv_.NotifyOne();
    if (thread_.joinable()) thread_.join();
  }

  // Read after Stop().
  int64_t done() const { return done_; }
  int64_t failures() const { return failures_; }

 private:
  void Loop() {
    for (int64_t n = 0;; ++n) {
      {
        const joinest::MutexLock lock(mu_);
        while (!stopping_ && pending_ == 0) cv_.Wait(mu_);
        if (stopping_) return;
        --pending_;
      }
      const std::string& table = tables_[static_cast<size_t>(n) %
                                         tables_.size()];
      const Span span(kRepublishSpan, n);
      const joinest::Status status =
          db_.AnalyzeTable(table, db_.options().analyze());
      ++done_;
      if (!status.ok()) {
        std::fprintf(stderr, "perfbench: AnalyzeTable(%s): %s\n",
                     table.c_str(), status.ToString().c_str());
        ++failures_;
      }
    }
  }

  Database& db_;
  const std::vector<std::string> tables_;
  joinest::Mutex mu_;
  joinest::CondVar cv_;
  int64_t pending_ JOINEST_GUARDED_BY(mu_) = 0;
  bool stopping_ JOINEST_GUARDED_BY(mu_) = false;
  // Written by the writer thread only; read after Stop() joins it.
  int64_t done_ = 0;
  int64_t failures_ = 0;
  // The writer is a client of the database, not work of the program's, so
  // it does not run on the shared pool. lint:allow(no-raw-threads)
  std::thread thread_;  // Last: starts after the members it uses.
};

// serve_mixed: two readers plan a hot set that fits the cache while one
// writer re-ANALYZEs a table after every kReadsPerRepublish-th read. The
// data never changes, so every answer must equal the set-up reference.
// Two readers, not three: with three readers and the writer on four cores
// the run-to-run spread of throughput doubled (13% against 5% IQR/median
// over five seeds), because any other load on the host then preempts a
// reader.
class ServeMixed final : public Workload {
 public:
  using Workload::Workload;
  int clients() const override { return kReaders; }
  int64_t warmup_requests() const override { return kHotSet; }

  void Reset() override {
    writer_.reset();
    session_.reset();
    Workload::Reset();
  }

  std::vector<double> Setup() override {
    Reset();
    std::vector<double> load = Load(
        MakePlanTables(args_.seed, kBaseRows, kStepRows),
        Database::Options().set_recorder(
            joinest::FlightRecorder::Options().set_enabled(true)
                .set_sample_every_n(kRecorderEvery)));
    session_ = std::make_unique<Session>(
        db_->CreateSession(
               Session::Options().set_preset(joinest::AlgorithmPreset::kELS))
            .value());
    hot_.clear();
    for (int64_t h = 0; h < kHotSet; ++h) {
      const std::string sql = PlanQuerySql(args_.seed, Stream::kHotSet, h);
      auto answer = PlanRequest(*session_, sql, -1 - h, nullptr);
      JOINEST_CHECK(answer.ok()) << answer.status();
      request_digest_.MixString(sql);
      answers_.MixDouble(answer->rows);
      answers_.MixDouble(answer->cost);
      hot_.push_back(HotQuery{sql, std::move(*answer)});
    }
    return load;
  }

  void BeginPhase() override {
    writer_ = std::make_unique<Republisher>(*db_, table_names_);
  }
  void EndPhase() override {
    writer_->Stop();
    republishes_ += writer_->done();
    writer_failures_ += writer_->failures();
  }
  int64_t republishes() const override { return republishes_; }
  int64_t writer_failures() const override { return writer_failures_; }

  Outcome Request(int, int64_t seq, TracedRequest* traced) override {
    joinest::Rng rng(args_.seed ^ (static_cast<uint64_t>(seq) *
                                   0xD1B54A32D192ED03ull));
    const HotQuery& hot =
        hot_[static_cast<size_t>(rng.NextBounded(hot_.size()))];
    PreparedQuery prepared;
    const Clock::time_point start = Clock::now();
    joinest::StatusOr<PlanAnswer> answer =
        PlanRequest(*session_, hot.sql, seq, &prepared);
    Outcome outcome;
    outcome.latency = SecondsSince(start);
    if (reads_.fetch_add(1, std::memory_order_relaxed) % kReadsPerRepublish ==
        kReadsPerRepublish - 1) {
      writer_->Trigger();
    }
    if (!answer.ok()) {
      Fail(answer.status().ToString(), seq);
      return outcome;
    }
    const PlanAnswer& ref = hot.reference;
    if (Perturb(seq, answer->rows) != ref.rows ||
        answer->per_rule != ref.per_rule || answer->cost != ref.cost ||
        answer->order != ref.order) {
      Fail("answer differs from the set-up reference", seq);
      return outcome;
    }
    if (traced != nullptr) {
      traced->id = seq;
      traced->prepared = std::move(prepared);
      traced->estimate_hit = answer->estimate_hit;
      traced->optimize_hit = answer->optimize_hit;
    }
    outcome.ok = true;
    return outcome;
  }

  void Replay(const TracedRequest& request) override {
    ReplayPlanRequest(*session_, request);
  }

 private:
  struct HotQuery {
    std::string sql;
    PlanAnswer reference;
  };
  static constexpr int kReaders = 2;
  static constexpr int64_t kBaseRows = 10000;
  static constexpr int64_t kStepRows = 5000;
  static constexpr int64_t kHotSet = 512;
  static constexpr int64_t kReadsPerRepublish = 8192;
  static constexpr int64_t kRecorderEvery = 16;
  std::unique_ptr<Session> session_;
  std::vector<HotQuery> hot_;
  std::atomic<int64_t> reads_{0};
  std::unique_ptr<Republisher> writer_;
  int64_t republishes_ = 0;
  int64_t writer_failures_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "plan_cold") return std::make_unique<PlanCold>(args);
  if (args.workload == "explain_skew") {
    return std::make_unique<ExplainSkew>(args);
  }
  if (args.workload == "serve_mixed") {
    return std::make_unique<ServeMixed>(args);
  }
  return nullptr;
}

// ---------------------------------------------------------------- phases

// Readings of CalibrationMs() taken every kEvery by each client between
// its requests, so they see the speed the host gives the run's work on
// every core it uses. (A thread that sleeps between readings also waits,
// on waking, for the host to run it, and read 1.9x a busy thread's value.)
//
// A 4-vCPU Xeon VM (2.1 GHz) on a shared host drifts: from one minute to
// the next the workloads run up to 1.7x slower and back, and a run's mean
// reading rises with them. So the gated timings are scaled to a host whose
// mean reading is kReferenceSpeedMs: a time is multiplied by
// kReferenceSpeedMs / mean reading, a rate divided by it. That leaves a
// change of the program's speed as it is, since the reading calls none of
// the program's code, and takes out most of the host's: over two sets of
// ten 30 s runs of each workload, the scaled timings spread at most 9.5%
// (IQR/median; 10-34% as measured) and no set median was worse than the
// other's by more than 4.4%. Readings every 200 ms, or on one of
// serve_mixed's readers only, tracked the workloads less closely. The
// record keeps the timings as measured.
class SpeedLog {
 public:
  struct Summary {
    double mean_ms = 0;
    double min_ms = 0;
    double max_ms = 0;
  };

  void Sample() { readings_.push_back(CalibrationMs()); }
  void Merge(const SpeedLog& other) {
    readings_.insert(readings_.end(), other.readings_.begin(),
                     other.readings_.end());
  }

  // Takes a reading when kEvery has passed since the last one; returns the
  // seconds that took.
  double MaybeSample() {
    const Clock::time_point now = Clock::now();
    if (now < next_) return 0;
    Sample();
    next_ = Clock::now() + kEvery;
    return SecondsSince(now);
  }

  Summary summary() const {
    if (readings_.empty()) return {};
    const auto [lo, hi] = std::minmax_element(readings_.begin(),
                                              readings_.end());
    return Summary{Mean(readings_), *lo, *hi};
  }

 private:
  static constexpr std::chrono::milliseconds kEvery{50};
  std::vector<double> readings_;
  Clock::time_point next_ = Clock::now();
};

struct Limit {
  int64_t requests = 0;  // > 0: exactly this many.
  double seconds = 0;    // Otherwise: at least this long...
  int64_t min_requests = 0;  // ...and at least this many.
  int64_t keep = 0;          // Keep replay inputs of the first `keep`.
  SpeedLog* speed = nullptr;  // Gets every client's readings.
};

struct Phase {
  int64_t end_seq = 0;  // The next phase's first sequence number.
  int64_t attempted = 0;
  int64_t failed = 0;
  double seconds = 0;
  double calib_seconds = 0;  // Clients' time in speed readings, summed.
  SpeedLog speed;            // A client's readings.
  LatencyHistogram latencies;
  std::vector<TracedRequest> traced;
};

// Runs the workload's clients closed-loop from sequence number
// `first_seq` until `limit`.
Phase RunPhase(Workload& w, int64_t first_seq, const Limit& limit) {
  Phase phase;
  std::atomic<int64_t> next{0};
  std::atomic<bool> stop{false};
  const int clients = w.clients();
  std::vector<Phase> per_client(static_cast<size_t>(clients));
  const Clock::time_point start = Clock::now();
  auto client = [&](int c) {
    Phase& mine = per_client[static_cast<size_t>(c)];
    for (;;) {
      const int64_t n = next.fetch_add(1);
      const bool done =
          limit.requests > 0
              ? n >= limit.requests
              : SecondsSince(start) >= limit.seconds &&
                    n >= limit.min_requests;
      if (done) stop = true;
      if (stop) break;
      if (limit.speed != nullptr) {
        mine.calib_seconds += mine.speed.MaybeSample();
      }
      const bool keep = n < limit.keep;
      TracedRequest traced;
      const Outcome outcome =
          w.Request(c, first_seq + n, keep ? &traced : nullptr);
      ++mine.attempted;
      if (!outcome.ok) ++mine.failed;
      mine.latencies.Add(outcome.latency);
      if (keep && outcome.ok) mine.traced.push_back(std::move(traced));
    }
  };
  w.BeginPhase();
  if (clients == 1) {
    client(0);
  } else {
    // Clients are callers of the program, so they do not run on its
    // shared pool. lint:allow(no-raw-threads)
    std::vector<std::thread> threads;
    // lint:allow(no-raw-threads)
    for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();  // lint:allow(no-raw-threads)
  }
  phase.seconds = SecondsSince(start);
  phase.end_seq = first_seq + next.load();
  w.EndPhase();
  for (Phase& p : per_client) {
    phase.calib_seconds += p.calib_seconds;
    if (limit.speed != nullptr) limit.speed->Merge(p.speed);
    phase.attempted += p.attempted;
    phase.failed += p.failed;
    phase.latencies.Merge(p.latencies);
    for (TracedRequest& t : p.traced) phase.traced.push_back(std::move(t));
  }
  std::sort(phase.traced.begin(), phase.traced.end(),
            [](const TracedRequest& a, const TracedRequest& b) {
              return a.id < b.id;
            });
  return phase;
}

// ----------------------------------------------------------- the record

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

struct Counts {
  joinest::ServiceCacheStats cache;
  RegistryCounts registry;
};

Counts TakeCounts(Database& db) {
  return Counts{db.cache_stats(), RegistryCounts::Scrape()};
}

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

// The mean speed reading the gated timings are scaled to. It only sets
// their scale (the ratio of two runs does not depend on it): that VM reads
// 0.44-0.49 ms while the host's other tenants are quiet and 0.7-0.95 ms
// when they are busy, so scaled figures read about as measured on a quiet
// host.
constexpr double kReferenceSpeedMs = 0.5;

// What the record says about the host.
struct HostRecord {
  SpeedLog::Summary timed;  // Over the timed phases.
  SpeedLog::Summary setup;  // Around the set-ups of an untraced run.
  double cpu_per_wall = 0;  // Process CPU seconds per timed second.
};

// `measured`: the gated metrics before scaling (untraced runs only).
void PrintRecord(const Args& args, const Workload& w, int64_t timed,
                 const Counts& before, const Counts& after,
                 const HostRecord& host, const MetricMap& measured) {
  joinest::JsonWriter json;
  json.BeginObject();
  json.Key("record");
  json.BeginObject();
  json.Key("workload");
  json.String(args.workload);
  json.Key("seed");
  json.Int(static_cast<int64_t>(args.seed));
  json.Key("trace");
  json.Bool(args.trace);
  json.Key("nproc");
  json.Int(static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  json.Key("clients");
  json.Int(w.clients());
  json.Key("pool_threads");
  json.Int(kPoolThreads);
  json.Key("build_type");
  json.String(PERFBENCH_BUILD_TYPE);
  json.Key("contracts");
  json.Bool(JOINEST_CONTRACTS != 0);
  json.Key("compiler");
  json.String(Compiler());
  json.Key("git_sha");
  json.String(args.git_sha);
  json.Key("setups");
  json.Int(args.trace ? 1 : kSetups);
  json.Key("warmup_requests");
  json.Int(w.warmup_requests());
  json.Key("timed_requests");
  json.Int(timed);
  json.Key("republishes");
  json.Int(w.republishes());
  json.Key("request_digest");
  json.String(std::to_string(w.request_digest()));
  json.Key("answer_digest");
  json.String(std::to_string(w.answer_digest()));
  json.Key("host");
  json.BeginObject();
  json.Key("calib_ms");
  json.Number(host.timed.mean_ms);
  json.Key("calib_min_ms");
  json.Number(host.timed.min_ms);
  json.Key("calib_max_ms");
  json.Number(host.timed.max_ms);
  json.Key("setup_calib_ms");
  json.Number(host.setup.mean_ms);
  json.Key("cpu_per_wall");
  json.Number(host.cpu_per_wall);
  json.Key("reference_ms");
  json.Number(kReferenceSpeedMs);
  json.EndObject();
  if (!measured.empty()) {
    json.Key("measured");
    json.BeginObject();
    for (const auto& [name, metric] : measured) {
      json.Key(name);
      json.Number(metric.value);
    }
    json.EndObject();
  }
  json.Key("counts");
  json.BeginObject();
  json.Key("cache_hits");
  json.Int(after.cache.hits - before.cache.hits);
  json.Key("cache_misses");
  json.Int(after.cache.misses - before.cache.misses);
  json.Key("cache_evictions");
  json.Int(after.cache.evictions - before.cache.evictions);
  const RegistryCounts d = after.registry - before.registry;
  json.Key("analyses");
  json.Number(d.analyses);
  json.Key("build_rows");
  json.Number(d.build_rows);
  json.Key("morsel_rows");
  json.Number(d.morsel_rows);
  json.EndObject();
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
}

// --------------------------------------------------------- §8 start check

bool CheckSection8() {
  auto db = Database::Open().value();
  joinest::Catalog staged;
  if (!joinest::BuildPaperDataset(staged, joinest::PaperDatasetOptions())
           .ok() ||
      !db->ImportTables(std::move(staged)).ok()) {
    return false;
  }
  const Session session =
      db->CreateSession(
            Session::Options().set_preset(joinest::AlgorithmPreset::kELS))
          .value();
  auto plan = session.Optimize(kSection8Sql);
  if (!plan.ok()) return false;
  // (100, 100, 100) to the twelve significant digits the paper's table
  // and EXPERIMENTS.md print; the last product rounds 1 ulp-ish below.
  const std::vector<double>& estimates = plan->intermediate_estimates();
  bool ok = estimates.size() == 3;
  for (double e : estimates) ok = ok && std::abs(e - 100) <= 1e-10;
  if (!ok) {
    std::fprintf(stderr, "perfbench: §8 ELS estimates are not (100, 100, "
                         "100)\n");
  }
  return ok;
}

// ------------------------------------------------------------- the runs

constexpr double kP99 = 0.99;

// Prints the result line; a run is correct only when every request and
// every check passed.
int Finish(bool checked, int64_t attempted, int64_t failed,
           const MetricMap& metrics) {
  const bool correct = checked && failed == 0;
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int RunUntraced(const Args& args, Workload& w) {
  SpeedLog setup_speed, timed_speed;
  std::vector<double> setups;
  setup_speed.Sample();
  for (int s = 0; s < kSetups; ++s) {
    const Clock::time_point start = Clock::now();
    w.Setup();
    setups.push_back(SecondsSince(start));
    setup_speed.Sample();
  }
  const Counts before = TakeCounts(w.db());
  Limit limit;
  limit.requests = args.requests;
  limit.seconds = args.seconds;
  limit.min_requests = MinSamplesFor(kP99);
  limit.speed = &timed_speed;
  const double cpu_start = ProcessCpuSeconds();
  const Phase phase = RunPhase(w, 0, limit);
  HostRecord host;
  host.cpu_per_wall = (ProcessCpuSeconds() - cpu_start) / phase.seconds;
  host.setup = setup_speed.summary();
  host.timed = timed_speed.summary();
  const Counts after = TakeCounts(w.db());
  const bool checked = w.FinalChecks();

  MetricMap measured;
  measured["setup_s"] = {Median(setups), "s"};
  // Requests over the whole phase, not a median of windows: this host
  // alternates between a fast and a slow state for seconds at a time, and
  // a median of windows jumps between the two where the mean moves with
  // the share of time spent in each. The clients' speed readings are taken
  // out of the phase's time, averaged over the clients.
  const double request_seconds =
      phase.seconds - phase.calib_seconds / w.clients();
  measured["throughput_qps"] = {
      static_cast<double>(phase.attempted) / request_seconds, "1/s"};
  const std::optional<double> p99 = phase.latencies.Percentile(kP99);
  measured["request_p50_us"] = {
      phase.latencies.Percentile(0.5).value_or(0) * 1e6, "us"};
  measured["request_p99_us"] = {p99.value_or(0) * 1e6, "us"};
  PrintRecord(args, w, phase.attempted, before, after, host, measured);

  // Scaled to the reference host speed (SpeedLog): the timed phase's
  // readings stand for the set-ups too, which ran seconds before it.
  const double slowdown = host.timed.mean_ms > 0
                              ? host.timed.mean_ms / kReferenceSpeedMs
                              : 1;
  MetricMap m = measured;
  m["setup_s"].value /= slowdown;
  m["throughput_qps"].value *= slowdown;
  m["request_p50_us"].value /= slowdown;
  m["request_p99_us"].value /= slowdown;
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  const int64_t failed = phase.failed + w.writer_failures() + (checked ? 0 : 1);
  const bool enough = p99.has_value();
  if (!enough) std::fprintf(stderr, "perfbench: too few samples for p99\n");
  return Finish(checked && enough, phase.attempted + w.republishes(), failed,
                m);
}

// Span durations of the benchmark's own spans, by name and request.
struct SpanTable {
  std::map<std::string, std::vector<double>> by_name;
  std::map<std::string, std::unordered_map<int64_t, double>> by_request;

  explicit SpanTable(const std::vector<SpanLog::Event>& events) {
    for (const SpanLog::Event& e : events) {
      const double seconds = static_cast<double>(e.duration_ns) * 1e-9;
      by_name[e.name].push_back(seconds);
      by_request[e.name][e.request] += seconds;
    }
  }
  double MeanUs(const char* name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0 : Mean(it->second) * 1e6;
  }
  double Count(const char* name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0 : static_cast<double>(it->second.size());
  }
  double At(const char* name, int64_t id) const {
    auto it = by_request.find(name);
    if (it == by_request.end()) return 0;
    auto hit = it->second.find(id);
    return hit == it->second.end() ? 0 : hit->second;
  }
};

// Replay inputs kept per traced run; the replay covers as many as its time
// budget allows.
constexpr int64_t kKeptRequests = 4000;

int RunTraced(const Args& args, Workload& w) {
  const std::vector<double> load = w.Setup();
  SpeedLog speed;
  const Clock::time_point start = Clock::now();
  const double cpu_start = ProcessCpuSeconds();

  // Phase A, untraced: the baseline of trace.overhead_frac.
  Limit untraced;
  untraced.requests = args.requests / 2;
  untraced.seconds = args.seconds / 3;
  untraced.speed = &speed;
  const Phase a = RunPhase(w, 0, untraced);

  // Phase B, traced facade calls: counts are deltas around this phase, so
  // they show what the program did, not what the replay repeats.
  SpanLog log;
  log.Activate();
  const Counts before = TakeCounts(w.db());
  Limit traced = untraced;
  traced.keep = kKeptRequests;
  const Phase b = RunPhase(w, a.end_seq, traced);
  const Counts after = TakeCounts(w.db());
  const RegistryCounts reg = after.registry - before.registry;

  // Phase C, replay: each layer's entry point on phase B's inputs.
  int64_t replayed = 0;
  const Clock::time_point replay_start = Clock::now();
  for (const TracedRequest& r : b.traced) {
    if (args.requests == 0 && SecondsSince(replay_start) >= args.seconds / 3) {
      break;
    }
    w.Replay(r);
    ++replayed;
  }
  log.Deactivate();
  HostRecord host;
  host.cpu_per_wall = (ProcessCpuSeconds() - cpu_start) / SecondsSince(start);
  host.timed = speed.summary();
  const bool checked = w.FinalChecks();
  PrintRecord(args, w, a.attempted + b.attempted, before, after, host, {});
  std::fprintf(stderr, "perfbench: traced %lld requests, replayed %lld\n",
               static_cast<long long>(b.attempted),
               static_cast<long long>(replayed));
  if (!args.trace_out.empty() &&
      !joinest::WriteTextFile(args.trace_out, log.ToChromeTraceJson())) {
    return Finish(false, 1, 1, {});
  }

  // Layer time named per request: parse and fingerprint, then what the
  // facade did — a hit is the service layer's own work, a miss is the
  // analyses or the optimization it ran; ExplainAnalyze is optimize +
  // predicate transfer + ExplainAnalyzePlan.
  const SpanTable spans(log.events());
  const bool explains = spans.Count(kExplainSpan) > 0;
  std::vector<double> hit_calls, miss_calls;
  double request_time = 0, named_time = 0;
  for (size_t k = 0; k < b.traced.size(); ++k) {
    const TracedRequest& r = b.traced[k];
    const double est = spans.At(kEstimateSpan, r.id);
    const double opt = spans.At(kOptimizeSpan, r.id);
    if (!explains) {
      (r.estimate_hit ? hit_calls : miss_calls).push_back(est);
      (r.optimize_hit ? hit_calls : miss_calls).push_back(opt);
    }
    if (static_cast<int64_t>(k) >= replayed) continue;
    request_time += spans.At(kRequestSpan, r.id);
    named_time += spans.At(kParseSpan, r.id) +
                  spans.At(kFingerprintSpan, r.id);
    if (explains) {
      named_time += spans.At(kOptimizeDirectSpan, r.id) +
                    spans.At(kPtSpan, r.id) +
                    spans.At(kExplainDirectSpan, r.id);
    } else {
      named_time += r.estimate_hit ? est : spans.At(kAnalyzeSpan, r.id);
      named_time += r.optimize_hit ? opt : spans.At(kOptimizeDirectSpan, r.id);
    }
  }

  std::vector<double> execute, rows_per_count, derived;
  for (const TracedRequest& r : b.traced) {
    execute.push_back(r.execute_seconds);
    rows_per_count.push_back(r.rows_per_count);
    derived.push_back(
        joinest::ComputeTransitiveClosure(r.prepared.spec.predicates)
            .num_derived);
  }
  const double requests_b =
      static_cast<double>(std::max<int64_t>(b.attempted, 1));
  const joinest::ServiceCacheStats& c0 = before.cache;
  const joinest::ServiceCacheStats& c1 = after.cache;
  const auto hits = static_cast<double>(c1.hits - c0.hits);
  const auto misses = static_cast<double>(c1.misses - c0.misses);
  const double republishes = spans.Count(kRepublishSpan);
  const auto* skew = dynamic_cast<const ExplainSkew*>(&w);

  MetricMap m;
  m["query.parse_us"] = {spans.MeanUs(kParseSpan), "us"};
  m["service.fingerprint_us"] = {spans.MeanUs(kFingerprintSpan), "us"};
  m["service.hit_us"] = {Mean(hit_calls) * 1e6, "us"};
  m["service.miss_us"] = {Mean(miss_calls) * 1e6, "us"};
  m["service.hit_ratio"] = {hits + misses > 0 ? hits / (hits + misses) : 0,
                            "ratio"};
  m["service.invalidated_per_republish"] = {
      republishes > 0
          ? static_cast<double>(c1.invalidated - c0.invalidated) / republishes
          : 0,
      "count"};
  m["service.evictions_per_request"] = {
      static_cast<double>(c1.evictions - c0.evictions) / requests_b, "count"};
  m["rewrite.closure_us"] = {spans.MeanUs(kClosureSpan), "us"};
  m["rewrite.derived_per_query"] = {Mean(derived), "count"};
  m["estimator.analyze_us"] = {spans.MeanUs(kAnalyzeSpan), "us"};
  m["estimator.analyses_per_request"] = {reg.analyses / requests_b, "count"};
  m["estimator.qerror_p95"] = {Percentile(w.qerrors(), 0.95).value_or(0),
                               "ratio"};
  m["optimizer.optimize_us"] = {spans.MeanUs(kOptimizeDirectSpan), "us"};
  m["pt.reduce_us"] = {spans.MeanUs(kPtSpan), "us"};
  m["pt.pruned_frac"] = {skew != nullptr ? Mean(skew->pruned()) : 0, "ratio"};
  m["executor.execute_us"] = {Mean(execute) * 1e6, "us"};
  m["executor.rows_per_count"] = {Mean(rows_per_count), "ratio"};
  m["executor.build_rows"] = {reg.build_rows / requests_b, "count"};
  m["executor.truth_us"] = {spans.MeanUs(kTruthSpan), "us"};
  m["executor.truth_probe_rows"] = {reg.morsel_rows / requests_b, "count"};
  m["obs.explain_self_us"] = {
      skew != nullptr ? Mean(skew->explain_self()) * 1e6 : 0, "us"};
  m["obs.recorder_records"] = {reg.recorded / requests_b, "count"};
  m["storage.load_ms"] = {Mean(load) * 1e3, "ms"};
  m["storage.analyze_ms"] = {spans.MeanUs(kRepublishSpan) / 1e3, "ms"};
  const double tasks = reg.pool_inline + reg.pool_worker;
  m["pool.inline_frac"] = {tasks > 0 ? reg.pool_inline / tasks : 0, "ratio"};
  m["pool.steals_per_request"] = {reg.steals / requests_b, "count"};
  const double mean_a = a.latencies.mean();
  m["trace.overhead_frac"] = {
      mean_a > 0 ? b.latencies.mean() / mean_a - 1 : 0, "ratio"};
  m["trace.unaccounted_frac"] = {
      request_time > 0 ? 1 - named_time / request_time : 0, "ratio"};
  m["trace.request_us"] = {spans.MeanUs(kRequestSpan), "us"};

  const int64_t attempted = a.attempted + b.attempted + w.republishes();
  const int64_t failed =
      a.failed + b.failed + w.writer_failures() + (checked ? 0 : 1);
  return Finish(checked, attempted, failed, m);
}

// ------------------------------------------------------------ self test

int RunSelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(Percentile(v, 0.99) == 990.0, "p99 of 1..1000 is 990");
  expect(Percentile(v, 0.5) == 500.0, "p50 of 1..1000 is 500");
  v.pop_back();
  expect(!Percentile(v, 0.99).has_value(),
         "p99 of 999 samples has only 9 beyond it");
  expect(MinSamplesFor(0.99) == 1000, "p99 needs 1000 samples");
  expect(MinSamplesFor(0.95) == 200, "p95 needs 200 samples");
  expect(Median({3, 1, 2}) == 2, "median of three");
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(i * 1e-6);
  const double h99 = h.Percentile(0.99).value_or(0);
  expect(std::abs(h99 - 990e-6) <= 990e-6 * 0.002,
         "histogram p99 within a bucket of the exact value");
  LatencyHistogram few;
  for (int i = 1; i <= 999; ++i) few.Add(i * 1e-6);
  expect(!few.Percentile(0.99).has_value(),
         "histogram p99 of 999 samples has only 9 beyond it");
  const std::string text =
      "# TYPE pool_tasks_total counter\n"
      "pool_tasks_total{source=\"inline\"} 5\n"
      "pool_tasks_total{source=\"worker\"} 7\n"
      "pool_tasks_total_other 100\n";
  expect(ScrapeSum(text, "pool_tasks_total") == 12, "scrape sums a family");
  expect(ScrapeSum(text, "pool_tasks_total", "source=\"inline\"") == 5,
         "scrape filters by label");
  int same = 0, differ = 0;
  for (int64_t i = 0; i < 64; ++i) {
    same += PlanQuerySql(7, Stream::kTimed, i) ==
            PlanQuerySql(7, Stream::kTimed, i);
    differ += PlanQuerySql(7, Stream::kTimed, i) !=
              PlanQuerySql(8, Stream::kTimed, i);
    differ += SkewQuerySql(7, Stream::kTimed, i) !=
              SkewQuerySql(8, Stream::kTimed, i);
  }
  expect(same == 64, "a seed gives the same request list");
  expect(differ >= 100, "another seed gives another request list");
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) return 2;
  if (args.selftest) return RunSelfTest();
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  // Pin the shared pool before anything sizes it.
  setenv("JOINEST_THREADS", std::to_string(kPoolThreads).c_str(), 1);
  if (!CheckSection8()) return Finish(false, 1, 1, {});
  return args.trace ? RunTraced(args, *workload) : RunUntraced(args, *workload);
}
