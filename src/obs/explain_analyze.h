// EXPLAIN ANALYZE: run a plan and report estimated vs. actual cardinalities,
// per-rule (LS/M/SS) estimates with q-errors per join level, and span
// timings, in one structured report.
//
// The report joins three sources:
//   * the optimizer's annotations (PlanNode::estimated_rows),
//   * the executor's per-operator statistics (rows, inclusive/self time,
//     batch fill), matched to plan nodes via ExecutionResult::node_stats,
//   * ground truth from the factorized count (TruePrefixSizes) over the
//     predicates the plan joined on — the closed set when
//     options.estimation.transitive_closure is on — which prices each join
//     level's estimate with the paper's error measure
//     q = max(est/act, act/est).
//
// Each join level is estimated under Rule LS (Algorithm ELS), Rule M
// (Selinger) and Rule SS, so one report reproduces the paper's comparison
// on a live query. The q-errors are also observed into the metrics
// registry's `estimator_qerror{rule=...}` histograms, accumulating a
// workload-level error distribution across calls.
//
// Unless a TraceSession is already active, ExplainAnalyze activates its own
// for the duration of the run; the report carries a per-span-name timing
// summary plus the full Chrome trace-event JSON (validate or load it with
// tools/check_trace.py / chrome://tracing).

#ifndef JOINEST_OBS_EXPLAIN_ANALYZE_H_
#define JOINEST_OBS_EXPLAIN_ANALYZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/status.h"
#include "estimator/analyzed_query.h"
#include "executor/plan.h"
#include "executor/scan_ops.h"
#include "query/query_spec.h"
#include "storage/catalog.h"

namespace joinest {

// One executed predicate-transfer probe, as plain data (the service layer
// copies these out of PtResult so obs does not depend on src/pt/).
struct PtFilterRow {
  std::string table;
  std::string column;
  bool forward = true;
  int64_t probed = 0;
  int64_t passed = 0;
  double pass_rate = 1.0;
};

struct ExplainAnalyzeOptions {
  // Estimation configuration the plan was (or will be) optimized under;
  // reported as the headline rule. Defaults to Algorithm ELS's settings.
  EstimationOptions estimation;
  // Run the counting sub-queries that provide the true cardinality of every
  // join prefix. Off, the join-level table (and its q-errors) is skipped —
  // only the executed plan's own actual row counts remain.
  bool with_true_cardinalities = true;
  // Capture a trace of the full run (estimation + execution + ground
  // truth). When a session is already active, it is reused and left active.
  bool capture_trace = true;
  // Predicate-transfer row-id selections the plan's scans are restricted
  // to, and the probe statistics to report. The ground-truth counting
  // (TruePrefixSizes) deliberately ignores the selections — true
  // cardinalities stay unfiltered so q-errors price the estimates, not the
  // reduction. Must outlive the call.
  const ScanSelections* scan_selections = nullptr;
  std::vector<PtFilterRow> predicate_transfer;
};

struct ExplainAnalyzeReport {
  // Rule the headline estimates (plan annotations) were computed under.
  std::string rule;
  int64_t count = 0;        // The query's COUNT(*) (or row count).
  double seconds = 0;       // Wall-clock of the plan execution alone.

  // One row per executed operator, pre-order over the plan tree (plus the
  // final aggregation/projection operator at depth 0). `estimated_rows` is
  // meaningful only when `has_estimate`; an index-nested-loop join absorbs
  // its inner scan, which then reports no actuals (`has_actual` false).
  struct OperatorRow {
    std::string label;
    int depth = 0;
    bool has_estimate = false;
    double estimated_rows = 0;
    bool has_actual = false;
    int64_t actual_rows = 0;
    double inclusive_seconds = 0;
    double self_seconds = 0;
    int64_t batches = 0;
    int64_t batch_rows = 0;
  };
  std::vector<OperatorRow> operators;

  // One row per join level along the plan's leaf order: level k covers the
  // first k+1 tables. Estimates and q-errors under each of the paper's
  // rules; `actual` is the exact prefix-join size.
  struct JoinLevel {
    int level = 0;
    std::string prefix;     // "S x M x B"
    int64_t actual = 0;
    double est_ls = 0, est_m = 0, est_ss = 0;
    double q_ls = 0, q_m = 0, q_ss = 0;
  };
  std::vector<JoinLevel> join_levels;

  // Predicate-transfer probes that ran before the plan (runtime
  // selectivities observed by the reduction). Empty when transfer was off.
  std::vector<PtFilterRow> predicate_transfer;

  // Per-span-name aggregation over the captured trace.
  struct SpanSummary {
    std::string name;
    int64_t count = 0;
    double total_seconds = 0;
  };
  std::vector<SpanSummary> spans;

  int64_t trace_events = 0;
  int64_t trace_dropped = 0;
  // Chrome trace-event JSON of the run; empty when tracing was off or an
  // external session was active (the caller owns that one).
  std::string trace_json;

  // Human-readable rendering: operator tree, join-level table, span table.
  std::string FormatText() const;

  // Machine-readable rendering (everything but trace_json, which callers
  // write to a separate file — it is itself a JSON document).
  void WriteJson(JsonWriter& json) const;
  std::string ToJson() const;
};

// The paper's error measure: max(est/act, act/est), both sides clamped to
// one row so empty results stay finite.
double QErrorValue(double estimated, double actual);

// Runs `plan` and assembles the report. The plan's estimated_rows
// annotations are reported as-is (pass a plan produced under
// options.estimation for a consistent headline rule).
StatusOr<ExplainAnalyzeReport> ExplainAnalyzePlan(
    const Catalog& catalog, const QuerySpec& spec, const PlanNode& plan,
    const ExplainAnalyzeOptions& options = {});

// Convenience: optimize `spec` under options.estimation (Selinger DP), then
// ExplainAnalyzePlan the chosen plan.
StatusOr<ExplainAnalyzeReport> ExplainAnalyzeQuery(
    const Catalog& catalog, const QuerySpec& spec,
    const ExplainAnalyzeOptions& options = {});

}  // namespace joinest

#endif  // JOINEST_OBS_EXPLAIN_ANALYZE_H_
