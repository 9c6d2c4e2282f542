#include "obs/explain_analyze.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/table_printer.h"
#include "estimator/presets.h"
#include "executor/execute.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"

namespace joinest {

namespace {

std::string Milliseconds(double seconds) {
  std::ostringstream oss;
  oss << FormatNumber(seconds * 1e3) << " ms";
  return oss.str();
}

// Label for one plan node, mirroring PlanToString's vocabulary.
std::string NodeLabel(const PlanNode& node, const Catalog& catalog,
                      const QuerySpec& spec) {
  std::ostringstream oss;
  if (node.kind == PlanNode::Kind::kScan) {
    oss << "Scan " << spec.tables[node.table_index].alias;
    if (!node.filter.empty()) {
      oss << " (";
      for (size_t i = 0; i < node.filter.size(); ++i) {
        if (i > 0) oss << " AND ";
        oss << spec.PredicateToString(catalog, node.filter[i]);
      }
      oss << ")";
    }
  } else {
    oss << JoinMethodName(node.method) << "Join on ";
    for (size_t i = 0; i < node.join_predicates.size(); ++i) {
      if (i > 0) oss << " AND ";
      oss << spec.PredicateToString(catalog, node.join_predicates[i]);
    }
  }
  return oss.str();
}

void AppendOperatorRows(const PlanNode& node, const Catalog& catalog,
                        const QuerySpec& spec, int depth,
                        const std::map<const PlanNode*, const OperatorStats*>&
                            stats_of,
                        std::vector<ExplainAnalyzeReport::OperatorRow>& out) {
  ExplainAnalyzeReport::OperatorRow row;
  row.label = NodeLabel(node, catalog, spec);
  row.depth = depth;
  row.has_estimate = true;
  row.estimated_rows = node.estimated_rows;
  const auto it = stats_of.find(&node);
  if (it != stats_of.end()) {
    row.has_actual = true;
    row.actual_rows = it->second->rows;
    row.inclusive_seconds = it->second->seconds;
    row.self_seconds = it->second->self_seconds;
    row.batches = it->second->batches;
    row.batch_rows = it->second->batch_rows;
  }
  out.push_back(std::move(row));
  if (node.left != nullptr) {
    AppendOperatorRows(*node.left, catalog, spec, depth + 1, stats_of, out);
  }
  if (node.right != nullptr) {
    AppendOperatorRows(*node.right, catalog, spec, depth + 1, stats_of, out);
  }
}

// The q-error histograms of the paper's rules. The registry's name lookup
// takes a mutex, so the handles are looked up once.
struct QErrorHistograms {
  HistogramMetric& ls;
  HistogramMetric& m;
  HistogramMetric& ss;
};

const QErrorHistograms& RuleQErrors() {
  auto get = [](const char* rule) -> HistogramMetric& {
    return MetricsRegistry::Global().GetHistogram(
        "estimator_qerror", "EXPLAIN ANALYZE q-error per join level",
        HistogramBuckets::QError(), {{"rule", rule}});
  };
  static const QErrorHistograms histograms{get("LS"), get("M"), get("SS")};
  return histograms;
}

}  // namespace

double QErrorValue(double estimated, double actual) {
  const double est = std::max(estimated, 1.0);
  const double act = std::max(actual, 1.0);
  return std::max(est / act, act / est);
}

StatusOr<ExplainAnalyzeReport> ExplainAnalyzePlan(
    const Catalog& catalog, const QuerySpec& spec, const PlanNode& plan,
    const ExplainAnalyzeOptions& options) {
  // The per-call session records this thread's spans only, so concurrent
  // calls never adopt, collide on or free one another's session.
  std::unique_ptr<TraceSession> session;
  std::optional<ThreadTraceScope> scope;
  if (options.capture_trace) {
    session = std::make_unique<TraceSession>();
    scope.emplace(session.get());
  }

  ExplainAnalyzeReport report;
  report.rule = SelectivityRuleName(options.estimation.rule);
  {
    Span span("explain_analyze");

    // Per-rule estimates along the plan's leaf order. The leaf order reads a
    // left-deep plan bottom-up; for a bushy plan it is the comparable
    // left-deep linearisation.
    const std::vector<int> order = PlanLeafOrder(plan);
    std::vector<int64_t> actual;
    if (options.with_true_cardinalities && order.size() >= 2) {
      // Entry 0 of each rule's sizes is order[0] alone; level i reads
      // entry i.
      JOINEST_ASSIGN_OR_RETURN(
          const AnalyzedQuery els,
          AnalyzedQuery::Create(catalog, spec,
                                PresetOptions(AlgorithmPreset::kELS)));
      JOINEST_ASSIGN_OR_RETURN(const PaperRuleEstimates rules,
                               EstimatePaperRules(catalog, spec, order, &els));
      {
        Span truth_span("explain_analyze::true_prefix_sizes", "levels",
                        static_cast<int64_t>(order.size()) - 1);
        // Count each level over the predicates the plan could join on:
        // with closure on, a prefix joined through an implied predicate is
        // a join, not the cartesian product of the raw spec's prefix. The
        // ELS analysis above already closed the spec's predicates.
        QuerySpec truth_spec = spec;
        if (options.estimation.transitive_closure) {
          truth_spec.predicates = els.predicates();
        }
        JOINEST_ASSIGN_OR_RETURN(actual,
                                 TruePrefixSizes(catalog, truth_spec, order));
      }
      JOINEST_CHECK_EQ(actual.size(), order.size() - 1);
      JOINEST_CHECK_EQ(rules.ls.size(), order.size());

      const QErrorHistograms& qerrors = RuleQErrors();
      std::string prefix = spec.tables[order[0]].alias;
      for (size_t i = 0; i < actual.size(); ++i) {
        prefix += " x " + spec.tables[order[i + 1]].alias;
        ExplainAnalyzeReport::JoinLevel level;
        level.level = static_cast<int>(i) + 1;
        level.prefix = prefix;
        level.actual = actual[i];
        level.est_ls = rules.ls[i + 1];
        level.est_m = rules.m[i + 1];
        level.est_ss = rules.ss[i + 1];
        const double act = static_cast<double>(actual[i]);
        level.q_ls = QErrorValue(level.est_ls, act);
        level.q_m = QErrorValue(level.est_m, act);
        level.q_ss = QErrorValue(level.est_ss, act);
        qerrors.ls.Observe(level.q_ls);
        qerrors.m.Observe(level.q_m);
        qerrors.ss.Observe(level.q_ss);
        report.join_levels.push_back(std::move(level));
      }
    }

    // Execute the plan with per-node statistics, honouring any predicate-
    // transfer scan selections (the ground truth above stays unfiltered).
    JOINEST_ASSIGN_OR_RETURN(
        ExecutionResult result,
        ExecutePlan(catalog, spec, plan, options.scan_selections));
    report.count = result.count;
    report.seconds = result.seconds;
    report.operators_total = static_cast<int64_t>(result.operators.size());
    report.predicate_transfer = options.predicate_transfer;

    std::map<const PlanNode*, const OperatorStats*> stats_of;
    for (const ExecutionResult::PlanNodeStats& entry : result.node_stats) {
      stats_of[entry.node] = &entry.stats;
    }
    // The aggregation/projection top operator (when present) is the last
    // registry entry and not a plan node; report it at depth 0 with the
    // query's output estimate (one row for COUNT(*)).
    const bool has_top = spec.count_star || !spec.select.empty();
    if (has_top && !result.operators.empty()) {
      const OperatorStats& top = result.operators.back();
      ExplainAnalyzeReport::OperatorRow row;
      row.label = top.name;
      row.depth = 0;
      row.has_estimate = spec.count_star && spec.group_by.empty();
      row.estimated_rows = 1;
      row.has_actual = true;
      row.actual_rows = top.rows;
      row.inclusive_seconds = top.seconds;
      row.self_seconds = top.self_seconds;
      row.batches = top.batches;
      row.batch_rows = top.batch_rows;
      report.operators.push_back(std::move(row));
    }
    AppendOperatorRows(plan, catalog, spec, has_top ? 1 : 0, stats_of,
                       report.operators);
  }  // Close the explain_analyze span before snapshotting the trace.

  if (session != nullptr) {
    const std::vector<TraceSession::Event> events = session->Snapshot();
    report.trace_events = static_cast<int64_t>(events.size());
    report.trace_dropped = session->dropped();
    std::map<std::string, ExplainAnalyzeReport::SpanSummary> by_name;
    for (const TraceSession::Event& event : events) {
      ExplainAnalyzeReport::SpanSummary& summary = by_name[event.name];
      summary.name = event.name;
      summary.count += 1;
      summary.total_seconds += static_cast<double>(event.duration_ns) * 1e-9;
    }
    for (auto& [name, summary] : by_name) {
      report.spans.push_back(std::move(summary));
    }
    std::sort(report.spans.begin(), report.spans.end(),
              [](const ExplainAnalyzeReport::SpanSummary& a,
                 const ExplainAnalyzeReport::SpanSummary& b) {
                return a.total_seconds > b.total_seconds;
              });
    report.trace_json = session->ToChromeTraceJson();
  }
  return report;
}

StatusOr<ExplainAnalyzeReport> ExplainAnalyzeQuery(
    const Catalog& catalog, const QuerySpec& spec,
    const ExplainAnalyzeOptions& options) {
  OptimizerOptions optimizer_options;
  optimizer_options.estimation = options.estimation;
  JOINEST_ASSIGN_OR_RETURN(OptimizedPlan plan,
                           OptimizeQuery(catalog, spec, optimizer_options));
  return ExplainAnalyzePlan(catalog, spec, *plan.root, options);
}

std::string ExplainAnalyzeReport::FormatText() const {
  std::ostringstream oss;
  oss << "EXPLAIN ANALYZE (rule " << rule << ")\n";

  TablePrinter operators_table(
      {"operator", "est rows", "act rows", "incl", "self", "batches",
       "fill"});
  for (const OperatorRow& row : operators) {
    const double fill =
        row.batches > 0
            ? static_cast<double>(row.batch_rows) /
                  (static_cast<double>(row.batches) * kDefaultBatchRows)
            : 0.0;
    operators_table.AddRow(
        {std::string(static_cast<size_t>(row.depth) * 2, ' ') + row.label,
         row.has_estimate ? FormatNumber(row.estimated_rows) : "-",
         row.has_actual ? FormatNumber(static_cast<double>(row.actual_rows))
                        : "-",
         row.has_actual ? Milliseconds(row.inclusive_seconds) : "-",
         row.has_actual ? Milliseconds(row.self_seconds) : "-",
         row.has_actual ? FormatNumber(static_cast<double>(row.batches)) : "-",
         row.batches > 0 ? FormatNumber(fill * 100.0) + "%" : "-"});
  }
  operators_table.Print(oss);

  if (!join_levels.empty()) {
    oss << "\nJoin levels (q-error = max(est/act, act/est)):\n";
    TablePrinter levels(
        {"#", "prefix", "actual", "LS est", "LS q", "M est", "M q", "SS est",
         "SS q"});
    for (const JoinLevel& level : join_levels) {
      levels.AddRow({FormatNumber(level.level), level.prefix,
                     FormatNumber(static_cast<double>(level.actual)),
                     FormatNumber(level.est_ls), FormatNumber(level.q_ls),
                     FormatNumber(level.est_m), FormatNumber(level.q_m),
                     FormatNumber(level.est_ss), FormatNumber(level.q_ss)});
    }
    levels.Print(oss);
  }

  if (!predicate_transfer.empty()) {
    oss << "\nPredicate transfer (runtime selectivities):\n";
    TablePrinter pt_table(
        {"pass", "table.column", "probed", "passed", "pass rate"});
    for (const PtFilterRow& row : predicate_transfer) {
      pt_table.AddRow({row.forward ? "fwd" : "bwd",
                       row.table + "." + row.column,
                       FormatNumber(static_cast<double>(row.probed)),
                       FormatNumber(static_cast<double>(row.passed)),
                       FormatNumber(row.pass_rate * 100.0) + "%"});
    }
    pt_table.Print(oss);
  }

  if (!spans.empty()) {
    oss << "\nSpans:\n";
    TablePrinter span_table({"span", "count", "total"});
    for (const SpanSummary& summary : spans) {
      span_table.AddRow({summary.name, FormatNumber(
                                           static_cast<double>(summary.count)),
                         Milliseconds(summary.total_seconds)});
    }
    span_table.Print(oss);
  }

  oss << "\nCOUNT(*) = " << count << "; executed in "
      << Milliseconds(seconds) << "; trace: " << trace_events << " events ("
      << trace_dropped << " dropped)\n";
  return oss.str();
}

void ExplainAnalyzeReport::WriteJson(JsonWriter& json) const {
  json.BeginObject();
  json.Key("explain_analyze");
  json.BeginObject();
  json.Key("rule");
  json.String(rule);
  json.Key("count");
  json.Int(count);
  json.Key("seconds");
  json.Number(seconds);
  json.Key("operators");
  json.BeginArray();
  for (const OperatorRow& row : operators) {
    json.BeginObject();
    json.Key("label");
    json.String(row.label);
    json.Key("depth");
    json.Int(row.depth);
    if (row.has_estimate) {
      json.Key("estimated_rows");
      json.Number(row.estimated_rows);
    }
    if (row.has_actual) {
      json.Key("actual_rows");
      json.Int(row.actual_rows);
      json.Key("inclusive_seconds");
      json.Number(row.inclusive_seconds);
      json.Key("self_seconds");
      json.Number(row.self_seconds);
      json.Key("batches");
      json.Int(row.batches);
      json.Key("batch_rows");
      json.Int(row.batch_rows);
    }
    json.EndObject();
  }
  json.EndArray();
  json.Key("join_levels");
  json.BeginArray();
  for (const JoinLevel& level : join_levels) {
    json.BeginObject();
    json.Key("level");
    json.Int(level.level);
    json.Key("prefix");
    json.String(level.prefix);
    json.Key("actual");
    json.Int(level.actual);
    json.Key("estimates");
    json.BeginObject();
    json.Key("LS");
    json.Number(level.est_ls);
    json.Key("M");
    json.Number(level.est_m);
    json.Key("SS");
    json.Number(level.est_ss);
    json.EndObject();
    json.Key("qerrors");
    json.BeginObject();
    json.Key("LS");
    json.Number(level.q_ls);
    json.Key("M");
    json.Number(level.q_m);
    json.Key("SS");
    json.Number(level.q_ss);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.Key("predicate_transfer");
  json.BeginArray();
  for (const PtFilterRow& row : predicate_transfer) {
    json.BeginObject();
    json.Key("table");
    json.String(row.table);
    json.Key("column");
    json.String(row.column);
    json.Key("pass");
    json.String(row.forward ? "forward" : "backward");
    json.Key("probed");
    json.Int(row.probed);
    json.Key("passed");
    json.Int(row.passed);
    json.Key("pass_rate");
    json.Number(row.pass_rate);
    json.EndObject();
  }
  json.EndArray();
  json.Key("spans");
  json.BeginArray();
  for (const SpanSummary& summary : spans) {
    json.BeginObject();
    json.Key("name");
    json.String(summary.name);
    json.Key("count");
    json.Int(summary.count);
    json.Key("total_seconds");
    json.Number(summary.total_seconds);
    json.EndObject();
  }
  json.EndArray();
  json.Key("trace_events");
  json.Int(trace_events);
  json.Key("trace_dropped");
  json.Int(trace_dropped);
  json.EndObject();
  json.EndObject();
}

std::string ExplainAnalyzeReport::ToJson() const {
  JsonWriter json;
  WriteJson(json);
  return json.str();
}

}  // namespace joinest
