#include "estimator/analyzed_query.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "common/check.h"
#include "common/logging.h"
#include "common/table_printer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/distinct.h"

namespace joinest {

const char* SelectivityRuleName(SelectivityRule rule) {
  switch (rule) {
    case SelectivityRule::kMultiplicative:
      return "M";
    case SelectivityRule::kSmallest:
      return "SS";
    case SelectivityRule::kLargest:
      return "LS";
    case SelectivityRule::kRepresentative:
      return "REP";
  }
  return "?";
}

StatusOr<AnalyzedQuery> AnalyzedQuery::Create(
    const Catalog& catalog, const QuerySpec& spec,
    const EstimationOptions& options, const AnalyzedQuery* closure_source) {
  JOINEST_RETURN_IF_ERROR(spec.Validate(catalog));
  if (spec.num_tables() > 64) {
    return InvalidArgument("at most 64 tables supported (bitmask width)");
  }
  AnalyzedQuery query;
  query.catalog_ = &catalog;
  query.spec_ = spec;
  query.options_ = options;
  Span analyze_span("estimator::analyze", "tables",
                    static_cast<int64_t>(spec.num_tables()));
  MetricsRegistry::Global()
      .GetCounter("estimator_queries_total", "Queries analysed for estimation",
                  {{"rule", SelectivityRuleName(options.rule)}})
      .Increment();

  // Steps 1-2: deduplicate + transitive closure (or just deduplicate when
  // PTC is disabled), unless closure_source ran them under the same switch.
  if (closure_source != nullptr &&
      closure_source->options_.transitive_closure ==
          options.transitive_closure) {
    JOINEST_DCHECK(closure_source->spec_.predicates == spec.predicates)
        << "closure source analyses another query";
    query.closure_ = closure_source->closure_;
  } else {
    Span span("estimator::transitive_closure");
    ClosureOptions closure_options;
    closure_options.enabled = options.transitive_closure;
    query.closure_ = std::make_shared<const ClosureResult>(
        ComputeTransitiveClosure(spec.predicates, closure_options));
    span.SetArg("closed_predicates",
                static_cast<int64_t>(query.closure_->predicates.size()));
  }
  const std::vector<Predicate>& predicates = query.predicates();
  const EquivalenceClasses& classes = query.classes();

  // Steps 3-4: per-table effective statistics (local-predicate merge +
  // urn-model effective cardinalities inside BuildTableProfile).
  {
    Span span("estimator::table_profiles", "tables",
              static_cast<int64_t>(spec.num_tables()));
    query.profiles_.reserve(spec.num_tables());
    for (int t = 0; t < spec.num_tables(); ++t) {
      query.profiles_.push_back(BuildTableProfile(
          catalog, spec, t, predicates, classes, options.profile));
    }
  }

  // EXTENSION: refine the statistics-only profiles with observed runtime
  // selectivities (predicate-transfer pass rates). Both refinements target
  // the same quantities the urn model estimates — rows that can reach the
  // joins and distincts that have join partners — so the downstream
  // S_J = 1/max(d', d') machinery runs unchanged.
  if (options.runtime_selectivities != nullptr) {
    const RuntimeSelectivityStore& store = *options.runtime_selectivities;
    Span runtime_span("estimator::runtime_selectivities");
    int applied = 0;
    for (int t = 0; t < spec.num_tables(); ++t) {
      const std::string& name =
          catalog.table_name(spec.tables[t].catalog_id);
      TableProfile& profile = query.profiles_[static_cast<size_t>(t)];
      if (const auto survival = store.TableSurvival(name)) {
        profile.effective_rows *= *survival;
        ++applied;
      }
      for (size_t c = 0; c < profile.join_distinct.size(); ++c) {
        const auto rate = store.ColumnPassRate(name, static_cast<int>(c));
        if (!rate) continue;
        profile.join_distinct[c] =
            std::max(1.0, profile.join_distinct[c] * *rate);
        ++applied;
      }
    }
    runtime_span.SetArg("applied", static_cast<int64_t>(applied));
  }

  // Step 5 (+ the §3.3 strawman's per-class constant): one edge per closed
  // join predicate carrying its S_J, so step 6 never recomputes one; the
  // per-class representative; and each table's edges.
  Span span("estimator::join_selectivities");
  query.representative_selectivity_.assign(classes.num_classes(), 1.0);
  std::vector<bool> has_any(classes.num_classes(), false);
  query.table_edges_.resize(static_cast<size_t>(spec.num_tables()));
  for (const Predicate& p : predicates) {
    if (p.kind != Predicate::Kind::kJoin) continue;
    const int cls = classes.ClassOf(p.left);
    JOINEST_CHECK_GE(cls, 0);
    const double sel = query.JoinSelectivity(p);
    query.edges_.push_back(JoinEdge{sel, cls,
                                    static_cast<uint8_t>(p.left.table),
                                    static_cast<uint8_t>(p.right.table)});
    query.table_edges_[p.left.table].neighbors |= uint64_t{1}
                                                  << p.right.table;
    query.table_edges_[p.right.table].neighbors |= uint64_t{1}
                                                   << p.left.table;
    ++query.table_edges_[p.left.table].end;
    ++query.table_edges_[p.right.table].end;
    double& rep = query.representative_selectivity_[cls];
    if (!has_any[cls]) {
      rep = sel;
      has_any[cls] = true;
    } else if (options.representative == RepresentativePick::kLargest) {
      rep = std::max(rep, sel);
    } else {
      rep = std::min(rep, sel);
    }
  }
  // Each table's edges, in edges_ order: `end` counted them above, and
  // becomes the running fill position.
  uint32_t offset = 0;
  for (TableEdges& table : query.table_edges_) {
    table.begin = offset;
    offset += table.end;
    table.end = table.begin;
  }
  query.incident_.resize(offset);
  for (uint32_t e = 0; e < query.edges_.size(); ++e) {
    const JoinEdge& edge = query.edges_[e];
    query.incident_[query.table_edges_[edge.left_table].end++] = e;
    query.incident_[query.table_edges_[edge.right_table].end++] = e;
  }
  return query;
}

const TableProfile& AnalyzedQuery::profile(int table_index) const {
  JOINEST_CHECK_GE(table_index, 0);
  JOINEST_CHECK_LT(table_index, static_cast<int>(profiles_.size()));
  return profiles_[table_index];
}

double AnalyzedQuery::JoinSelectivity(const Predicate& predicate) const {
  JOINEST_CHECK(predicate.kind == Predicate::Kind::kJoin);
  if (options_.histogram_join_selectivity) {
    // Slices a column's histogram down to its merged local restriction, so
    // the overlap computation is conditioned on the predicates that already
    // shrank the column (rule e propagates a constant predicate to every
    // class member, so both sides are typically restricted to the SAME
    // region — treating them as independent would double-penalise).
    // Equality restrictions are left to the classic path (d' = 1 handles
    // them exactly).
    auto sliced = [this](ColumnRef ref) -> std::shared_ptr<const Histogram> {
      const ColumnStats& stats =
          catalog_->stats(spec_.tables[ref.table].catalog_id)
              .column(ref.column);
      if (stats.histogram == nullptr) return nullptr;
      const ColumnRestriction& restriction =
          profile(ref.table).restrictions[ref.column];
      if (restriction.contradictory || restriction.equals.has_value()) {
        return nullptr;
      }
      if (restriction.IsUnrestricted() ||
          (!restriction.lower.has_value() && !restriction.upper.has_value())) {
        return stats.histogram;
      }
      const double lo = restriction.lower.has_value()
                            ? restriction.lower->ToNumeric()
                            : -HUGE_VAL;
      const double hi = restriction.upper.has_value()
                            ? restriction.upper->ToNumeric()
                            : HUGE_VAL;
      return std::make_shared<Histogram>(stats.histogram->Slice(lo, hi));
    };
    const std::shared_ptr<const Histogram> lh = sliced(predicate.left);
    const std::shared_ptr<const Histogram> rh = sliced(predicate.right);
    if (lh != nullptr && rh != nullptr) {
      const double sel = HistogramJoinSelectivity(*lh, *rh);
      JOINEST_CHECK_SELECTIVITY(sel) << "histogram join selectivity";
      return sel;
    }
  }
  const TableProfile& left = profile(predicate.left.table);
  const TableProfile& right = profile(predicate.right.table);
  const double dl = std::max(left.join_distinct[predicate.left.column], 1.0);
  const double dr =
      std::max(right.join_distinct[predicate.right.column], 1.0);
  // Equation 2: S_J = 1/max(d1', d2') — positive and at most 1 because both
  // effective cardinalities are at least 1.
  const double sel = 1.0 / std::max(dl, dr);
  JOINEST_CHECK_SELECTIVITY(sel) << "S_J = 1/max(" << dl << ", " << dr << ")";
  JOINEST_DCHECK_GT(sel, 0.0);
  return sel;
}

std::optional<double> AnalyzedQuery::FeedbackCardinality(
    uint64_t mask) const {
  const EstimationOptions::FeedbackOptions& feedback = options_.feedback;
  if (!feedback.enabled() || feedback.store->empty()) return std::nullopt;
  if (std::popcount(mask) < feedback.min_tables) return std::nullopt;
  return feedback.store->Lookup(
      feedback.fingerprint(*catalog_, spec_, predicates(), mask));
}

double AnalyzedQuery::BaseCardinality(int table_index) const {
  if (const std::optional<double> observed =
          FeedbackCardinality(uint64_t{1} << table_index)) {
    JOINEST_CHECK_CARDINALITY(*observed)
        << "observed cardinality of table " << table_index;
    return *observed;
  }
  const double rows = profile(table_index).effective_rows;
  JOINEST_CHECK_CARDINALITY(rows) << "base cardinality of table "
                                  << table_index;
  return rows;
}

std::vector<Predicate> AnalyzedQuery::EligiblePredicatesBetween(
    uint64_t left_mask, uint64_t right_mask) const {
  JOINEST_CHECK_EQ(left_mask & right_mask, 0u) << "composites overlap";
  std::vector<Predicate> eligible;
  for (const Predicate& p : predicates()) {
    if (p.kind != Predicate::Kind::kJoin) continue;
    const uint64_t lbit = uint64_t{1} << p.left.table;
    const uint64_t rbit = uint64_t{1} << p.right.table;
    if (((left_mask & lbit) && (right_mask & rbit)) ||
        ((left_mask & rbit) && (right_mask & lbit))) {
      eligible.push_back(p);
    }
  }
  return eligible;
}

std::vector<Predicate> AnalyzedQuery::EligiblePredicates(
    uint64_t mask, int next_table) const {
  return EligiblePredicatesBetween(mask, uint64_t{1} << next_table);
}

template <typename Fn>
void AnalyzedQuery::ForEachCrossingEdge(uint64_t left_mask,
                                        uint64_t right_mask, Fn&& fn) const {
  uint64_t single = right_mask;
  uint64_t other = left_mask;
  if ((single & (single - 1)) != 0) std::swap(single, other);
  if (single != 0 && (single & (single - 1)) == 0) {
    // Only the single table's edges can cross, and they are listed in
    // edges_ order, so the walk meets the crossing edges in the order the
    // whole-edge walk below does.
    const int t = std::countr_zero(single);
    const TableEdges& table = table_edges_[static_cast<size_t>(t)];
    if ((table.neighbors & other) == 0) return;
    for (uint32_t i = table.begin; i < table.end; ++i) {
      const JoinEdge& edge = edges_[incident_[i]];
      const int partner =
          edge.left_table == t ? edge.right_table : edge.left_table;
      if ((other >> partner) & 1) fn(edge);
    }
    return;
  }
  for (const JoinEdge& edge : edges_) {
    const uint64_t lbit = uint64_t{1} << edge.left_table;
    const uint64_t rbit = uint64_t{1} << edge.right_table;
    if (((left_mask & lbit) && (right_mask & rbit)) ||
        ((left_mask & rbit) && (right_mask & lbit))) {
      fn(edge);
    }
  }
}

bool AnalyzedQuery::MasksConnected(uint64_t left_mask,
                                   uint64_t right_mask) const {
  JOINEST_CHECK_EQ(left_mask & right_mask, 0u) << "composites overlap";
  // Test the neighbours of the side with fewer tables.
  uint64_t side = left_mask;
  uint64_t other = right_mask;
  if (std::popcount(side) > std::popcount(other)) std::swap(side, other);
  for (; side != 0; side &= side - 1) {
    if (table_edges_[std::countr_zero(side)].neighbors & other) return true;
  }
  return false;
}

bool AnalyzedQuery::HasEligiblePredicate(uint64_t mask, int next_table) const {
  JOINEST_DCHECK_LT(next_table, spec_.num_tables());
  JOINEST_CHECK_EQ(mask & (uint64_t{1} << next_table), 0u)
      << "composites overlap";
  return (table_edges_[static_cast<size_t>(next_table)].neighbors & mask) !=
         0;
}

double AnalyzedQuery::JoinCardinality(uint64_t mask, double card,
                                      int next_table) const {
  return JoinComposites(mask, card, uint64_t{1} << next_table,
                        BaseCardinality(next_table));
}

double AnalyzedQuery::JoinComposites(uint64_t left_mask, double left_card,
                                     uint64_t right_mask,
                                     double right_card) const {
  return JoinCompositesUnder(options_.rule, left_mask, left_card, right_mask,
                             right_card);
}

double AnalyzedQuery::JoinCompositesUnder(SelectivityRule rule,
                                          uint64_t left_mask,
                                          double left_card,
                                          uint64_t right_mask,
                                          double right_card) const {
  JOINEST_CHECK_CARDINALITY(left_card) << "left composite";
  JOINEST_CHECK_CARDINALITY(right_card) << "right composite";
  // Feedback override: an observed actual for the combined sub-plan beats
  // any estimate (2012.08083's instance-optimality argument). Note the
  // early return deliberately skips the cartesian-bound DCHECK below — the
  // TRUE cardinality may exceed a cartesian product built from estimated
  // inputs. Unobserved composites fall through, so an observed prefix is
  // extended with the configured rule's selectivities (Glue-style merging).
  if (const std::optional<double> observed =
          FeedbackCardinality(left_mask | right_mask)) {
    JOINEST_CHECK_EQ(left_mask & right_mask, 0u) << "composites overlap";
    JOINEST_CHECK_CARDINALITY(*observed) << "observed composite";
    return *observed;
  }
  JOINEST_CHECK_EQ(left_mask & right_mask, 0u) << "composites overlap";
  double result = left_card * right_card;
  // A join estimate can never exceed the cartesian product: every applied
  // selectivity is in [0, 1], so `result` only shrinks below.
  const double cartesian = result;

  if (rule == SelectivityRule::kMultiplicative) {
    // Rule M: every eligible predicate contributes.
    bool any = false;
    ForEachCrossingEdge(left_mask, right_mask, [&](const JoinEdge& edge) {
      result *= edge.selectivity;
      any = true;
    });
    if (!any) return result;  // Cartesian product.
    JOINEST_CHECK_CARDINALITY(result);
    JOINEST_DCHECK_LE(result, cartesian * (1.0 + 1e-9))
        << "rule M output exceeds the cartesian product";
    return result;
  }

  // One selectivity per equivalence class, kept in order of the class's
  // first eligible edge; classes multiply independently. A query has few
  // classes, so the factors live on the stack unless it has many; only the
  // first num_factors slots are ever read, so the stack slots start unset.
  struct ClassFactor {
    int class_id;
    double selectivity;
  };
  constexpr int kStackClasses = 16;
  std::array<ClassFactor, kStackClasses> stack_factors;
  std::vector<ClassFactor> heap_factors;
  ClassFactor* factors = stack_factors.data();
  if (classes().num_classes() > kStackClasses) {
    heap_factors.resize(static_cast<size_t>(classes().num_classes()));
    factors = heap_factors.data();
  }
  int num_factors = 0;
  ForEachCrossingEdge(left_mask, right_mask, [&](const JoinEdge& edge) {
    const double sel = rule == SelectivityRule::kRepresentative
                           ? representative_selectivity_[edge.class_id]
                           : edge.selectivity;
    ClassFactor* factor = factors;
    while (factor != factors + num_factors &&
           factor->class_id != edge.class_id) {
      ++factor;
    }
    if (factor == factors + num_factors) {
      *factor = ClassFactor{edge.class_id, sel};
      ++num_factors;
    } else if (rule == SelectivityRule::kSmallest) {
      factor->selectivity = std::min(factor->selectivity, sel);
    } else if (rule == SelectivityRule::kLargest) {
      factor->selectivity = std::max(factor->selectivity, sel);
    }
  });
  if (num_factors == 0) return result;  // Cartesian product.
  // Products depend on their order; docs/ALGORITHM.md fixes it as reverse
  // order of first appearance. That is the order libstdc++'s
  // std::unordered_map<int, double> yields class ids below 13 in, so the
  // estimates agree digit for digit with ones grouped in such a map.
  for (int i = num_factors - 1; i >= 0; --i) {
    JOINEST_CHECK_SELECTIVITY(factors[i].selectivity)
        << "class " << factors[i].class_id;
    result *= factors[i].selectivity;
  }
  JOINEST_CHECK_CARDINALITY(result);
  JOINEST_DCHECK_LE(result, cartesian * (1.0 + 1e-9))
      << "per-class rule output exceeds the cartesian product";
  return result;
}

std::vector<AnalyzedQuery::StepTrace> AnalyzedQuery::TraceOrder(
    const std::vector<int>& order) const {
  JOINEST_CHECK_EQ(static_cast<int>(order.size()), spec_.num_tables());
  // Per-class Rule LS/M/SS choices happen inside each step below; one span
  // covers the whole walk (per-step spans would be noise at DP scale).
  Span span("estimator::rule_estimation", "joins",
            static_cast<int64_t>(order.empty() ? 0 : order.size() - 1));
  std::vector<StepTrace> trace;
  if (order.empty()) return trace;
  uint64_t mask = uint64_t{1} << order[0];
  double card = BaseCardinality(order[0]);
  for (size_t i = 1; i < order.size(); ++i) {
    StepTrace step;
    step.next_table = order[i];
    step.input_cardinality = card;
    step.table_cardinality = BaseCardinality(order[i]);
    step.eligible = EligiblePredicates(mask, order[i]);
    step.cartesian = step.eligible.empty();
    // Group selectivities by class and record what the rule would choose.
    std::unordered_map<int, size_t> class_slot;
    for (const Predicate& p : step.eligible) {
      const int cls = classes().ClassOf(p.left);
      auto [it, inserted] = class_slot.emplace(cls, step.classes.size());
      if (inserted) {
        StepTrace::ClassChoice choice;
        choice.class_id = cls;
        step.classes.push_back(choice);
      }
      step.classes[it->second].predicates.push_back(p);
      step.classes[it->second].selectivities.push_back(JoinSelectivity(p));
    }
    for (StepTrace::ClassChoice& choice : step.classes) {
      const auto [min_it, max_it] = std::minmax_element(
          choice.selectivities.begin(), choice.selectivities.end());
      switch (options_.rule) {
        case SelectivityRule::kMultiplicative: {
          double product = 1;
          for (double s : choice.selectivities) product *= s;
          choice.chosen = product;
          break;
        }
        case SelectivityRule::kSmallest:
          choice.chosen = *min_it;
          break;
        case SelectivityRule::kLargest:
          choice.chosen = *max_it;
          break;
        case SelectivityRule::kRepresentative:
          choice.chosen = representative_selectivity_[choice.class_id];
          break;
      }
    }
    card = JoinCardinality(mask, card, order[i]);
    step.output_cardinality = card;
    mask |= uint64_t{1} << order[i];
    trace.push_back(std::move(step));
  }
  return trace;
}

std::string AnalyzedQuery::FormatTrace(
    const std::vector<StepTrace>& trace) const {
  std::ostringstream oss;
  for (const StepTrace& step : trace) {
    oss << "join " << spec_.tables[step.next_table].alias << " (|composite| "
        << FormatNumber(step.input_cardinality) << " x |table| "
        << FormatNumber(step.table_cardinality) << ")";
    if (step.cartesian) {
      oss << " CARTESIAN";
    } else {
      for (const StepTrace::ClassChoice& choice : step.classes) {
        oss << "\n  class " << choice.class_id << ": ";
        for (size_t i = 0; i < choice.selectivities.size(); ++i) {
          if (i > 0) oss << ", ";
          oss << spec_.PredicateToString(*catalog_, choice.predicates[i])
              << " -> " << FormatNumber(choice.selectivities[i]);
        }
        oss << "  [" << SelectivityRuleName(options_.rule) << " uses "
            << FormatNumber(choice.chosen) << "]";
      }
    }
    oss << "\n  => " << FormatNumber(step.output_cardinality) << " rows\n";
  }
  return oss.str();
}

std::vector<double> AnalyzedQuery::EstimateOrder(
    const std::vector<int>& order) const {
  return EstimateOrder(order, options_.rule);
}

std::vector<double> AnalyzedQuery::EstimateOrder(const std::vector<int>& order,
                                                 SelectivityRule rule) const {
  JOINEST_CHECK_EQ(static_cast<int>(order.size()), spec_.num_tables());
  std::vector<double> sizes;
  if (order.empty()) return sizes;
  sizes.reserve(order.size() - 1);
  uint64_t mask = uint64_t{1} << order[0];
  double card = BaseCardinality(order[0]);
  for (size_t i = 1; i < order.size(); ++i) {
    const uint64_t bit = uint64_t{1} << order[i];
    card = JoinCompositesUnder(rule, mask, card, bit,
                               BaseCardinality(order[i]));
    mask |= bit;
    sizes.push_back(card);
  }
  return sizes;
}

double AnalyzedQuery::EstimateFullJoin() const {
  std::vector<int> order(spec_.num_tables());
  for (int t = 0; t < spec_.num_tables(); ++t) order[t] = t;
  if (order.size() == 1) return BaseCardinality(0);
  return EstimateOrder(order).back();
}

double AnalyzedQuery::EstimateGroupCount() const {
  const double result_rows = EstimateFullJoin();
  if (spec_.group_by.empty()) return result_rows;
  // Domain size of the composite group key: product of effective column
  // cardinalities (independence), capped by the result size itself.
  double domain = 1;
  for (const ColumnRef& ref : spec_.group_by) {
    domain *= std::max(profile(ref.table).join_distinct[ref.column], 1.0);
  }
  if (result_rows <= 0) return 0;
  const double groups = UrnModelDistinctCeil(domain, result_rows);
  // There cannot be more groups than result rows (urn model, k draws).
  JOINEST_CHECK_CARDINALITY(groups);
  JOINEST_DCHECK_LE(groups, std::ceil(result_rows) + 1.0)
      << "group count exceeds the result size";
  return groups;
}

std::string AnalyzedQuery::DebugString() const {
  std::ostringstream oss;
  oss << "AnalyzedQuery rule=" << SelectivityRuleName(options_.rule)
      << " ptc=" << (options_.transitive_closure ? "on" : "off")
      << " local_effects="
      << (options_.profile.apply_local_effects ? "on" : "off") << "\n";
  oss << "predicates (" << predicates().size() << "):\n";
  for (const Predicate& p : predicates()) {
    oss << "  " << spec_.PredicateToString(*catalog_, p) << "\n";
  }
  oss << "classes: " << classes().num_classes() << "\n";
  for (int t = 0; t < spec_.num_tables(); ++t) {
    oss << "  " << spec_.tables[t].alias << ": "
        << profiles_[t].DebugString() << "\n";
  }
  return oss.str();
}

}  // namespace joinest
