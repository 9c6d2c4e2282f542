// Algorithm ELS, end to end: a query analysed for incremental join-size
// estimation.
//
// AnalyzedQuery::Create runs the preliminary phase (steps 1-5):
//   1. deduplicate predicates and build equivalence classes,
//   2. compute the predicate transitive closure (rewrite/transitive_closure),
//   3. assign local-predicate selectivities (rewrite/local_merge),
//   4. compute effective table and column cardinalities per table
//      (estimator/table_profile),
//   5. derive join selectivities S_J = 1/max(d'_left, d'_right), stored
//      once per closed join predicate as an edge (two tables, equivalence
//      class, S_J).
//
// JoinCardinality implements the final phase (step 6): the incremental
// result-size computation, under a configurable selectivity rule. It reads
// only the step-5 edges, so an optimizer can call it once per candidate join
// without recomputing a selectivity or allocating:
//
//   * kMultiplicative — Rule M, Selinger [13]: multiply every eligible join
//     predicate's selectivity (ignores dependencies; underestimates).
//   * kSmallest — Rule SS: per equivalence class, the smallest selectivity.
//   * kLargest — Rule LS, the paper's contribution: per equivalence class,
//     the LARGEST selectivity. Provably consistent with Equation 3.
//   * kRepresentative — the §3.3 strawman: one fixed selectivity per class.
//
// Multiple equivalence classes multiply independently (independence
// assumption), whatever the rule: the per-class factors multiply in reverse
// order of the class's first eligible edge (docs/ALGORITHM.md, final phase).

#ifndef JOINEST_ESTIMATOR_ANALYZED_QUERY_H_
#define JOINEST_ESTIMATOR_ANALYZED_QUERY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "estimator/feedback_store.h"
#include "estimator/runtime_selectivity.h"
#include "estimator/table_profile.h"
#include "query/query_spec.h"
#include "rewrite/transitive_closure.h"
#include "storage/catalog.h"

namespace joinest {

enum class SelectivityRule {
  kMultiplicative,
  kSmallest,
  kLargest,
  kRepresentative,
};

const char* SelectivityRuleName(SelectivityRule rule);

// How the kRepresentative strawman picks its per-class constant.
enum class RepresentativePick { kSmallest, kLargest };

struct EstimationOptions {
  // Predicate transitive closure on/off (the paper's PTC rewrite switch).
  bool transitive_closure = true;
  TableProfileOptions profile;
  SelectivityRule rule = SelectivityRule::kLargest;
  RepresentativePick representative = RepresentativePick::kLargest;
  // EXTENSION (paper §9 future work): when both join columns carry
  // histograms, compute S_J by applying Equation 1 per overlapping value
  // segment (stats/histogram.h HistogramJoinSelectivity) instead of the
  // global 1/max(d', d'). Tracks skewed join columns; falls back to the
  // classic formula when either histogram is missing.
  bool histogram_join_selectivity = false;
  // EXTENSION (predicate transfer): observed runtime selectivities consulted
  // after the statistics-only profiles are built. When set, a table with a
  // recorded survival fraction gets ||R||' <- survival x ||R||', and a join
  // column with a recorded pass rate gets d' <- max(1, pass_rate x d').
  // Null (the default) keeps the estimator paper-faithful. The store's
  // epoch is part of the estimation-options digest (service/fingerprint.cc)
  // so cached estimates refresh when new observations land.
  std::shared_ptr<const RuntimeSelectivityStore> runtime_selectivities;
  // EXTENSION (feedback-driven estimation): observed sub-plan cardinalities
  // consulted during the incremental computation. A composite whose
  // canonical fingerprint has a recorded actual uses that actual verbatim;
  // composites without one extend the nearest observed prefix with the
  // configured rule's selectivities (Glue-style merging falls out of the
  // incremental recursion). Null store (the default) keeps the estimator
  // paper-faithful; the store's presence, epoch and min_tables — but not
  // the injected fingerprint routine — are part of the estimation-options
  // digest.
  struct FeedbackOptions {
    std::shared_ptr<const FeedbackStore> store;
    // Injected by the service layer (service/fingerprint.h's
    // SubPlanFingerprint); the estimator cannot link it directly.
    SubPlanFingerprintFn fingerprint = nullptr;
    // Smallest sub-plan (in tables) consulted; 1 includes single-table
    // observations.
    int min_tables = 1;

    // True when consultation is fully configured.
    bool enabled() const { return store != nullptr && fingerprint != nullptr; }
  };
  FeedbackOptions feedback;
};

class AnalyzedQuery {
 public:
  static StatusOr<AnalyzedQuery> Create(const Catalog& catalog,
                                        const QuerySpec& spec,
                                        const EstimationOptions& options);

  const QuerySpec& spec() const { return spec_; }
  const EstimationOptions& options() const { return options_; }
  // Closed, deduplicated predicate set.
  const std::vector<Predicate>& predicates() const { return predicates_; }
  const EquivalenceClasses& classes() const { return classes_; }
  const TableProfile& profile(int table_index) const;
  const Catalog& catalog() const { return *catalog_; }

  // S_J of one join predicate under the configured statistics mode.
  double JoinSelectivity(const Predicate& predicate) const;

  // Estimated cardinality of one table after its local predicates.
  double BaseCardinality(int table_index) const;

  // Incremental step: joins `next_table` into a composite holding the
  // tables in `mask` (bit t set ⇔ query-local table t present) whose
  // estimated cardinality is `card`. Applies the configured rule over the
  // eligible join predicates; a table with no eligible predicate contributes
  // a cartesian product.
  double JoinCardinality(uint64_t mask, double card, int next_table) const;

  // Generalisation for bushy plans: joins two disjoint composites. The
  // eligible predicates are those crossing the two masks; rule application
  // is identical. JoinCardinality(mask, card, t) ≡
  // JoinComposites(mask, card, 1<<t, BaseCardinality(t)).
  double JoinComposites(uint64_t left_mask, double left_card,
                        uint64_t right_mask, double right_card) const;

  // True if at least one join predicate links `next_table` to `mask`.
  bool HasEligiblePredicate(uint64_t mask, int next_table) const;
  // True if at least one join predicate crosses the two (disjoint) masks.
  bool MasksConnected(uint64_t left_mask, uint64_t right_mask) const;

  // Join predicates linking `next_table` to the composite `mask`.
  std::vector<Predicate> EligiblePredicates(uint64_t mask,
                                            int next_table) const;
  // Join predicates crossing two disjoint composites.
  std::vector<Predicate> EligiblePredicatesBetween(uint64_t left_mask,
                                                   uint64_t right_mask) const;

  // Walks a left-deep join order; returns the estimated size after each of
  // the num_tables()-1 joins.
  std::vector<double> EstimateOrder(const std::vector<int>& order) const;
  // The same walk under `rule` instead of options().rule. Create reads the
  // rule only for a metric label, so this equals EstimateOrder(order) of an
  // analysis whose options differ from these only in the rule: one analysis
  // answers every rule.
  std::vector<double> EstimateOrder(const std::vector<int>& order,
                                    SelectivityRule rule) const;

  // One incremental step, fully explained: which predicates were eligible,
  // what each one's selectivity was, and what the rule chose per
  // equivalence class.
  struct StepTrace {
    int next_table = -1;
    double input_cardinality = 0;   // Composite before the step.
    double table_cardinality = 0;   // Effective rows of the joined table.
    bool cartesian = false;
    struct ClassChoice {
      int class_id = -1;
      std::vector<Predicate> predicates;  // The class's eligible members.
      std::vector<double> selectivities;  // Parallel to `predicates`.
      double chosen = 1.0;                // What the rule used.
    };
    std::vector<Predicate> eligible;  // All eligible predicates.
    std::vector<ClassChoice> classes;
    double output_cardinality = 0;
  };

  // Like EstimateOrder, but returns the full per-step reasoning.
  std::vector<StepTrace> TraceOrder(const std::vector<int>& order) const;

  // Human-readable rendering of a trace.
  std::string FormatTrace(const std::vector<StepTrace>& trace) const;

  // Estimated size of the full join (any order gives the same value only
  // under Rule LS; this uses table order 0,1,2,...).
  double EstimateFullJoin() const;

  // EXTENSION: estimated number of GROUP BY groups in the query result —
  // §5's urn model reused verbatim: the result's rows are E "draws" over
  // the group key's domain, so the expected group count is
  // ⌈D (1 - (1 - 1/D)^E)⌉ with D the product of the group columns'
  // effective cardinalities. Returns the full-join estimate when the
  // spec has no GROUP BY.
  double EstimateGroupCount() const;

  std::string DebugString() const;

 private:
  AnalyzedQuery() = default;

  // The observed cardinality for the sub-plan `mask`, if feedback is
  // configured, the store has one, and the mask meets min_tables. Thread-
  // safe live lookup: the store epoch is pinned into the options digest, so
  // every cached AnalyzedQuery was computed against one observation set.
  std::optional<double> FeedbackCardinality(uint64_t mask) const;

  // JoinComposites under an explicit rule.
  double JoinCompositesUnder(SelectivityRule rule, uint64_t left_mask,
                             double left_card, uint64_t right_mask,
                             double right_card) const;

  // One closed join predicate as step 6 reads it, in predicates_ order.
  struct JoinEdge {
    double selectivity = 1.0;  // S_J.
    int32_t class_id = -1;
    uint8_t left_table = 0;
    uint8_t right_table = 0;
  };
  static bool Crosses(const JoinEdge& edge, uint64_t left_mask,
                      uint64_t right_mask);

  const Catalog* catalog_ = nullptr;
  QuerySpec spec_;
  EstimationOptions options_;
  std::vector<Predicate> predicates_;
  EquivalenceClasses classes_;
  std::vector<TableProfile> profiles_;
  std::vector<JoinEdge> edges_;
  // Per equivalence class, the representative selectivity (kRepresentative).
  std::vector<double> representative_selectivity_;
};

}  // namespace joinest

#endif  // JOINEST_ESTIMATOR_ANALYZED_QUERY_H_
