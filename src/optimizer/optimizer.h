// Cost-based query optimization: Selinger-style dynamic programming over
// left-deep join orders, plus a polynomial greedy enumerator (in the spirit
// of the AB algorithm [15] the paper cites as another consumer of
// incremental estimation).
//
// The estimation algorithm is pluggable (EstimationOptions / presets): run
// the same optimizer under Rule M, Rule SS or Algorithm ELS and watch the
// chosen plans diverge — that is the paper's §8 experiment.
//
// Every enumerator searches over numbers and builds one plan tree, for the
// winner. The left-deep DP keeps (cost, rows, last table) per table subset,
// greedy and the randomized enumerators keep a join order, and all of them
// materialise the winning order the same way. The bushy DP keeps (cost,
// rows, outer half, method) per subset and builds its tree from the full
// set. Whether a candidate join is connected is a mask test
// (AnalyzedQuery::HasEligiblePredicate / MasksConnected), and its size is
// one JoinCardinality / JoinComposites call: a base table joining a
// composite reads only that table's precomputed join edges, two composites
// read them all.

#ifndef JOINEST_OPTIMIZER_OPTIMIZER_H_
#define JOINEST_OPTIMIZER_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "estimator/analyzed_query.h"
#include "executor/plan.h"
#include "optimizer/cost_model.h"
#include "query/query_spec.h"
#include "storage/catalog.h"

namespace joinest {

struct OptimizerOptions {
  enum class Enumerator {
    // Selinger [13]-style exhaustive DP over left-deep orders (≤ 16 tables;
    // larger queries fall back to kGreedy).
    kDynamicProgramming,
    // Polynomial minimum-result-size heuristic (AB-algorithm spirit, [15]).
    kGreedy,
    // Randomized local search over join orders ([14], Swami's thesis, and
    // Kang [5]): random restarts + downhill swap moves.
    kIterativeImprovement,
    // Simulated annealing over the same move set.
    kSimulatedAnnealing,
  };
  Enumerator enumerator = Enumerator::kDynamicProgramming;
  // Randomized-enumerator knobs.
  struct RandomizedOptions {
    uint64_t seed = 1;
    int restarts = 8;          // II: random restarts.
    int max_moves = 400;       // Moves considered per restart / SA run.
    double initial_temperature = 2.0;  // SA: as a fraction of start cost.
    double cooling = 0.92;             // SA: geometric cooling factor.
  };
  RandomizedOptions randomized;
  EstimationOptions estimation;
  // Join methods the optimizer may pick from.
  std::vector<JoinMethod> methods = {
      JoinMethod::kNestedLoop, JoinMethod::kHash, JoinMethod::kSortMerge,
      JoinMethod::kIndexNestedLoop};
  // Prefer connected extensions; cartesian products only when the join
  // graph forces them.
  bool avoid_cartesian = true;
  // kDynamicProgramming only: also enumerate bushy shapes (both join inputs
  // may be composites). O(3^n) subset pairs; capped at 13 tables, beyond
  // which the left-deep DP runs instead. Bushy plans cannot beat left-deep
  // ones on estimated output sizes, but can on cost (e.g. two small
  // composites hash-joined instead of dragging a wide composite along).
  bool allow_bushy = false;
  CostParams cost;
};

struct OptimizedPlan {
  std::unique_ptr<PlanNode> root;
  double estimated_cost = 0;
  double estimated_rows = 0;
  // Leaf order of the (left-deep) plan.
  std::vector<int> join_order;
  // Estimated composite sizes after each join — the paper table's
  // "Estimated Result Sizes" column.
  std::vector<double> intermediate_estimates;
};

// Optimizes `spec`. Predicate pushdown honours the estimation options: with
// transitive closure enabled, derived local predicates are pushed into the
// scans (the rewrite side of PTC); without it, only the original ones.
// Builds one analysis under options.estimation and plans over it.
StatusOr<OptimizedPlan> OptimizeQuery(const Catalog& catalog,
                                      const QuerySpec& spec,
                                      const OptimizerOptions& options);

// Optimizes the query `analyzed` holds, over its catalog, spec and
// estimation options; options.estimation is not read. Equals the overload
// above when analyzed.options() equals options.estimation, so a caller that
// already holds that analysis (a cached Estimate) plans without building
// another. `analyzed` must outlive the call only.
StatusOr<OptimizedPlan> OptimizeQuery(const AnalyzedQuery& analyzed,
                                      const OptimizerOptions& options);

}  // namespace joinest

#endif  // JOINEST_OPTIMIZER_OPTIMIZER_H_
