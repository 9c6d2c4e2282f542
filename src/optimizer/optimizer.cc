#include "optimizer/optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/logging.h"
#include "common/random.h"

namespace joinest {

namespace {

// Everything the enumerators need about one base table.
struct ScanInfo {
  std::vector<Predicate> filter;
  double raw_rows = 0;
  double est_rows = 0;
  double scan_cost = 0;
};

struct SearchState {
  const Catalog* catalog;
  const QuerySpec* spec;
  const OptimizerOptions* options;
  const AnalyzedQuery* analyzed;
  std::vector<ScanInfo> scans;
};

std::unique_ptr<PlanNode> MakeAnnotatedScan(const SearchState& state, int t) {
  auto node = MakeScanNode(t, state.scans[t].filter);
  node->estimated_rows = state.scans[t].est_rows;
  node->estimated_cost = state.scans[t].scan_cost;
  return node;
}

// Best (cost, method) for joining an outer composite with an inner input of
// `inner_rows` estimated rows, producible once at `inner_cost`. When the
// inner is a base-table scan, `inner_raw_rows` is its unfiltered size
// (enables index nested loops); pass a negative value for composite inners.
// Returns +inf cost if no method applies.
std::pair<double, JoinMethod> BestJoinMethodGeneric(
    const SearchState& state, double outer_rows, double inner_rows,
    double inner_cost, double inner_raw_rows, bool has_keys,
    double out_rows) {
  double best_cost = std::numeric_limits<double>::infinity();
  JoinMethod best_method = JoinMethod::kNestedLoop;
  for (JoinMethod method : state.options->methods) {
    if (!has_keys && method != JoinMethod::kNestedLoop &&
        method != JoinMethod::kBlockNestedLoop) {
      continue;  // Only the nested-loop variants run cartesian products.
    }
    if (method == JoinMethod::kIndexNestedLoop && inner_raw_rows < 0) {
      continue;  // Index joins need a base table to index.
    }
    const double cost =
        JoinStepCost(state.options->cost, method, outer_rows, inner_rows,
                     inner_cost, inner_raw_rows, out_rows);
    if (cost < best_cost) {
      best_cost = cost;
      best_method = method;
    }
  }
  return {best_cost, best_method};
}

// Left-deep special case: the inner is base table `t`.
std::pair<double, JoinMethod> BestJoinMethod(const SearchState& state, int t,
                                             double outer_rows,
                                             double out_rows,
                                             bool has_keys) {
  return BestJoinMethodGeneric(state, outer_rows, state.scans[t].est_rows,
                               state.scans[t].scan_cost,
                               state.scans[t].raw_rows, has_keys, out_rows);
}

// One left-deep step priced: the composite after joining one more base
// table. Enumerators compare steps by these numbers alone; the plan tree is
// built once, for the winner (BuildPlanForOrder / BuildBushyPlan).
struct Step {
  bool valid = false;
  double cost = 0;  // Cumulative, including the inputs.
  double rows = 0;
  JoinMethod method = JoinMethod::kNestedLoop;
};

// Joins base table `t` into the composite `mask` of `rows` estimated rows
// that cost `cost` to produce; invalid if no join method applies.
Step Extend(const SearchState& state, uint64_t mask, double rows,
            double cost, int t) {
  Step result;
  const double out_rows = state.analyzed->JoinCardinality(mask, rows, t);
  const auto [step_cost, method] =
      BestJoinMethod(state, t, rows, out_rows,
                     state.analyzed->HasEligiblePredicate(mask, t));
  if (!std::isfinite(step_cost)) return result;
  JOINEST_CHECK_CARDINALITY(out_rows)
      << "estimated join output for table " << t;
  JOINEST_DCHECK_GE(step_cost, 0.0) << "negative join step cost";
  result.valid = true;
  result.cost = cost + step_cost;
  result.rows = out_rows;
  result.method = method;
  return result;
}

// The plan's estimates are its root's annotations.
StatusOr<OptimizedPlan> FinishPlan(std::unique_ptr<PlanNode> root) {
  OptimizedPlan plan;
  JOINEST_DCHECK_GE(root->estimated_cost, 0.0) << "negative plan cost";
  JOINEST_CHECK_CARDINALITY(root->estimated_rows) << "final plan cardinality";
  plan.estimated_cost = root->estimated_cost;
  plan.estimated_rows = root->estimated_rows;
  plan.join_order = PlanLeafOrder(*root);
  plan.intermediate_estimates = PlanIntermediateEstimates(*root);
  plan.root = std::move(root);
  return plan;
}

// Materialises the left-deep plan of a feasible order: the one plan every
// left-deep enumerator builds, for its winner.
StatusOr<OptimizedPlan> BuildPlanForOrder(const SearchState& state,
                                          const std::vector<int>& order) {
  std::unique_ptr<PlanNode> plan = MakeAnnotatedScan(state, order[0]);
  uint64_t mask = uint64_t{1} << order[0];
  for (size_t i = 1; i < order.size(); ++i) {
    const int t = order[i];
    const Step step = Extend(state, mask, plan->estimated_rows,
                             plan->estimated_cost, t);
    JOINEST_CHECK(step.valid) << "order became infeasible";
    plan = MakeJoinNode(step.method, std::move(plan),
                        MakeAnnotatedScan(state, t),
                        state.analyzed->EligiblePredicates(mask, t));
    plan->estimated_rows = step.rows;
    plan->estimated_cost = step.cost;
    mask |= uint64_t{1} << t;
  }
  return FinishPlan(std::move(plan));
}

// Selinger-style DP over table subsets, left-deep plans only. Each subset
// keeps its best (cost, rows) and the table joined last; the winning order
// is read back from the full set.
StatusOr<OptimizedPlan> OptimizeDp(const SearchState& state) {
  const int n = state.spec->num_tables();
  struct Entry {
    bool valid = false;
    double cost = 0;
    double rows = 0;
    int last = -1;
  };
  std::vector<Entry> dp(uint64_t{1} << n);
  for (int t = 0; t < n; ++t) {
    dp[uint64_t{1} << t] =
        Entry{true, state.scans[t].scan_cost, state.scans[t].est_rows, t};
  }
  const uint64_t full = (uint64_t{1} << n) - 1;
  for (uint64_t mask = 1; mask <= full; ++mask) {
    const Entry& entry = dp[mask];
    if (!entry.valid) continue;
    // Prefer connected extensions; allow cartesian only if this composite
    // has none (disconnected join graph).
    uint64_t candidates = 0;
    for (int t = 0; t < n; ++t) {
      if ((mask >> t) & 1) continue;
      if (!state.options->avoid_cartesian ||
          state.analyzed->HasEligiblePredicate(mask, t)) {
        candidates |= uint64_t{1} << t;
      }
    }
    if (candidates == 0) candidates = full & ~mask;
    for (; candidates != 0; candidates &= candidates - 1) {
      const int t = std::countr_zero(candidates);
      const Step step = Extend(state, mask, entry.rows, entry.cost, t);
      if (!step.valid) continue;
      Entry& slot = dp[mask | (uint64_t{1} << t)];
      if (!slot.valid || step.cost < slot.cost) {
        slot = Entry{true, step.cost, step.rows, t};
      }
    }
  }
  if (!dp[full].valid) {
    return Internal("dynamic programming found no complete plan");
  }
  std::vector<int> order(static_cast<size_t>(n));
  uint64_t mask = full;
  for (int i = n - 1; i >= 0; --i) {
    const int last = dp[mask].last;
    order[static_cast<size_t>(i)] = last;
    mask &= ~(uint64_t{1} << last);
  }
  return BuildPlanForOrder(state, order);
}

// Bushy DP (DPsub): for every table subset, consider every split into two
// disjoint composites. O(3^n) candidate splits. Each subset keeps its best
// (cost, rows) with the outer half and method that won; the tree is built
// once from the full set.
struct BushyEntry {
  bool valid = false;
  double cost = 0;
  double rows = 0;
  uint64_t outer = 0;  // Zero for a single table.
  JoinMethod method = JoinMethod::kNestedLoop;
};

std::unique_ptr<PlanNode> BuildBushyPlan(const SearchState& state,
                                         const std::vector<BushyEntry>& dp,
                                         uint64_t mask) {
  const BushyEntry& entry = dp[mask];
  if (entry.outer == 0) return MakeAnnotatedScan(state, std::countr_zero(mask));
  const uint64_t inner = mask ^ entry.outer;
  auto node = MakeJoinNode(
      entry.method, BuildBushyPlan(state, dp, entry.outer),
      BuildBushyPlan(state, dp, inner),
      state.analyzed->EligiblePredicatesBetween(entry.outer, inner));
  node->estimated_rows = entry.rows;
  node->estimated_cost = entry.cost;
  return node;
}

StatusOr<OptimizedPlan> OptimizeDpBushy(const SearchState& state) {
  const int n = state.spec->num_tables();
  std::vector<BushyEntry> dp(uint64_t{1} << n);
  for (int t = 0; t < n; ++t) {
    BushyEntry& entry = dp[uint64_t{1} << t];
    entry.valid = true;
    entry.rows = state.scans[t].est_rows;
    entry.cost = state.scans[t].scan_cost;
  }
  const uint64_t full = (uint64_t{1} << n) - 1;
  for (uint64_t mask = 3; mask <= full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // Single table.
    // Two passes: connected splits first; cartesian only if none produced
    // a plan (disconnected sub-queries).
    for (const bool allow_cartesian : {false, true}) {
      if (allow_cartesian &&
          (dp[mask].valid || !state.options->avoid_cartesian)) {
        break;
      }
      for (uint64_t outer = (mask - 1) & mask; outer != 0;
           outer = (outer - 1) & mask) {
        const uint64_t inner = mask ^ outer;
        const BushyEntry& outer_entry = dp[outer];
        const BushyEntry& inner_entry = dp[inner];
        if (!outer_entry.valid || !inner_entry.valid) continue;
        const bool connected = state.analyzed->MasksConnected(outer, inner);
        if (!connected && !allow_cartesian &&
            state.options->avoid_cartesian) {
          continue;
        }
        const double out_rows = state.analyzed->JoinComposites(
            outer, outer_entry.rows, inner, inner_entry.rows);
        // Index joins need the inner to be a bare base-table scan.
        const double inner_raw =
            (inner & (inner - 1)) == 0
                ? state.scans[std::countr_zero(inner)].raw_rows
                : -1.0;
        const auto [step_cost, method] = BestJoinMethodGeneric(
            state, outer_entry.rows, inner_entry.rows, inner_entry.cost,
            inner_raw, connected, out_rows);
        if (!std::isfinite(step_cost)) continue;
        const double total = outer_entry.cost + step_cost;
        BushyEntry& slot = dp[mask];
        if (!slot.valid || total < slot.cost) {
          slot = BushyEntry{true, total, out_rows, outer, method};
        }
      }
    }
  }
  if (!dp[full].valid) {
    return Internal("bushy dynamic programming found no complete plan");
  }
  return FinishPlan(BuildBushyPlan(state, dp, full));
}

// ---- Randomized enumerators (II / SA) over left-deep join orders.

// Cost/rows of one fixed left-deep order; invalid if some step has no
// applicable join method.
Step CostOfOrder(const SearchState& state, const std::vector<int>& order) {
  Step result;
  uint64_t mask = uint64_t{1} << order[0];
  result.valid = true;
  result.rows = state.scans[order[0]].est_rows;
  result.cost = state.scans[order[0]].scan_cost;
  for (size_t i = 1; i < order.size() && result.valid; ++i) {
    result = Extend(state, mask, result.rows, result.cost, order[i]);
    mask |= uint64_t{1} << order[i];
  }
  return result;
}

// Iterative Improvement: random restarts, each descending by random swap
// moves until the move budget is exhausted.
StatusOr<OptimizedPlan> OptimizeIterativeImprovement(
    const SearchState& state) {
  const int n = state.spec->num_tables();
  const auto& knobs = state.options->randomized;
  Rng rng(knobs.seed);
  std::vector<int> best_order;
  double best_cost = std::numeric_limits<double>::infinity();
  for (int restart = 0; restart < knobs.restarts; ++restart) {
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (int i = n - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBounded(i + 1)]);
    }
    Step current = CostOfOrder(state, order);
    if (!current.valid) continue;
    for (int move = 0; move < knobs.max_moves; ++move) {
      const int a = static_cast<int>(rng.NextBounded(n));
      const int b = static_cast<int>(rng.NextBounded(n));
      if (a == b) continue;
      std::swap(order[a], order[b]);
      const Step proposal = CostOfOrder(state, order);
      if (proposal.valid && proposal.cost < current.cost) {
        current = proposal;  // Downhill move: keep.
      } else {
        std::swap(order[a], order[b]);  // Revert.
      }
    }
    if (current.cost < best_cost) {
      best_cost = current.cost;
      best_order = order;
    }
  }
  if (best_order.empty()) {
    return Internal("iterative improvement found no feasible order");
  }
  return BuildPlanForOrder(state, best_order);
}

// Simulated annealing with a geometric cooling schedule.
StatusOr<OptimizedPlan> OptimizeSimulatedAnnealing(const SearchState& state) {
  const int n = state.spec->num_tables();
  const auto& knobs = state.options->randomized;
  Rng rng(knobs.seed);
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }
  Step current = CostOfOrder(state, order);
  // A fully random start may be infeasible only if some method set forbids
  // it; retry a few shuffles, then fall back to the identity order.
  for (int attempt = 0; !current.valid && attempt < 8; ++attempt) {
    for (int i = n - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBounded(i + 1)]);
    }
    current = CostOfOrder(state, order);
  }
  if (!current.valid) {
    std::iota(order.begin(), order.end(), 0);
    current = CostOfOrder(state, order);
    if (!current.valid) {
      return Internal("simulated annealing found no feasible order");
    }
  }
  std::vector<int> best_order = order;
  double best_cost = current.cost;
  double temperature = knobs.initial_temperature * current.cost;
  for (int move = 0; move < knobs.max_moves; ++move) {
    const int a = static_cast<int>(rng.NextBounded(n));
    const int b = static_cast<int>(rng.NextBounded(n));
    if (a == b) continue;
    std::swap(order[a], order[b]);
    const Step proposal = CostOfOrder(state, order);
    bool accept = false;
    if (proposal.valid) {
      const double delta = proposal.cost - current.cost;
      accept = delta < 0 ||
               rng.NextDouble() < std::exp(-delta / std::max(temperature,
                                                             1e-9));
    }
    if (accept) {
      current = proposal;
      if (current.cost < best_cost) {
        best_cost = current.cost;
        best_order = order;
      }
    } else {
      std::swap(order[a], order[b]);
    }
    temperature *= knobs.cooling;
  }
  return BuildPlanForOrder(state, best_order);
}

// Greedy minimum-result-size enumerator: O(n^2) plans considered.
StatusOr<OptimizedPlan> OptimizeGreedy(const SearchState& state) {
  const int n = state.spec->num_tables();
  // Seed with the table whose effective cardinality is smallest — the
  // classic heuristic starting point.
  int seed = 0;
  for (int t = 1; t < n; ++t) {
    if (state.scans[t].est_rows < state.scans[seed].est_rows) seed = t;
  }
  std::vector<int> order = {seed};
  Step current{true, state.scans[seed].scan_cost, state.scans[seed].est_rows};
  uint64_t mask = uint64_t{1} << seed;

  for (int step = 1; step < n; ++step) {
    int best_t = -1;
    Step best;
    bool best_connected = false;
    for (int t = 0; t < n; ++t) {
      if ((mask >> t) & 1) continue;
      const bool connected = state.analyzed->HasEligiblePredicate(mask, t);
      if (state.options->avoid_cartesian && best_connected && !connected) {
        continue;
      }
      const Step extended =
          Extend(state, mask, current.rows, current.cost, t);
      if (!extended.valid) continue;
      const bool better =
          best_t < 0 ||
          (connected && !best_connected) ||  // Connected beats cartesian.
          (connected == best_connected &&
           (extended.rows < best.rows ||
            (extended.rows == best.rows && extended.cost < best.cost)));
      if (better) {
        best_t = t;
        best = extended;
        best_connected = connected;
      }
    }
    if (best_t < 0) return Internal("greedy enumeration stuck");
    current = best;
    order.push_back(best_t);
    mask |= uint64_t{1} << best_t;
  }
  return BuildPlanForOrder(state, order);
}

}  // namespace

StatusOr<OptimizedPlan> OptimizeQuery(const Catalog& catalog,
                                      const QuerySpec& spec,
                                      const OptimizerOptions& options) {
  if (options.methods.empty()) {
    return InvalidArgument("no join methods enabled");
  }
  JOINEST_ASSIGN_OR_RETURN(
      AnalyzedQuery analyzed,
      AnalyzedQuery::Create(catalog, spec, options.estimation));

  SearchState state;
  state.catalog = &catalog;
  state.spec = &spec;
  state.options = &options;
  state.analyzed = &analyzed;

  const int n = spec.num_tables();
  state.scans.resize(n);
  for (int t = 0; t < n; ++t) {
    ScanInfo& scan = state.scans[t];
    // Push the local predicates the rewrite produced. With PTC enabled this
    // includes derived predicates (early selection — the reason PTC alone
    // already improves plans); without it, only the user's own predicates.
    for (const Predicate& p : analyzed.predicates()) {
      if (p.kind != Predicate::Kind::kJoin && p.left.table == t) {
        scan.filter.push_back(p);
      }
    }
    scan.raw_rows = catalog.stats(spec.tables[t].catalog_id).row_count;
    scan.est_rows = analyzed.BaseCardinality(t);
    scan.scan_cost = ScanCost(options.cost, scan.raw_rows,
                              static_cast<int>(scan.filter.size()));
  }

  if (n == 1) return FinishPlan(MakeAnnotatedScan(state, 0));

  switch (options.enumerator) {
    case OptimizerOptions::Enumerator::kGreedy:
      return OptimizeGreedy(state);
    case OptimizerOptions::Enumerator::kIterativeImprovement:
      return OptimizeIterativeImprovement(state);
    case OptimizerOptions::Enumerator::kSimulatedAnnealing:
      return OptimizeSimulatedAnnealing(state);
    case OptimizerOptions::Enumerator::kDynamicProgramming:
      // DP space is 2^n (3^n bushy); beyond the caps fall back to the
      // polynomial greedy enumerator (documented behaviour).
      if (options.allow_bushy && n <= 13) return OptimizeDpBushy(state);
      if (n > 16) return OptimizeGreedy(state);
      return OptimizeDp(state);
  }
  return Internal("unknown enumerator");
}

}  // namespace joinest
