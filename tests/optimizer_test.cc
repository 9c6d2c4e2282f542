// Tests for optimizer/: cost model shape, DP and greedy enumeration, method
// selection, cartesian avoidance, plans materialised faithfully from the
// search, and the §8 plan-choice phenomena.

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include "estimator/presets.h"
#include "executor/execute.h"
#include "gtest/gtest.h"
#include "optimizer/cost_model.h"
#include "optimizer/optimizer.h"
#include "rewrite/transitive_closure.h"
#include "storage/datagen.h"
#include "storage/datasets.h"
#include "tests/test_util.h"

namespace joinest {
namespace {

Value V(int64_t v) { return Value(v); }

// ---------------------------------------------------------------- Cost

TEST(CostModelTest, ScanLinearInRows) {
  CostParams params;
  EXPECT_GT(ScanCost(params, 1000, 0), ScanCost(params, 100, 0));
  EXPECT_GT(ScanCost(params, 100, 2), ScanCost(params, 100, 0));
}

TEST(CostModelTest, NestedLoopQuadratic) {
  CostParams params;
  const double small = JoinStepCost(params, JoinMethod::kNestedLoop, 10, 10,
                                    10, 10, 10);
  const double big = JoinStepCost(params, JoinMethod::kNestedLoop, 1000, 1000,
                                  1000, 1000, 10);
  EXPECT_GT(big, small * 1000);
}

TEST(CostModelTest, NestedLoopFreeWhenOuterEmpty) {
  // The trap: believed-zero outer makes NL look free.
  CostParams params;
  EXPECT_NEAR(JoinStepCost(params, JoinMethod::kNestedLoop, 0, 1e6, 1e6, 1e6,
                           0),
              0, 1e-9);
}

TEST(CostModelTest, HashBeatsNestedLoopOnLargeEqualInputs) {
  CostParams params;
  const double nl =
      JoinStepCost(params, JoinMethod::kNestedLoop, 1e4, 1e4, 1e4, 1e4, 1e4);
  const double hash =
      JoinStepCost(params, JoinMethod::kHash, 1e4, 1e4, 1e4, 1e4, 1e4);
  EXPECT_LT(hash, nl);
}

TEST(CostModelTest, BlockNLBeatsTupleNLForMultiRowOuter) {
  CostParams params;
  const double nl =
      JoinStepCost(params, JoinMethod::kNestedLoop, 100, 1e4, 1e4, 1e4, 100);
  const double bnl = JoinStepCost(params, JoinMethod::kBlockNestedLoop, 100,
                                  1e4, 1e4, 1e4, 100);
  EXPECT_LT(bnl, nl);
  // At one (or zero) outer rows they converge (one inner production).
  const double nl1 =
      JoinStepCost(params, JoinMethod::kNestedLoop, 1, 1e4, 1e4, 1e4, 1);
  const double bnl1 = JoinStepCost(params, JoinMethod::kBlockNestedLoop, 1,
                                   1e4, 1e4, 1e4, 1);
  EXPECT_DOUBLE_EQ(nl1, bnl1);
}

TEST(CostModelTest, IndexNLAmortisesOverSmallOuter) {
  CostParams params;
  // Tiny outer: index build dominates but beats re-scanning for NL.
  const double inl = JoinStepCost(params, JoinMethod::kIndexNestedLoop, 100,
                                  1e5, 1e5, 1e5, 100);
  const double nl = JoinStepCost(params, JoinMethod::kNestedLoop, 100, 1e5,
                                 1e5, 1e5, 100);
  EXPECT_LT(inl, nl);
}

// ---------------------------------------------------------------- Plans

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(5);
    auto add = [&](const std::string& name, const std::string& col,
                   int64_t rows, int64_t d) {
      Table table = Table::FromColumns(
          Schema({{col, TypeKind::kInt64}}),
          {ToValueColumn(MakeUniformColumn(rows, d, rng))});
      JOINEST_CHECK(catalog_.AddTable(name, std::move(table)).ok());
    };
    add("A", "a", 100, 100);
    add("B", "b", 1000, 100);
    add("C", "c", 5000, 100);
  }

  QuerySpec ChainQuery() {
    QuerySpec spec = MakeCountSpec(catalog_, 3);
    spec.predicates.push_back(
        Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
    spec.predicates.push_back(
        Predicate::Join(ColumnRef{1, 0}, ColumnRef{2, 0}));
    return spec;
  }

  Catalog catalog_;
};

TEST_F(OptimizerTest, ProducesExecutablePlan) {
  OptimizerOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, ChainQuery(), options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto result = ExecutePlan(catalog_, ChainQuery(), *plan->root);
  ASSERT_TRUE(result.ok()) << result.status();
  auto truth = TrueResultSize(catalog_, ChainQuery());
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(result->count, *truth);
}

TEST_F(OptimizerTest, JoinOrderCoversAllTables) {
  OptimizerOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, ChainQuery(), options);
  ASSERT_TRUE(plan.ok());
  std::vector<int> order = plan->join_order;
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(plan->intermediate_estimates.size(), 2u);
}

TEST_F(OptimizerTest, GreedyAlsoExecutesCorrectly) {
  OptimizerOptions options;
  options.enumerator = OptimizerOptions::Enumerator::kGreedy;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, ChainQuery(), options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto result = ExecutePlan(catalog_, ChainQuery(), *plan->root);
  ASSERT_TRUE(result.ok());
  auto truth = TrueResultSize(catalog_, ChainQuery());
  EXPECT_EQ(result->count, *truth);
}

TEST_F(OptimizerTest, DpNeverWorseThanGreedyByItsOwnCost) {
  OptimizerOptions dp_options;
  dp_options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto dp = OptimizeQuery(catalog_, ChainQuery(), dp_options);
  ASSERT_TRUE(dp.ok());
  OptimizerOptions greedy_options = dp_options;
  greedy_options.enumerator = OptimizerOptions::Enumerator::kGreedy;
  auto greedy = OptimizeQuery(catalog_, ChainQuery(), greedy_options);
  ASSERT_TRUE(greedy.ok());
  EXPECT_LE(dp->estimated_cost, greedy->estimated_cost + 1e-9);
}

TEST_F(OptimizerTest, AvoidsCartesianWhenConnected) {
  OptimizerOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, ChainQuery(), options);
  ASSERT_TRUE(plan.ok());
  // Chain A-B-C: the order must not join A and C first (no predicate).
  const std::vector<int>& order = plan->join_order;
  EXPECT_FALSE((order[0] == 0 && order[1] == 2) ||
               (order[0] == 2 && order[1] == 0));
}

TEST_F(OptimizerTest, CartesianAllowedWhenDisconnected) {
  QuerySpec spec = MakeCountSpec(catalog_, 2);  // A, B without predicates.
  OptimizerOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, spec, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->root->method, JoinMethod::kNestedLoop);
  EXPECT_DOUBLE_EQ(plan->estimated_rows, 100.0 * 1000);
}

TEST_F(OptimizerTest, SingleTableQueryIsScan) {
  QuerySpec spec = MakeCountSpec(catalog_, 1);
  spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt, V(50)));
  OptimizerOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, spec, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->kind, PlanNode::Kind::kScan);
  EXPECT_EQ(plan->root->filter.size(), 1u);
}

TEST_F(OptimizerTest, RestrictedMethodsHonoured) {
  OptimizerOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  options.methods = {JoinMethod::kSortMerge};
  auto plan = OptimizeQuery(catalog_, ChainQuery(), options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->method, JoinMethod::kSortMerge);
  EXPECT_EQ(plan->root->left->method, JoinMethod::kSortMerge);
}

TEST_F(OptimizerTest, IterativeImprovementExecutesCorrectly) {
  OptimizerOptions options;
  options.enumerator = OptimizerOptions::Enumerator::kIterativeImprovement;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, ChainQuery(), options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto result = ExecutePlan(catalog_, ChainQuery(), *plan->root);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, *TrueResultSize(catalog_, ChainQuery()));
}

TEST_F(OptimizerTest, SimulatedAnnealingExecutesCorrectly) {
  OptimizerOptions options;
  options.enumerator = OptimizerOptions::Enumerator::kSimulatedAnnealing;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, ChainQuery(), options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto result = ExecutePlan(catalog_, ChainQuery(), *plan->root);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, *TrueResultSize(catalog_, ChainQuery()));
}

TEST_F(OptimizerTest, RandomizedEnumeratorsNearDpOnSmallQueries) {
  // With ample restarts on a 3-table query, local search should find the
  // DP optimum (the search space has only 6 orders).
  OptimizerOptions dp_options;
  dp_options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto dp = OptimizeQuery(catalog_, ChainQuery(), dp_options);
  ASSERT_TRUE(dp.ok());
  for (const auto enumerator :
       {OptimizerOptions::Enumerator::kIterativeImprovement,
        OptimizerOptions::Enumerator::kSimulatedAnnealing}) {
    OptimizerOptions options = dp_options;
    options.enumerator = enumerator;
    options.randomized.restarts = 16;
    options.randomized.max_moves = 500;
    auto plan = OptimizeQuery(catalog_, ChainQuery(), options);
    ASSERT_TRUE(plan.ok());
    EXPECT_LE(dp->estimated_cost, plan->estimated_cost + 1e-9);
    EXPECT_NEAR(plan->estimated_cost, dp->estimated_cost,
                dp->estimated_cost * 0.25);
  }
}

TEST_F(OptimizerTest, RandomizedDeterministicForSeed) {
  OptimizerOptions options;
  options.enumerator = OptimizerOptions::Enumerator::kSimulatedAnnealing;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  options.randomized.seed = 99;
  auto a = OptimizeQuery(catalog_, ChainQuery(), options);
  auto b = OptimizeQuery(catalog_, ChainQuery(), options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->join_order, b->join_order);
  EXPECT_DOUBLE_EQ(a->estimated_cost, b->estimated_cost);
}

TEST_F(OptimizerTest, BushyDpExecutesCorrectly) {
  OptimizerOptions options;
  options.allow_bushy = true;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, ChainQuery(), options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto result = ExecutePlan(catalog_, ChainQuery(), *plan->root);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->count, *TrueResultSize(catalog_, ChainQuery()));
}

TEST_F(OptimizerTest, BushyNeverCostsMoreThanLeftDeep) {
  // The bushy search space strictly contains the left-deep one.
  OptimizerOptions left_deep;
  left_deep.estimation = PresetOptions(AlgorithmPreset::kELS);
  OptimizerOptions bushy = left_deep;
  bushy.allow_bushy = true;
  auto ld_plan = OptimizeQuery(catalog_, ChainQuery(), left_deep);
  auto bushy_plan = OptimizeQuery(catalog_, ChainQuery(), bushy);
  ASSERT_TRUE(ld_plan.ok() && bushy_plan.ok());
  EXPECT_LE(bushy_plan->estimated_cost, ld_plan->estimated_cost + 1e-9);
}

TEST_F(OptimizerTest, BushyCanWinOnDumbbellQuery) {
  // Two cheap pairs bridged by an expensive middle: classic bushy-win
  // shape. At minimum the bushy plan must execute correctly; also check
  // that a genuinely bushy shape (join with a join on the right) is at
  // least representable by running one explicitly.
  Rng rng(8);
  Catalog catalog;
  auto add = [&](const std::string& name, int64_t rows, int64_t d) {
    Table table = Table::FromColumns(
        Schema({{name + "_k", TypeKind::kInt64}}),
        {ToValueColumn(MakeUniformColumn(rows, d, rng))});
    JOINEST_CHECK(catalog.AddTable(name, std::move(table)).ok());
  };
  add("A1", 200, 50);
  add("A2", 200, 50);
  add("B1", 200, 50);
  add("B2", 200, 50);
  QuerySpec spec = MakeCountSpec(catalog, 4);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  spec.predicates.push_back(Predicate::Join(ColumnRef{2, 0}, ColumnRef{3, 0}));
  spec.predicates.push_back(Predicate::Join(ColumnRef{1, 0}, ColumnRef{2, 0}));
  OptimizerOptions options;
  options.allow_bushy = true;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog, spec, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto result = ExecutePlan(catalog, spec, *plan->root);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->count, *TrueResultSize(catalog, spec));
}

TEST_F(OptimizerTest, JoinCompositesGeneralisesJoinCardinality) {
  auto analyzed = AnalyzedQuery::Create(catalog_, ChainQuery(),
                                        PresetOptions(AlgorithmPreset::kELS));
  ASSERT_TRUE(analyzed.ok());
  const double via_table =
      analyzed->JoinCardinality(0b001, analyzed->BaseCardinality(0), 1);
  const double via_masks = analyzed->JoinComposites(
      0b001, analyzed->BaseCardinality(0), 0b010,
      analyzed->BaseCardinality(1));
  EXPECT_DOUBLE_EQ(via_table, via_masks);
  EXPECT_TRUE(analyzed->MasksConnected(0b001, 0b010));
  // With closure, A-C gains a derived predicate; without it they are
  // disconnected.
  EXPECT_TRUE(analyzed->MasksConnected(0b001, 0b100));
  auto no_ptc = AnalyzedQuery::Create(
      catalog_, ChainQuery(), PresetOptions(AlgorithmPreset::kSMNoPtc));
  ASSERT_TRUE(no_ptc.ok());
  EXPECT_FALSE(no_ptc->MasksConnected(0b001, 0b100));
}

TEST_F(OptimizerTest, BushyHandlesDisconnectedGraph) {
  // Two tables, no predicate: the bushy DP's cartesian second pass must
  // still produce a plan.
  QuerySpec spec = MakeCountSpec(catalog_, 2);
  OptimizerOptions options;
  options.allow_bushy = true;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, spec, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto result = ExecutePlan(catalog_, spec, *plan->root);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 100 * 1000);
}

TEST(OptimizerScaleTest, SeventeenTablesFallBackToGreedy) {
  // Above the DP cap the optimizer silently switches to greedy; the plan
  // must still cover every table and estimate something finite.
  Catalog catalog;
  QuerySpec spec;
  spec.count_star = true;
  for (int t = 0; t < 17; ++t) {
    AddStatsOnlyTable(catalog, "T" + std::to_string(t), 100 + 10 * t,
                      {50.0 + t});
    ASSERT_TRUE(spec.AddTable(catalog, "T" + std::to_string(t)).ok());
  }
  for (int t = 0; t + 1 < 17; ++t) {
    spec.predicates.push_back(
        Predicate::Join(ColumnRef{t, 0}, ColumnRef{t + 1, 0}));
  }
  OptimizerOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog, spec, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::vector<int> order = plan->join_order;
  std::sort(order.begin(), order.end());
  for (int t = 0; t < 17; ++t) EXPECT_EQ(order[t], t);
  EXPECT_TRUE(std::isfinite(plan->estimated_rows));
}

TEST_F(OptimizerTest, NoMethodsIsError) {
  OptimizerOptions options;
  options.methods.clear();
  EXPECT_FALSE(OptimizeQuery(catalog_, ChainQuery(), options).ok());
}

TEST_F(OptimizerTest, PushdownFollowsClosureSwitch) {
  QuerySpec spec = ChainQuery();
  spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt, V(10)));
  // With PTC: derived predicates land on B and C scans too.
  OptimizerOptions with_ptc;
  with_ptc.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, spec, with_ptc);
  ASSERT_TRUE(plan.ok());
  int filtered_scans = 0;
  std::vector<const PlanNode*> stack = {plan->root.get()};
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    if (node->kind == PlanNode::Kind::kScan) {
      if (!node->filter.empty()) ++filtered_scans;
    } else {
      stack.push_back(node->left.get());
      stack.push_back(node->right.get());
    }
  }
  EXPECT_EQ(filtered_scans, 3);

  // Without PTC: only table A's scan carries a filter.
  OptimizerOptions no_ptc;
  no_ptc.estimation = PresetOptions(AlgorithmPreset::kSMNoPtc);
  auto plan2 = OptimizeQuery(catalog_, spec, no_ptc);
  ASSERT_TRUE(plan2.ok());
  filtered_scans = 0;
  stack = {plan2->root.get()};
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    if (node->kind == PlanNode::Kind::kScan) {
      if (!node->filter.empty()) ++filtered_scans;
    } else {
      stack.push_back(node->left.get());
      stack.push_back(node->right.get());
    }
  }
  EXPECT_EQ(filtered_scans, 1);
}

// ------------------------------------------------------ §8 plan choice

class Section8PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PaperDatasetOptions options;
    options.with_payload = false;
    JOINEST_CHECK(BuildPaperDataset(catalog_, options).ok());
    spec_ = MakeCountSpec(catalog_, 4);
    spec_.predicates.push_back(
        Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
    spec_.predicates.push_back(
        Predicate::Join(ColumnRef{1, 0}, ColumnRef{2, 0}));
    spec_.predicates.push_back(
        Predicate::Join(ColumnRef{2, 0}, ColumnRef{3, 0}));
    spec_.predicates.push_back(
        Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt, V(100)));
  }
  Catalog catalog_;
  QuerySpec spec_;
};

TEST_F(Section8PlanTest, AllPresetsReturnCorrectCount) {
  for (AlgorithmPreset preset : PaperPresets()) {
    OptimizerOptions options;
    options.estimation = PresetOptions(preset);
    auto plan = OptimizeQuery(catalog_, spec_, options);
    ASSERT_TRUE(plan.ok()) << PresetName(preset);
    auto result = ExecutePlan(catalog_, spec_, *plan->root);
    ASSERT_TRUE(result.ok()) << PresetName(preset);
    EXPECT_EQ(result->count, 100) << PresetName(preset);
  }
}

TEST_F(Section8PlanTest, ELSEstimatesAllOneHundred) {
  OptimizerOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kELS);
  auto plan = OptimizeQuery(catalog_, spec_, options);
  ASSERT_TRUE(plan.ok());
  for (double estimate : plan->intermediate_estimates) {
    EXPECT_DOUBLE_EQ(estimate, 100);
  }
}

TEST_F(Section8PlanTest, RuleMUnderestimatesCatastrophically) {
  OptimizerOptions options;
  options.estimation = PresetOptions(AlgorithmPreset::kSM);
  auto plan = OptimizeQuery(catalog_, spec_, options);
  ASSERT_TRUE(plan.ok());
  // Final estimate collapses to ~0 while the truth is 100.
  EXPECT_LT(plan->intermediate_estimates.back(), 1e-6);
}

TEST_F(Section8PlanTest, SSSUnderestimatesLessThanM) {
  OptimizerOptions m_options, ss_options;
  m_options.estimation = PresetOptions(AlgorithmPreset::kSM);
  ss_options.estimation = PresetOptions(AlgorithmPreset::kSSS);
  auto m_plan = OptimizeQuery(catalog_, spec_, m_options);
  auto ss_plan = OptimizeQuery(catalog_, spec_, ss_options);
  ASSERT_TRUE(m_plan.ok());
  ASSERT_TRUE(ss_plan.ok());
  EXPECT_GT(ss_plan->intermediate_estimates.back(),
            m_plan->intermediate_estimates.back());
  EXPECT_LT(ss_plan->intermediate_estimates.back(), 100);
}

TEST_F(Section8PlanTest, TrueSizeAfterAnyPrefixIsOneHundred) {
  // The paper: "The correct join result size after any subset of joins has
  // been performed can be shown to be exactly 100." This presumes the
  // CLOSED query (with the derived predicates available) — without closure
  // the {S, B} prefix has no predicate at all.
  QuerySpec closed = spec_;
  closed.predicates = ComputeTransitiveClosure(spec_.predicates).predicates;
  for (const auto& order : std::vector<std::vector<int>>{
           {0, 1, 2, 3}, {2, 3, 1, 0}, {0, 2, 1, 3}}) {
    auto sizes = TruePrefixSizes(catalog_, closed, order);
    ASSERT_TRUE(sizes.ok()) << sizes.status();
    for (int64_t size : *sizes) EXPECT_EQ(size, 100);
  }
}

TEST_F(Section8PlanTest, ELSPlanFasterThanMisledPlans) {
  // The paper's headline: the ELS plan runs an order of magnitude faster.
  // Compare real execution times (generous 2x slack to avoid flakiness;
  // observed gap is ~20-50x).
  auto run = [&](AlgorithmPreset preset) {
    OptimizerOptions options;
    options.estimation = PresetOptions(preset);
    auto plan = OptimizeQuery(catalog_, spec_, options);
    JOINEST_CHECK(plan.ok());
    auto result = ExecutePlan(catalog_, spec_, *plan->root);
    JOINEST_CHECK(result.ok());
    return result->seconds;
  };
  const double els = run(AlgorithmPreset::kELS);
  const double sm = run(AlgorithmPreset::kSM);
  EXPECT_LT(els * 2, sm);
}

// ------------------------------------- Plans materialised from the search

// Generated chain/star/cycle/clique queries of 3-8 tables, single- and
// multi-class; in the multi-class ones some join steps cross two or three
// equivalence classes.
std::vector<GeneratedWorkload> SearchWorkloads() {
  using Shape = WorkloadOptions::Shape;
  std::vector<GeneratedWorkload> workloads;
  uint64_t seed = 11;
  for (Shape shape : {Shape::kChain, Shape::kStar, Shape::kCycle,
                      Shape::kClique}) {
    for (int n = 3; n <= 8; ++n) {
      for (bool multi_class : {false, true}) {
        workloads.push_back(ShapeWorkload(shape, n, multi_class, seed++));
      }
    }
  }
  return workloads;
}

// The join nodes of a left-deep plan, bottom-up.
std::vector<const PlanNode*> LeftDeepJoins(const PlanNode& root) {
  std::vector<const PlanNode*> joins;
  for (const PlanNode* node = &root; node->kind == PlanNode::Kind::kJoin;
       node = node->left.get()) {
    joins.push_back(node);
  }
  std::reverse(joins.begin(), joins.end());
  return joins;
}

double RawRows(const Catalog& catalog, const QuerySpec& spec, int t) {
  return catalog.stats(spec.tables[t].catalog_id).row_count;
}

// Every applicable method costs at least what the chosen one does.
void ExpectCheapestMethod(const OptimizerOptions& options,
                          const PlanNode& node, double inner_raw_rows,
                          bool has_keys) {
  const PlanNode& outer = *node.left;
  const PlanNode& inner = *node.right;
  const double chosen =
      JoinStepCost(options.cost, node.method, outer.estimated_rows,
                   inner.estimated_rows, inner.estimated_cost,
                   inner_raw_rows, node.estimated_rows);
  for (JoinMethod method : options.methods) {
    if (!has_keys && method != JoinMethod::kNestedLoop &&
        method != JoinMethod::kBlockNestedLoop) {
      continue;
    }
    if (method == JoinMethod::kIndexNestedLoop && inner_raw_rows < 0) {
      continue;
    }
    EXPECT_LE(chosen,
              JoinStepCost(options.cost, method, outer.estimated_rows,
                           inner.estimated_rows, inner.estimated_cost,
                           inner_raw_rows, node.estimated_rows));
  }
}

// A scan carries the estimator's base cardinality and its scan cost.
void ExpectAnnotatedScan(const Catalog& catalog, const QuerySpec& spec,
                         const AnalyzedQuery& analyzed,
                         const OptimizerOptions& options,
                         const PlanNode& scan) {
  ASSERT_EQ(scan.kind, PlanNode::Kind::kScan);
  const int t = scan.table_index;
  EXPECT_EQ(scan.estimated_rows, analyzed.BaseCardinality(t));
  EXPECT_EQ(scan.estimated_cost,
            ScanCost(options.cost, RawRows(catalog, spec, t),
                     static_cast<int>(scan.filter.size())));
}

TEST(PlanMaterialisationTest, LeftDeepNodesMatchTheEstimatorBitForBit) {
  for (const GeneratedWorkload& w : SearchWorkloads()) {
    const QuerySpec& spec = w.spec;
    for (AlgorithmPreset preset : AllPresets()) {
      for (auto enumerator : {OptimizerOptions::Enumerator::kDynamicProgramming,
                              OptimizerOptions::Enumerator::kGreedy}) {
        SCOPED_TRACE(spec.ToString(w.catalog) + " under " +
                     PresetName(preset));
        OptimizerOptions options;
        options.estimation = PresetOptions(preset);
        options.enumerator = enumerator;
        auto plan = OptimizeQuery(w.catalog, spec, options);
        ASSERT_TRUE(plan.ok()) << plan.status();
        auto analyzed =
            AnalyzedQuery::Create(w.catalog, spec, options.estimation);
        ASSERT_TRUE(analyzed.ok()) << analyzed.status();

        const std::vector<int>& order = plan->join_order;
        const std::vector<double> sizes = analyzed->EstimateOrder(order);
        const std::vector<const PlanNode*> joins = LeftDeepJoins(*plan->root);
        ASSERT_EQ(joins.size() + 1, order.size());
        EXPECT_EQ(plan->intermediate_estimates, sizes);
        ExpectAnnotatedScan(w.catalog, spec, *analyzed, options,
                            *joins[0]->left);
        uint64_t prefix = uint64_t{1} << order[0];
        for (size_t i = 0; i < joins.size(); ++i) {
          const PlanNode& node = *joins[i];
          const int t = order[i + 1];
          ExpectAnnotatedScan(w.catalog, spec, *analyzed, options,
                              *node.right);
          EXPECT_EQ(node.right->table_index, t);
          EXPECT_EQ(node.estimated_rows, sizes[i]);
          // The running cost: the prefix's cost plus this step's.
          EXPECT_EQ(node.estimated_cost,
                    node.left->estimated_cost +
                        JoinStepCost(options.cost, node.method,
                                     node.left->estimated_rows,
                                     node.right->estimated_rows,
                                     node.right->estimated_cost,
                                     RawRows(w.catalog, spec, t),
                                     node.estimated_rows));
          EXPECT_EQ(node.join_predicates,
                    analyzed->EligiblePredicates(prefix, t));
          ExpectCheapestMethod(options, node, RawRows(w.catalog, spec, t),
                               !node.join_predicates.empty());
          prefix |= uint64_t{1} << t;
        }
        EXPECT_EQ(plan->estimated_rows, plan->root->estimated_rows);
        EXPECT_EQ(plan->estimated_cost, plan->root->estimated_cost);
      }
    }
  }
}

// Checks one bushy subtree; returns its table mask.
uint64_t ExpectBushyNode(const Catalog& catalog, const QuerySpec& spec,
                         const AnalyzedQuery& analyzed,
                         const OptimizerOptions& options,
                         const PlanNode& node) {
  if (node.kind == PlanNode::Kind::kScan) {
    ExpectAnnotatedScan(catalog, spec, analyzed, options, node);
    return uint64_t{1} << node.table_index;
  }
  const uint64_t left =
      ExpectBushyNode(catalog, spec, analyzed, options, *node.left);
  const uint64_t right =
      ExpectBushyNode(catalog, spec, analyzed, options, *node.right);
  EXPECT_EQ(node.estimated_rows,
            analyzed.JoinComposites(left, node.left->estimated_rows, right,
                                    node.right->estimated_rows));
  EXPECT_EQ(node.join_predicates,
            analyzed.EligiblePredicatesBetween(left, right));
  const double inner_raw =
      node.right->kind == PlanNode::Kind::kScan
          ? RawRows(catalog, spec, node.right->table_index)
          : -1.0;
  EXPECT_EQ(node.estimated_cost,
            node.left->estimated_cost +
                JoinStepCost(options.cost, node.method,
                             node.left->estimated_rows,
                             node.right->estimated_rows,
                             node.right->estimated_cost, inner_raw,
                             node.estimated_rows));
  ExpectCheapestMethod(options, node, inner_raw,
                       !node.join_predicates.empty());
  return left | right;
}

TEST(PlanMaterialisationTest, BushyNodesMatchJoinCompositesBitForBit) {
  for (const GeneratedWorkload& w : SearchWorkloads()) {
    for (AlgorithmPreset preset :
         {AlgorithmPreset::kELS, AlgorithmPreset::kSM}) {
      SCOPED_TRACE(w.spec.ToString(w.catalog) + " under " +
                   PresetName(preset));
      OptimizerOptions options;
      options.estimation = PresetOptions(preset);
      options.allow_bushy = true;
      auto plan = OptimizeQuery(w.catalog, w.spec, options);
      ASSERT_TRUE(plan.ok()) << plan.status();
      auto analyzed =
          AnalyzedQuery::Create(w.catalog, w.spec, options.estimation);
      ASSERT_TRUE(analyzed.ok()) << analyzed.status();
      const uint64_t mask =
          ExpectBushyNode(w.catalog, w.spec, *analyzed, options, *plan->root);
      EXPECT_EQ(mask, (uint64_t{1} << w.spec.num_tables()) - 1);
      EXPECT_EQ(plan->estimated_cost, plan->root->estimated_cost);
    }
  }
}

// The cheapest left-deep order by brute force, priced from ScanCost and
// JoinStepCost alone. An order may take a cartesian step only when no
// remaining table joins the prefix.
double BruteForceLeftDeepCost(const Catalog& catalog, const QuerySpec& spec,
                              const AnalyzedQuery& analyzed,
                              const OptimizerOptions& options) {
  const int n = spec.num_tables();
  std::vector<double> scan_cost(n);
  for (int t = 0; t < n; ++t) {
    int filters = 0;
    for (const Predicate& p : analyzed.predicates()) {
      if (p.kind != Predicate::Kind::kJoin && p.left.table == t) ++filters;
    }
    scan_cost[t] = ScanCost(options.cost, RawRows(catalog, spec, t), filters);
  }
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  double best = std::numeric_limits<double>::infinity();
  do {
    uint64_t mask = uint64_t{1} << order[0];
    double rows = analyzed.BaseCardinality(order[0]);
    double cost = scan_cost[order[0]];
    bool allowed = true;
    for (int i = 1; i < n && allowed; ++i) {
      const int t = order[i];
      const bool connected = analyzed.HasEligiblePredicate(mask, t);
      for (int j = i + 1; j < n && !connected; ++j) {
        if (analyzed.HasEligiblePredicate(mask, order[j])) allowed = false;
      }
      const double out = analyzed.JoinCardinality(mask, rows, t);
      double step = std::numeric_limits<double>::infinity();
      for (JoinMethod method : options.methods) {
        if (!connected && method != JoinMethod::kNestedLoop &&
            method != JoinMethod::kBlockNestedLoop) {
          continue;
        }
        step = std::min(step, JoinStepCost(options.cost, method, rows,
                                           analyzed.BaseCardinality(t),
                                           scan_cost[t],
                                           RawRows(catalog, spec, t), out));
      }
      cost += step;
      rows = out;
      mask |= uint64_t{1} << t;
    }
    if (allowed) best = std::min(best, cost);
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

TEST(PlanMaterialisationTest, LeftDeepDpMatchesBruteForceUnderEls) {
  int checked = 0;
  for (const GeneratedWorkload& w : SearchWorkloads()) {
    if (w.spec.num_tables() > 6) continue;
    SCOPED_TRACE(w.spec.ToString(w.catalog));
    OptimizerOptions options;
    options.estimation = PresetOptions(AlgorithmPreset::kELS);
    auto plan = OptimizeQuery(w.catalog, w.spec, options);
    ASSERT_TRUE(plan.ok()) << plan.status();
    auto analyzed =
        AnalyzedQuery::Create(w.catalog, w.spec, options.estimation);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status();
    const double brute =
        BruteForceLeftDeepCost(w.catalog, w.spec, *analyzed, options);
    EXPECT_NEAR(plan->estimated_cost, brute, 1e-9 * brute);
    ++checked;
  }
  EXPECT_EQ(checked, 32);
}

// Joining C to {A, B} crosses three equivalence classes, two edges each.
// Each rule's estimate must be the product written out here: Rule M over
// every crossing edge in predicates() order; the per-class rules one
// factor per class, multiplied in reverse order of each class's first
// crossing edge.
TEST(PlanMaterialisationTest, ThreeClassStepMultipliesInDocumentedOrder) {
  Catalog catalog;
  AddStatsOnlyTable(catalog, "A", 1000, {37, 71, 113});
  AddStatsOnlyTable(catalog, "B", 800, {53, 97, 29});
  AddStatsOnlyTable(catalog, "C", 900, {23, 109, 61});
  QuerySpec spec = MakeCountSpec(catalog, 3);
  for (int column : {1, 2, 0}) {
    spec.predicates.push_back(
        Predicate::Join(ColumnRef{0, column}, ColumnRef{2, column}));
    spec.predicates.push_back(
        Predicate::Join(ColumnRef{1, column}, ColumnRef{2, column}));
  }
  const uint64_t ab = 0b011;
  const uint64_t c = 0b100;
  const double ab_rows = 1000.0;
  const double c_rows = 678.25;
  for (AlgorithmPreset preset :
       {AlgorithmPreset::kSM, AlgorithmPreset::kSSS, AlgorithmPreset::kELS,
        AlgorithmPreset::kRepresentativeSmall,
        AlgorithmPreset::kRepresentativeLarge}) {
    SCOPED_TRACE(PresetName(preset));
    const EstimationOptions options = PresetOptions(preset);
    auto analyzed = AnalyzedQuery::Create(catalog, spec, options);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status();
    // Per class: the crossing edges' S_J, and every member's S_J.
    std::vector<int> first_seen;
    std::map<int, std::vector<double>> crossing, members;
    double product_m = ab_rows * c_rows;
    for (const Predicate& p : analyzed->predicates()) {
      if (p.kind != Predicate::Kind::kJoin) continue;
      const int cls = analyzed->classes().ClassOf(p.left);
      const double sel = analyzed->JoinSelectivity(p);
      members[cls].push_back(sel);
      const uint64_t l = uint64_t{1} << p.left.table;
      const uint64_t r = uint64_t{1} << p.right.table;
      if (!((ab & l) && (c & r)) && !((ab & r) && (c & l))) continue;
      if (crossing[cls].empty()) first_seen.push_back(cls);
      crossing[cls].push_back(sel);
      product_m *= sel;
    }
    ASSERT_EQ(first_seen.size(), 3u);
    auto factor = [&](int cls) {
      const std::vector<double>& sels = crossing[cls];
      const std::vector<double>& all = members[cls];
      switch (options.rule) {
        case SelectivityRule::kSmallest:
          return *std::min_element(sels.begin(), sels.end());
        case SelectivityRule::kLargest:
          return *std::max_element(sels.begin(), sels.end());
        case SelectivityRule::kRepresentative:
          return options.representative == RepresentativePick::kSmallest
                     ? *std::min_element(all.begin(), all.end())
                     : *std::max_element(all.begin(), all.end());
        case SelectivityRule::kMultiplicative:
          break;
      }
      return 0.0;
    };
    double expected = product_m;
    double forward = ab_rows * c_rows;
    if (options.rule != SelectivityRule::kMultiplicative) {
      expected = ab_rows * c_rows;
      for (auto it = first_seen.rbegin(); it != first_seen.rend(); ++it) {
        expected *= factor(*it);
      }
      for (int cls : first_seen) forward *= factor(cls);
    }
    EXPECT_EQ(analyzed->JoinComposites(ab, ab_rows, c, c_rows), expected);
    if (preset == AlgorithmPreset::kELS) {
      // The data tells the two orders apart, so the check above pins one.
      EXPECT_NE(forward, expected);
    }
  }
}

}  // namespace
}  // namespace joinest
