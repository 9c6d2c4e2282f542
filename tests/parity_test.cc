// Cross-method and cross-path parity: every join method, the batch drive
// at any batch capacity, the count drive, and the factorized ground-truth
// count must produce identical results on the same query, and the same
// results as a brute-force enumeration over the base tables
// (EnumerateJoin, tests/test_util.h). Counts are the repo's ground truth
// (TrueResultSize feeds every estimator comparison), so parity here is
// load-bearing — a divergence anywhere silently corrupts the paper
// reproduction.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "executor/compile.h"
#include "executor/execute.h"
#include "executor/plan.h"
#include "gtest/gtest.h"
#include "storage/table.h"
#include "tests/test_util.h"
#include "workloads/generator.h"

namespace joinest {
namespace {

// Overrides the method on every join that carries at least one key; the
// rare cartesian step (empty key list) stays nested loops, which is the
// only method defined for it.
void SetJoinMethod(PlanNode* node, JoinMethod method) {
  if (node == nullptr || node->kind != PlanNode::Kind::kJoin) return;
  if (!node->join_predicates.empty()) node->method = method;
  SetJoinMethod(node->left.get(), method);
  SetJoinMethod(node->right.get(), method);
}

int64_t CountWithMethod(const Catalog& catalog, const QuerySpec& spec,
                        JoinMethod method) {
  std::unique_ptr<PlanNode> plan = CanonicalSafePlan(spec);
  SetJoinMethod(plan.get(), method);
  auto result = ExecutePlan(catalog, spec, *plan);
  JOINEST_CHECK(result.ok()) << result.status();
  return result->count;
}

struct ParityCase {
  WorkloadOptions::Shape shape;
  int num_tables;
  bool single_class;
  bool local_predicate;
  uint64_t seed;
};

std::vector<ParityCase> ParityCases() {
  using Shape = WorkloadOptions::Shape;
  std::vector<ParityCase> cases;
  for (uint64_t seed : {7u, 21u}) {
    cases.push_back({Shape::kChain, 4, true, false, seed});
    cases.push_back({Shape::kChain, 3, false, true, seed});
    cases.push_back({Shape::kStar, 3, true, true, seed});
    cases.push_back({Shape::kClique, 3, true, false, seed});
    cases.push_back({Shape::kCycle, 3, true, false, seed});
  }
  return cases;
}

GeneratedWorkload MakeWorkload(const ParityCase& c) {
  WorkloadOptions options;
  options.shape = c.shape;
  options.num_tables = c.num_tables;
  options.single_class = c.single_class;
  options.add_local_predicate = c.local_predicate;
  options.seed = c.seed;
  // Small enough that nested loops and the brute-force enumeration stay
  // fast, large enough that the batch path spans several batches.
  options.min_rows = 80;
  options.max_rows = 200;
  options.min_distinct = 10;
  options.max_distinct = 50;
  auto workload = GenerateWorkload(options);
  JOINEST_CHECK(workload.ok()) << workload.status();
  return std::move(*workload);
}

// Property: on seeded generator workloads across every query shape, all
// five join methods count the same result.
TEST(JoinMethodParityTest, AllMethodsAgreeOnGeneratedWorkloads) {
  for (const ParityCase& c : ParityCases()) {
    const GeneratedWorkload w = MakeWorkload(c);
    const int64_t expected =
        CountWithMethod(w.catalog, w.spec, JoinMethod::kHash);
    EXPECT_GT(expected, 0) << "degenerate workload, seed " << c.seed;
    for (JoinMethod method :
         {JoinMethod::kNestedLoop, JoinMethod::kBlockNestedLoop,
          JoinMethod::kSortMerge, JoinMethod::kIndexNestedLoop}) {
      EXPECT_EQ(CountWithMethod(w.catalog, w.spec, method), expected)
          << JoinMethodName(method) << " diverges, shape "
          << static_cast<int>(c.shape) << " seed " << c.seed;
    }
  }
}

// Regression: an unspecified-evaluation-order bug once moved the eligible
// key list out before the method ternary read it, so every canonical join
// compiled as a nested loop. The canonical plan must use hash joins
// whenever a join carries keys.
TEST(CanonicalPlanTest, KeyedJoinsAreHashJoins) {
  const GeneratedWorkload w =
      MakeWorkload({WorkloadOptions::Shape::kChain, 4, true, false, 3});
  const std::unique_ptr<PlanNode> plan = CanonicalSafePlan(w.spec);
  for (const PlanNode* node = plan.get();
       node != nullptr && node->kind == PlanNode::Kind::kJoin;
       node = node->left.get()) {
    ASSERT_FALSE(node->join_predicates.empty());
    EXPECT_EQ(node->method, JoinMethod::kHash);
  }
}

// ------------------------------------------------ Ground-truth counting
//
// TrueResultSize counts without enumerating (a factorized COUNT(*) over a
// join tree, or the canonical plan when there is none). It must agree with
// both the canonical safe plan's COUNT(*) and the brute-force enumeration.

// Checks TrueResultSize against the enumeration and against canonical-plan
// execution (its keyed joins are hash joins already); returns the count.
int64_t ExpectTrueCountMatchesPlan(const Catalog& catalog,
                                   const QuerySpec& spec,
                                   const std::string& what) {
  auto count = TrueResultSize(catalog, spec);
  EXPECT_TRUE(count.ok()) << what << ": " << count.status();
  const int64_t expected = EnumerateJoin(catalog, spec, {}).rows;
  EXPECT_EQ(count.ok() ? *count : -1, expected) << what;
  EXPECT_EQ(CountWithMethod(catalog, spec, JoinMethod::kHash), expected)
      << what;
  return expected;
}

TEST(TrueCountTest, MatchesCanonicalPlanOnParityCases) {
  for (const ParityCase& c : ParityCases()) {
    const GeneratedWorkload w = MakeWorkload(c);
    ExpectTrueCountMatchesPlan(
        w.catalog, w.spec,
        "shape " + std::to_string(static_cast<int>(c.shape)) + " seed " +
            std::to_string(c.seed));
  }
}

Table IntTable(const std::vector<std::string>& names,
               const std::vector<std::vector<int64_t>>& columns) {
  std::vector<ColumnDef> defs;
  std::vector<std::vector<Value>> values;
  for (size_t c = 0; c < names.size(); ++c) {
    defs.push_back({names[c], TypeKind::kInt64});
    values.push_back(ToValueColumn(columns[c]));
  }
  return Table::FromColumns(Schema(std::move(defs)), std::move(values));
}

Predicate Join(int lt, int lc, int rt, int rc) {
  return Predicate::Join(ColumnRef{lt, lc}, ColumnRef{rt, rc});
}

// R.b = S.b AND S.c = T.c AND T.a = R.a: a cycle through three classes,
// which has no join tree. The canonical plan's top join carries two keys.
QuerySpec MultiClassTriangle(Catalog& catalog) {
  JOINEST_CHECK(catalog.AddTable("R", IntTable({"a", "b"},
                                               {{1, 1, 2, 3, 3, 4},
                                                {1, 2, 2, 3, 1, 4}}))
                    .ok());
  JOINEST_CHECK(catalog.AddTable("S", IntTable({"b", "c"},
                                               {{1, 2, 2, 3, 4, 4},
                                                {5, 5, 6, 7, 8, 5}}))
                    .ok());
  JOINEST_CHECK(catalog.AddTable("T", IntTable({"c", "a"},
                                               {{5, 5, 6, 7, 8, 8},
                                                {1, 2, 2, 3, 4, 1}}))
                    .ok());
  QuerySpec spec = MakeCountSpec(catalog, 3);
  spec.predicates = {Join(0, 1, 1, 0), Join(1, 1, 2, 0), Join(2, 1, 0, 0)};
  return spec;
}

// Without a join tree the count falls back to running the canonical plan.
TEST(TrueCountTest, MultiClassTriangleFallsBackToThePlan) {
  Catalog catalog;
  const QuerySpec spec = MultiClassTriangle(catalog);
  EXPECT_GT(ExpectTrueCountMatchesPlan(catalog, spec, "triangle"), 0);
}

// A.x = B.x AND A.z = B.x puts two columns of A in one class: only A rows
// with x == z can join.
TEST(TrueCountTest, TwoColumnsOfOneTableInOneClass) {
  Catalog catalog;
  JOINEST_CHECK(
      catalog.AddTable("A", IntTable({"x", "z"}, {{1, 2, 3, 3}, {1, 1, 3, 2}}))
          .ok());
  JOINEST_CHECK(catalog.AddTable("B", IntTable({"x"}, {{1, 1, 2, 3}})).ok());
  QuerySpec spec = MakeCountSpec(catalog, 2);
  spec.predicates = {Join(0, 0, 1, 0), Join(0, 1, 1, 0)};
  // (1,1) meets two B rows, (3,3) one; (2,1) and (3,2) disagree.
  EXPECT_EQ(ExpectTrueCountMatchesPlan(catalog, spec, "two columns"), 3);
}

// A double key between two int64 keys: messages carry canonical keys, so
// 3.0 meets 3 and 2.5 meets nothing.
TEST(TrueCountTest, Int64AndDoubleKeysInOneClass) {
  Catalog catalog;
  JOINEST_CHECK(catalog.AddTable("I", IntTable({"a"}, {{1, 2, 3, 3}})).ok());
  JOINEST_CHECK(
      catalog
          .AddTable("D", Table::FromColumns(
                             Schema({{"b", TypeKind::kDouble}}),
                             {ToValueColumn(std::vector<double>{
                                 3.0, 2.5, 1.0, 1e19})}))
          .ok());
  JOINEST_CHECK(catalog.AddTable("J", IntTable({"c"}, {{3, 1, 1}})).ok());
  QuerySpec spec = MakeCountSpec(catalog, 3);
  spec.predicates = {Join(0, 0, 1, 0), Join(1, 0, 2, 0)};
  // Key 3: 2 x 1 x 1; key 1: 1 x 1 x 2.
  EXPECT_EQ(ExpectTrueCountMatchesPlan(catalog, spec, "int64/double"), 4);
}

TEST(TrueCountTest, AliasedSelfJoin) {
  Catalog catalog;
  JOINEST_CHECK(
      catalog.AddTable("R", IntTable({"a", "b"}, {{1, 2, 2, 3}, {2, 3, 1, 3}}))
          .ok());
  QuerySpec spec;
  spec.count_star = true;
  JOINEST_CHECK(spec.AddTable(catalog, "R", "r1").ok());
  JOINEST_CHECK(spec.AddTable(catalog, "R", "r2").ok());
  spec.predicates = {Join(0, 1, 1, 0)};
  // r1.b = r2.a: b=2 meets a=2 twice, b=3 meets a=3 once (twice over),
  // b=1 meets a=1 once.
  EXPECT_EQ(ExpectTrueCountMatchesPlan(catalog, spec, "self-join"), 5);
}

TEST(TrueCountTest, DisconnectedQueryWithLocalPredicate) {
  Catalog catalog;
  JOINEST_CHECK(catalog.AddTable("A", IntTable({"x"}, {{1, 2, 3, 4}})).ok());
  JOINEST_CHECK(catalog.AddTable("B", IntTable({"y"}, {{7, 8, 9}})).ok());
  QuerySpec spec = MakeCountSpec(catalog, 2);
  spec.predicates = {Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt,
                                           Value(int64_t{3}))};
  EXPECT_EQ(ExpectTrueCountMatchesPlan(catalog, spec, "disconnected"), 6);
}

TEST(TrueCountTest, JoinWithAnEmptyTable) {
  Catalog catalog;
  JOINEST_CHECK(catalog.AddTable("A", IntTable({"x"}, {{1, 2, 3}})).ok());
  JOINEST_CHECK(
      catalog.AddTable("E", IntTable({"x"}, {std::vector<int64_t>{}})).ok());
  JOINEST_CHECK(catalog.AddTable("B", IntTable({"x"}, {{1, 2}})).ok());
  QuerySpec spec = MakeCountSpec(catalog, 3);
  spec.predicates = {Join(0, 0, 1, 0), Join(1, 0, 2, 0)};
  EXPECT_EQ(ExpectTrueCountMatchesPlan(catalog, spec, "empty table"), 0);
}

TEST(TrueCountTest, SingleTableColumnToColumnPredicate) {
  Catalog catalog;
  JOINEST_CHECK(
      catalog.AddTable("A", IntTable({"x", "z"}, {{1, 2, 3, 4}, {1, 3, 3, 0}}))
          .ok());
  QuerySpec spec = MakeCountSpec(catalog, 1);
  spec.predicates = {Predicate::LocalColCol(ColumnRef{0, 0}, CompareOp::kEq,
                                            ColumnRef{0, 1})};
  EXPECT_EQ(ExpectTrueCountMatchesPlan(catalog, spec, "col = col"), 2);
  spec.predicates[0].op = CompareOp::kLt;
  EXPECT_EQ(ExpectTrueCountMatchesPlan(catalog, spec, "col < col"), 1);
}

// Five 10,000-row tables on one key value join to 10^20 rows: beyond int64,
// so the count fails instead of wrapping — and never enumerates.
TEST(TrueCountTest, CountBeyondInt64IsOutOfRange) {
  Catalog catalog;
  QuerySpec spec;
  spec.count_star = true;
  for (int t = 0; t < 5; ++t) {
    const std::string name = "T" + std::to_string(t);
    JOINEST_CHECK(
        catalog
            .AddTable(name,
                      IntTable({"k"}, {std::vector<int64_t>(10000, 7)}))
            .ok());
    JOINEST_CHECK(spec.AddTable(catalog, name).ok());
    if (t > 0) spec.predicates.push_back(Join(t - 1, 0, t, 0));
  }
  auto count = TrueResultSize(catalog, spec);
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kOutOfRange);
  // Four tables stay in range: 10^16.
  spec.tables.pop_back();
  spec.predicates.pop_back();
  count = TrueResultSize(catalog, spec);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(*count, int64_t{10000000000000000});
}

// --------------------------------------------- Specialized batch kernels
//
// CompilePlan lowers schema-provable filters, scans and hash joins onto
// typed kernels (executor/kernels.h). The batch drive of the compiled plan
// must produce the same row count AND the same multiset of rows as the
// brute-force enumeration, whatever the root's batch capacity: 1 and 3
// make every operator stop and resume mid-output (mid-span, mid-batch).

void ExpectKernelParity(const Catalog& catalog, const QuerySpec& spec,
                        const char* what) {
  const std::unique_ptr<PlanNode> plan = CanonicalSafePlan(spec);
  auto root = CompilePlan(catalog, spec, *plan);
  JOINEST_CHECK(root.ok()) << root.status();
  const ResultSummary expected =
      EnumerateJoin(catalog, spec, (*root)->layout());
  for (int capacity : {1, 3, kDefaultBatchRows}) {
    EXPECT_EQ(DrainBatches(**root, capacity), expected)  // Re-opens.
        << what << ", capacity " << capacity;
  }
}

TEST(KernelParityTest, SpecializedBatchMatchesEnumerationOnGeneratedWorkloads) {
  for (const ParityCase& c : ParityCases()) {
    const GeneratedWorkload w = MakeWorkload(c);
    ExpectKernelParity(w.catalog, w.spec, "generated workload");
  }
}

// Mixed-type tables: int64, double and string columns in one plan, so the
// filter lowers onto all three typed kernels plus the int64-vs-double
// widening path, and the join exercises both the all-int64 emit kernel
// (key join on the int side) and the generic emit (string payloads).
class KernelMixedTypeTest : public ::testing::Test {
 protected:
  KernelMixedTypeTest() {
    Table facts = Table::FromColumns(
        Schema({{"k", TypeKind::kInt64},
                {"x", TypeKind::kDouble},
                {"s", TypeKind::kString},
                {"m", TypeKind::kInt64}}),
        {ToValueColumn(std::vector<int64_t>{1, 2, 3, 4, 5, 6, 7, 8}),
         ToValueColumn(
             std::vector<double>{0.5, 1.5, 2.5, 3.0, 4.5, 5.0, 6.5, 7.0}),
         ToValueColumn(std::vector<std::string>{"a", "b", "a", "c", "b", "a",
                                                "d", "b"}),
         ToValueColumn(std::vector<int64_t>{1, 1, 2, 2, 3, 3, 4, 4})});
    Table dims = Table::FromColumns(
        Schema({{"k", TypeKind::kInt64}, {"t", TypeKind::kString}}),
        {ToValueColumn(std::vector<int64_t>{1, 2, 3, 4, 1, 2}),
         ToValueColumn(
             std::vector<std::string>{"p", "q", "r", "s", "t", "u"})});
    JOINEST_CHECK(catalog_.AddTable("F", std::move(facts)).ok());
    JOINEST_CHECK(catalog_.AddTable("G", std::move(dims)).ok());
  }

  QuerySpec SpecWith(std::vector<Predicate> predicates) {
    QuerySpec spec = MakeCountSpec(catalog_, 2);
    spec.predicates.push_back(
        Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
    for (Predicate& p : predicates) spec.predicates.push_back(std::move(p));
    return spec;
  }

  Catalog catalog_;
};

TEST_F(KernelMixedTypeTest, AllFilterKernelsAgree) {
  // One predicate per kernel: int64 const, double const, string const,
  // int64 col-col, and the int64-vs-double widening comparison.
  ExpectKernelParity(
      catalog_,
      SpecWith({Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kGt,
                                      Value(int64_t{1}))}),
      "int64 const");
  ExpectKernelParity(
      catalog_,
      SpecWith({Predicate::LocalConst(ColumnRef{0, 1}, CompareOp::kLe,
                                      Value(5.0))}),
      "double const");
  ExpectKernelParity(
      catalog_,
      SpecWith({Predicate::LocalConst(ColumnRef{0, 2}, CompareOp::kEq,
                                      Value(std::string("a")))}),
      "string const");
  ExpectKernelParity(
      catalog_,
      SpecWith({Predicate::LocalColCol(ColumnRef{0, 0}, CompareOp::kGe,
                                       ColumnRef{0, 3})}),
      "int64 col-col");
  ExpectKernelParity(
      catalog_,
      SpecWith({Predicate::LocalColCol(ColumnRef{0, 1}, CompareOp::kLt,
                                       ColumnRef{0, 0})}),
      "double-vs-int64 widening");
  // An int64 column against a double constant widens the column side.
  ExpectKernelParity(
      catalog_,
      SpecWith({Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt,
                                      Value(4.5))}),
      "int64 column vs double const");
}

TEST_F(KernelMixedTypeTest, ConjunctionAcrossKernelsAgrees) {
  ExpectKernelParity(
      catalog_,
      SpecWith({Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kGt,
                                      Value(int64_t{1})),
                Predicate::LocalConst(ColumnRef{0, 2}, CompareOp::kNe,
                                      Value(std::string("d"))),
                Predicate::LocalColCol(ColumnRef{0, 1}, CompareOp::kLt,
                                       ColumnRef{0, 0})}),
      "mixed-kernel conjunction");
}

// String payloads force the generic emit path; an int64-only projection of
// the same join takes the all-int64 emit kernel. Both must match the
// enumeration.
TEST_F(KernelMixedTypeTest, JoinEmitKernelsAgree) {
  ExpectKernelParity(catalog_, SpecWith({}), "string payload join");
}

// The mixed int64-vs-double join key must stay on the generic canonical-key
// probe (the fast probe is only sound when both sides are int64).
TEST(KernelMixedKeyParityTest, MixedKeyJoinStaysCorrect) {
  Catalog catalog;
  Table ints = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1, 2, 3, 5, -7, 4000000000})});
  Table doubles = Table::FromColumns(
      Schema({{"b", TypeKind::kDouble}}),
      {ToValueColumn(std::vector<double>{1.0, 2.5, 3.0, 5.0, -7.0, 1e19,
                                         4000000000.0, 0.5})});
  JOINEST_CHECK(catalog.AddTable("I", std::move(ints)).ok());
  JOINEST_CHECK(catalog.AddTable("D", std::move(doubles)).ok());
  QuerySpec spec = MakeCountSpec(catalog, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  ExpectKernelParity(catalog, spec, "mixed-type join key");
}

// ------------------------------------------------------- Count drive
//
// Operator::Count lets a hash or index-nested-loop join add up its match
// counts instead of emitting rows; every other operator counts by
// draining its batch path. The count drive must agree with the batch drive
// and the brute-force enumeration on the total and, because EXPLAIN
// ANALYZE and feedback read them, with the batch drive on every operator's
// rows_produced(). Each drive compiles its own tree: rows_produced()
// accumulates across re-opens.

struct CompiledTree {
  std::unique_ptr<Operator> root;
  std::vector<Operator*> registry;
};

CompiledTree CompileWithMethod(const Catalog& catalog, const QuerySpec& spec,
                               JoinMethod method) {
  std::unique_ptr<PlanNode> plan = CanonicalSafePlan(spec);
  SetJoinMethod(plan.get(), method);
  CompiledTree tree;
  auto root = CompilePlan(catalog, spec, *plan, &tree.registry);
  JOINEST_CHECK(root.ok()) << root.status();
  tree.root = std::move(*root);
  return tree;
}

int64_t DriveCount(Operator& op) {
  op.Open();
  const int64_t count = op.Count();
  op.Close();
  return count;
}

std::vector<int64_t> RowsProduced(const std::vector<Operator*>& registry) {
  std::vector<int64_t> rows;
  for (const Operator* op : registry) rows.push_back(op->rows_produced());
  return rows;
}

// Checks both drives under every join method against the enumeration;
// returns the count.
int64_t ExpectCountParity(const Catalog& catalog, const QuerySpec& spec,
                          const std::string& what) {
  const int64_t expected = EnumerateJoin(catalog, spec, {}).rows;
  for (JoinMethod method :
       {JoinMethod::kHash, JoinMethod::kIndexNestedLoop,
        JoinMethod::kNestedLoop, JoinMethod::kBlockNestedLoop,
        JoinMethod::kSortMerge}) {
    const std::string label = what + ", " + JoinMethodName(method);
    const CompiledTree counted = CompileWithMethod(catalog, spec, method);
    const CompiledTree batched = CompileWithMethod(catalog, spec, method);
    const int64_t count = DriveCount(*counted.root);
    EXPECT_EQ(count, expected) << label;
    EXPECT_EQ(count, DrainBatches(*batched.root).rows) << label;
    EXPECT_EQ(RowsProduced(counted.registry), RowsProduced(batched.registry))
        << label;
    EXPECT_EQ(counted.root->rows_produced(), count) << label;
    // A counting join sums its matches and so returns no batches; a
    // draining one keeps the batch statistics of the batch drive.
    if (method == JoinMethod::kHash ||
        method == JoinMethod::kIndexNestedLoop) {
      EXPECT_EQ(counted.root->batches(), 0) << label;
    } else {
      EXPECT_EQ(counted.root->batches(), batched.root->batches()) << label;
      EXPECT_EQ(counted.root->batch_rows(), count) << label;
    }
  }
  return expected;
}

TEST(CountParityTest, CountMatchesEmitDrivesOnGeneratedWorkloads) {
  for (const ParityCase& c : ParityCases()) {
    const GeneratedWorkload w = MakeWorkload(c);
    EXPECT_GT(ExpectCountParity(w.catalog, w.spec,
                                "shape " +
                                    std::to_string(static_cast<int>(c.shape)) +
                                    " seed " + std::to_string(c.seed)),
              0);
  }
}

// An int64 key against a double key declines the fast probe: the hash join
// counts through the generic canonical-key probe.
TEST(CountParityTest, Int64AgainstDoubleKeyTakesTheGenericProbe) {
  Catalog catalog;
  JOINEST_CHECK(
      catalog
          .AddTable("I", IntTable({"a"}, {{1, 2, 3, 5, -7, 4000000000, 3}}))
          .ok());
  JOINEST_CHECK(
      catalog
          .AddTable("D", Table::FromColumns(
                             Schema({{"b", TypeKind::kDouble}}),
                             {ToValueColumn(std::vector<double>{
                                 1.0, 2.5, 3.0, 5.0, -7.0, 1e19,
                                 4000000000.0, 0.5, 3.0})}))
          .ok());
  QuerySpec spec = MakeCountSpec(catalog, 2);
  spec.predicates = {Join(0, 0, 1, 0)};
  // 1, 5, -7 and 4000000000 meet one twin each; the two 3s meet two.
  EXPECT_EQ(ExpectCountParity(catalog, spec, "int64/double"), 8);
  // Probing from the double side builds (and indexes) the int64 side.
  QuerySpec flipped;
  flipped.count_star = true;
  JOINEST_CHECK(flipped.AddTable(catalog, "D").ok());
  JOINEST_CHECK(flipped.AddTable(catalog, "I").ok());
  flipped.predicates = {Join(0, 0, 1, 0)};
  EXPECT_EQ(ExpectCountParity(catalog, flipped, "double/int64"), 8);
}

// Two key pairs: the hash join takes the generic multi-column key, and the
// index join probes on the first pair and checks the second as a residual.
TEST(CountParityTest, TwoKeyJoinChecksTheResidualKey) {
  Catalog catalog;
  JOINEST_CHECK(
      catalog
          .AddTable("A", IntTable({"x", "y"},
                                  {{1, 1, 1, 2, 2, 3}, {1, 2, 2, 1, 5, 3}}))
          .ok());
  JOINEST_CHECK(
      catalog
          .AddTable("B", IntTable({"x", "y"},
                                  {{1, 1, 2, 2, 3, 4}, {2, 3, 1, 1, 4, 4}}))
          .ok());
  QuerySpec spec = MakeCountSpec(catalog, 2);
  spec.predicates = {Join(0, 0, 1, 0), Join(0, 1, 1, 1)};
  // (1,2) twice meets one B row; (2,1) meets two.
  EXPECT_EQ(ExpectCountParity(catalog, spec, "two keys"), 4);
}

// A local predicate on the index join's inner table is re-checked per
// match, so the count must not add the whole match list.
TEST(CountParityTest, IndexJoinChecksTheInnerPredicate) {
  Catalog catalog;
  JOINEST_CHECK(
      catalog.AddTable("A", IntTable({"k"}, {{1, 1, 2, 3, 4}})).ok());
  JOINEST_CHECK(catalog
                    .AddTable("B", IntTable({"k", "v"},
                                            {{1, 1, 1, 2, 2, 3},
                                             {10, 20, 30, 10, 40, 50}}))
                    .ok());
  QuerySpec spec = MakeCountSpec(catalog, 2);
  spec.predicates = {Join(0, 0, 1, 0),
                     Predicate::LocalConst(ColumnRef{1, 1}, CompareOp::kLt,
                                           Value(int64_t{35}))};
  // Key 1: two A rows x three B rows; key 2: one x one; key 3's v fails.
  EXPECT_EQ(ExpectCountParity(catalog, spec, "inner predicate"), 7);
}

// TrueResultSize's fallback runs the canonical plan, whose top hash join
// counts: cross-check it against the enumeration and nested loops, which
// drain.
TEST(CountParityTest, MultiClassTriangleTruthMatchesNestedLoops) {
  Catalog catalog;
  const QuerySpec spec = MultiClassTriangle(catalog);
  const int64_t count = ExpectCountParity(catalog, spec, "triangle");
  EXPECT_GT(count, 0);
  auto truth = TrueResultSize(catalog, spec);
  ASSERT_TRUE(truth.ok()) << truth.status();
  EXPECT_EQ(*truth, count);
  EXPECT_EQ(*truth, CountWithMethod(catalog, spec, JoinMethod::kNestedLoop));
}

// ------------------------------------------------- Mixed-type join keys
//
// Regression: the seed hashed a double key by casting to int64 (undefined
// behaviour out of range) while equality compared numerically, so an int64
// column joined against a double column could drop or duplicate matches
// depending on the container's hashing. Canonical keys (integral in-range
// doubles collapse to int64) make hash and equality agree.

class MixedTypeKeyTest : public ::testing::Test {
 protected:
  MixedTypeKeyTest() {
    Table ints = Table::FromColumns(
        Schema({{"a", TypeKind::kInt64}}),
        {ToValueColumn(std::vector<int64_t>{1, 2, 3, 5, -7, 4000000000})});
    Table doubles = Table::FromColumns(
        Schema({{"b", TypeKind::kDouble}}),
        {ToValueColumn(std::vector<double>{1.0, 2.5, 3.0, 5.0, -7.0, 1e19,
                                           4000000000.0, 0.5})});
    JOINEST_CHECK(catalog_.AddTable("I", std::move(ints)).ok());
    JOINEST_CHECK(catalog_.AddTable("D", std::move(doubles)).ok());
    spec_ = MakeCountSpec(catalog_, 2);
    spec_.predicates.push_back(
        Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  }

  Catalog catalog_;
  QuerySpec spec_;
};

// Matches: 1, 3, 5, -7 and 4000000000 each pair with their double twin.
// 2.5 and 0.5 are fractional, 1e19 exceeds the int64 range — no partner.
TEST_F(MixedTypeKeyTest, HashJoinMatchesNumericEquality) {
  constexpr int64_t kExpected = 5;
  EXPECT_EQ(CountWithMethod(catalog_, spec_, JoinMethod::kNestedLoop),
            kExpected);
  EXPECT_EQ(CountWithMethod(catalog_, spec_, JoinMethod::kHash), kExpected);
  EXPECT_EQ(CountWithMethod(catalog_, spec_, JoinMethod::kSortMerge),
            kExpected);
}

TEST_F(MixedTypeKeyTest, TrueResultSizeMatches) {
  auto count = TrueResultSize(catalog_, spec_);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(*count, 5);
}

// Same join probed from the double side as the build side: the direction
// must not matter.
TEST_F(MixedTypeKeyTest, DirectionSymmetric) {
  QuerySpec flipped = MakeCountSpec(catalog_, 2);
  flipped.predicates.push_back(
      Predicate::Join(ColumnRef{1, 0}, ColumnRef{0, 0}));
  EXPECT_EQ(CountWithMethod(catalog_, flipped, JoinMethod::kHash), 5);
}

TEST(CanonicalValueTest, IntegralDoubleCollapsesToInt64) {
  EXPECT_EQ(Value(3.0).AsCanonicalInt64(), std::optional<int64_t>(3));
  EXPECT_EQ(Value(int64_t{3}).AsCanonicalInt64(), std::optional<int64_t>(3));
  EXPECT_EQ(Value(2.5).AsCanonicalInt64(), std::nullopt);
  // Out of int64 range: must not be cast (that cast is UB), must not match.
  EXPECT_EQ(Value(1e19).AsCanonicalInt64(), std::nullopt);
  EXPECT_EQ(Value(-1e19).AsCanonicalInt64(), std::nullopt);
  EXPECT_EQ(Value(std::string("3")).AsCanonicalInt64(), std::nullopt);
  // Hash/equality coherence: equal values hash equally across types.
  EXPECT_TRUE(Value(3.0) == Value(int64_t{3}));
  EXPECT_EQ(Value(3.0).Hash(), Value(int64_t{3}).Hash());
}

}  // namespace
}  // namespace joinest
