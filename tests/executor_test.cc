// Tests for executor/: each operator against brute-force expectations, plan
// compilation, and end-to-end execution.

#include <map>
#include <memory>
#include <string>

#include "executor/compile.h"
#include "executor/eval.h"
#include "executor/execute.h"
#include "executor/hash_table.h"
#include "executor/join_ops.h"
#include "executor/scan_ops.h"
#include "gtest/gtest.h"
#include "storage/datagen.h"
#include "tests/test_util.h"

namespace joinest {
namespace {

Value V(int64_t v) { return Value(v); }

using Row = std::vector<Value>;

// Drains an operator batch by batch and returns all produced rows.
std::vector<Row> Drain(Operator& op) {
  op.Open();
  std::vector<Row> rows;
  RowBatch batch;
  while (op.NextBatch(batch)) {
    for (int i = 0; i < batch.size(); ++i) {
      rows.push_back(BatchRow(batch, op.types(), i));
    }
  }
  op.Close();
  return rows;
}

Table MakeTable(const std::string& column,
                const std::vector<int64_t>& values) {
  return Table::FromColumns(Schema({{column, TypeKind::kInt64}}),
                            {ToValueColumn(values)});
}

// ---------------------------------------------------------------- Eval

TEST(EvalTest, AllOperators) {
  EXPECT_TRUE(EvalCompare(V(3), CompareOp::kEq, V(3)));
  EXPECT_FALSE(EvalCompare(V(3), CompareOp::kEq, V(4)));
  EXPECT_TRUE(EvalCompare(V(3), CompareOp::kNe, V(4)));
  EXPECT_TRUE(EvalCompare(V(3), CompareOp::kLt, V(4)));
  EXPECT_TRUE(EvalCompare(V(3), CompareOp::kLe, V(3)));
  EXPECT_TRUE(EvalCompare(V(4), CompareOp::kGt, V(3)));
  EXPECT_TRUE(EvalCompare(V(3), CompareOp::kGe, V(3)));
  EXPECT_FALSE(EvalCompare(V(2), CompareOp::kGe, V(3)));
}

// ---------------------------------------------------------------- Scan

TEST(SeqScanTest, EmitsAllRowsInOrder) {
  Table table = MakeTable("k", {4, 5, 6});
  SeqScanOperator scan(table, 0);
  const std::vector<Row> rows = Drain(scan);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsInt64(), 4);
  EXPECT_EQ(rows[2][0].AsInt64(), 6);
  EXPECT_EQ(scan.rows_produced(), 3);
}

TEST(SeqScanTest, LayoutIdentifiesColumns) {
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}, {"b", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1}),
       ToValueColumn(std::vector<int64_t>{2})});
  SeqScanOperator scan(table, 3);
  ASSERT_EQ(scan.layout().size(), 2u);
  EXPECT_EQ(scan.layout()[0], (ColumnRef{3, 0}));
  EXPECT_EQ(scan.layout()[1], (ColumnRef{3, 1}));
}

TEST(SeqScanTest, RescanAfterClose) {
  Table table = MakeTable("k", {1, 2});
  SeqScanOperator scan(table, 0);
  EXPECT_EQ(Drain(scan).size(), 2u);
  EXPECT_EQ(Drain(scan).size(), 2u);  // Open resets the cursor.
}

// ---------------------------------------------------------------- Filter

TEST(FilterTest, ConstPredicate) {
  Table table = MakeTable("k", {1, 5, 3, 8, 5});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  FilterOperator filter(
      std::move(scan),
      {Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kGe, V(5))});
  EXPECT_EQ(Drain(filter).size(), 3u);
}

TEST(FilterTest, ConjunctionOfPredicates) {
  Table table = MakeTable("k", {1, 2, 3, 4, 5, 6, 7, 8});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  FilterOperator filter(
      std::move(scan),
      {Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kGt, V(2)),
       Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt, V(6))});
  EXPECT_EQ(Drain(filter).size(), 3u);  // 3, 4, 5.
}

TEST(FilterTest, ColColPredicate) {
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}, {"b", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1, 2, 3}),
       ToValueColumn(std::vector<int64_t>{1, 5, 3})});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  FilterOperator filter(
      std::move(scan),
      {Predicate::LocalColCol(ColumnRef{0, 0}, CompareOp::kEq,
                              ColumnRef{0, 1})});
  EXPECT_EQ(Drain(filter).size(), 2u);  // Rows (1,1) and (3,3).
}

// ---------------------------------------------------------------- Project

TEST(ProjectTest, SelectsAndReordersColumns) {
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}, {"b", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1, 2}),
       ToValueColumn(std::vector<int64_t>{10, 20})});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  ProjectOperator project(std::move(scan),
                          {ColumnRef{0, 1}, ColumnRef{0, 0}});
  const std::vector<Row> rows = Drain(project);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt64(), 10);
  EXPECT_EQ(rows[0][1].AsInt64(), 1);
}

// ---------------------------------------------------------------- CountAgg

TEST(CountAggTest, CountsChildRows) {
  Table table = MakeTable("k", {1, 2, 3, 4});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  CountAggOperator agg(std::move(scan));
  const std::vector<Row> rows = Drain(agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 4);
}

TEST(GroupCountTest, CountsPerGroup) {
  Table table = Table::FromColumns(
      Schema({{"g", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1, 2, 1, 1, 3, 2})});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  GroupCountOperator group(std::move(scan), {ColumnRef{0, 0}});
  std::vector<Row> rows = Drain(group);
  ASSERT_EQ(rows.size(), 3u);
  int64_t total = 0;
  for (const Row& row : rows) {
    ASSERT_EQ(row.size(), 2u);
    const int64_t key = row[0].AsInt64();
    const int64_t count = row[1].AsInt64();
    total += count;
    if (key == 1) EXPECT_EQ(count, 3);
    if (key == 2) EXPECT_EQ(count, 2);
    if (key == 3) EXPECT_EQ(count, 1);
  }
  EXPECT_EQ(total, 6);
}

TEST(GroupCountTest, MultiColumnKeys) {
  Table table = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}, {"b", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1, 1, 2, 1}),
       ToValueColumn(std::vector<int64_t>{7, 8, 7, 7})});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  GroupCountOperator group(std::move(scan),
                           {ColumnRef{0, 0}, ColumnRef{0, 1}});
  EXPECT_EQ(Drain(group).size(), 3u);  // (1,7)x2, (1,8), (2,7).
}

TEST(GroupCountTest, EmptyInputYieldsNoGroups) {
  Table table = MakeTable("g", {});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  GroupCountOperator group(std::move(scan), {ColumnRef{0, 0}});
  EXPECT_TRUE(Drain(group).empty());
}

TEST(GroupCountTest, RescanRecomputes) {
  Table table = MakeTable("g", {5, 5, 6});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  GroupCountOperator group(std::move(scan), {ColumnRef{0, 0}});
  EXPECT_EQ(Drain(group).size(), 2u);
  EXPECT_EQ(Drain(group).size(), 2u);
}

// SELECT s, s, k over a 2,500-row filtered scan: the root's batch (1, 3 or
// the default) is smaller than the child's, so Project resumes mid-input,
// and the duplicated string column must be copied, not moved, into both
// positions.
TEST(ProjectTest, DuplicatedColumnResumesMidInput) {
  Catalog catalog;
  std::vector<int64_t> keys;
  std::vector<std::string> names;
  for (int64_t i = 0; i < 2500; ++i) {
    keys.push_back(i);
    names.push_back("name-" + std::to_string(i % 97));
  }
  JOINEST_CHECK(
      catalog
          .AddTable("S", Table::FromColumns(
                             Schema({{"k", TypeKind::kInt64},
                                     {"s", TypeKind::kString}}),
                             {ToValueColumn(keys), ToValueColumn(names)}))
          .ok());
  QuerySpec spec = MakeCountSpec(catalog, 1);
  spec.predicates = {
      Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kGe, V(100))};
  const std::vector<ColumnRef> columns = {ColumnRef{0, 1}, ColumnRef{0, 1},
                                          ColumnRef{0, 0}};
  ProjectOperator project(
      std::make_unique<FilterOperator>(
          std::make_unique<SeqScanOperator>(catalog.table(0), 0),
          spec.predicates),
      columns);
  const ResultSummary expected = EnumerateJoin(catalog, spec, columns);
  EXPECT_EQ(expected.rows, 2400);
  for (int capacity : {1, 3, kDefaultBatchRows}) {
    EXPECT_EQ(DrainBatches(project, capacity), expected)
        << "capacity " << capacity;
  }
}

// 1,500 groups: more than one default batch holds, so GroupCount emits its
// groups over several calls at every capacity. The expected rows are
// counted by hand over the base column.
TEST(GroupCountTest, MoreGroupsThanOneBatchHolds) {
  Catalog catalog;
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 4000; ++i) values.push_back((i * 7) % 1500);
  JOINEST_CHECK(catalog.AddTable("G", MakeTable("g", values)).ok());
  std::map<int64_t, int64_t> groups;
  for (int64_t v : values) ++groups[v];
  ResultSummary expected;
  for (const auto& [key, n] : groups) {
    ++expected.rows;
    expected.checksum += HashRow({V(key), V(n)});
  }
  ASSERT_EQ(expected.rows, 1500);
  GroupCountOperator group(
      std::make_unique<SeqScanOperator>(catalog.table(0), 0),
      {ColumnRef{0, 0}});
  for (int capacity : {1, 3, kDefaultBatchRows}) {
    EXPECT_EQ(DrainBatches(group, capacity), expected)
        << "capacity " << capacity;
  }
}

TEST(CountAggTest, EmptyInputCountsZero) {
  Table table = MakeTable("k", {});
  auto scan = std::make_unique<SeqScanOperator>(table, 0);
  CountAggOperator agg(std::move(scan));
  const std::vector<Row> rows = Drain(agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 0);
}

// ---------------------------------------------------------------- Joins

// Brute-force equi-join size for single-column tables.
int64_t BruteForceJoinSize(const std::vector<int64_t>& a,
                           const std::vector<int64_t>& b) {
  int64_t matches = 0;
  for (int64_t x : a) {
    for (int64_t y : b) {
      if (x == y) ++matches;
    }
  }
  return matches;
}

class JoinOperatorTest : public ::testing::TestWithParam<int> {
 protected:
  // Builds the join operator variant under test over two base tables.
  // `inner_predicates` (local to the right table) filter the right scan,
  // or are re-checked per match by the index join.
  std::unique_ptr<Operator> MakeJoin(
      const Table& left, const Table& right, std::vector<Predicate> predicates,
      std::vector<Predicate> inner_predicates = {}) {
    auto l = std::make_unique<SeqScanOperator>(left, 0);
    std::unique_ptr<Operator> r = std::make_unique<SeqScanOperator>(right, 1);
    if (!inner_predicates.empty() && GetParam() != 3) {
      r = std::make_unique<FilterOperator>(std::move(r), inner_predicates);
    }
    switch (GetParam()) {
      case 0:
        return std::make_unique<NestedLoopJoinOperator>(
            std::move(l), std::move(r), std::move(predicates));
      case 1:
        return std::make_unique<HashJoinOperator>(std::move(l), std::move(r),
                                                  std::move(predicates));
      case 2:
        return std::make_unique<SortMergeJoinOperator>(
            std::move(l), std::move(r), std::move(predicates));
      case 3:
        return std::make_unique<IndexNestedLoopJoinOperator>(
            std::move(l), right, 1, std::move(predicates),
            std::move(inner_predicates));
      case 4:
        return std::make_unique<BlockNestedLoopJoinOperator>(
            std::move(l), std::move(r), std::move(predicates));
      default:
        JOINEST_CHECK(false);
        return nullptr;
    }
  }
};

std::string JoinMethodParamName(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {"NestedLoop", "Hash", "SortMerge",
                                       "IndexNL", "BlockNestedLoop"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllMethods, JoinOperatorTest,
                         ::testing::Values(0, 1, 2, 3, 4),
                         JoinMethodParamName);

TEST_P(JoinOperatorTest, MatchesBruteForce) {
  Rng rng(42 + GetParam());
  const std::vector<int64_t> a = MakeUniformColumn(200, 30, rng);
  const std::vector<int64_t> b = MakeUniformColumn(150, 40, rng);
  Table left = MakeTable("a", a);
  Table right = MakeTable("b", b);
  auto join = MakeJoin(left, right,
                       {Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0})});
  EXPECT_EQ(static_cast<int64_t>(Drain(*join).size()),
            BruteForceJoinSize(a, b));
}

TEST_P(JoinOperatorTest, NoMatches) {
  Table left = MakeTable("a", {1, 2, 3});
  Table right = MakeTable("b", {10, 20});
  auto join = MakeJoin(left, right,
                       {Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0})});
  EXPECT_TRUE(Drain(*join).empty());
}

TEST_P(JoinOperatorTest, DuplicateKeysCrossProduct) {
  Table left = MakeTable("a", {7, 7, 7});
  Table right = MakeTable("b", {7, 7});
  auto join = MakeJoin(left, right,
                       {Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0})});
  EXPECT_EQ(Drain(*join).size(), 6u);
}

TEST_P(JoinOperatorTest, EmptyInputs) {
  Table left = MakeTable("a", {});
  Table right = MakeTable("b", {1, 2});
  auto join = MakeJoin(left, right,
                       {Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0})});
  EXPECT_TRUE(Drain(*join).empty());
}

TEST_P(JoinOperatorTest, OutputLayoutConcatenatesInputs) {
  Table left = MakeTable("a", {1});
  Table right = MakeTable("b", {1});
  auto join = MakeJoin(left, right,
                       {Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0})});
  ASSERT_EQ(join->layout().size(), 2u);
  EXPECT_EQ(join->layout()[0], (ColumnRef{0, 0}));
  EXPECT_EQ(join->layout()[1], (ColumnRef{1, 0}));
}

TEST_P(JoinOperatorTest, MultiKeyJoin) {
  Table left = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}, {"b", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1, 1, 2}),
       ToValueColumn(std::vector<int64_t>{10, 20, 10})});
  Table right = Table::FromColumns(
      Schema({{"c", TypeKind::kInt64}, {"d", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1, 1, 2}),
       ToValueColumn(std::vector<int64_t>{10, 30, 10})});
  auto l = std::make_unique<SeqScanOperator>(left, 0);
  auto r = std::make_unique<SeqScanOperator>(right, 1);
  std::vector<Predicate> predicates = {
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}),
      Predicate::Join(ColumnRef{0, 1}, ColumnRef{1, 1})};
  auto join = MakeJoin(left, right, predicates);
  // Matches: (1,10)-(1,10) and (2,10)-(2,10).
  EXPECT_EQ(Drain(*join).size(), 2u);
}

// L.a = R.c AND L.b = R.d AND R.e < 90 over duplicate-heavy keys, drained
// at the root through batches of 1, 3 and the default capacity, so each
// join stops and resumes mid-output: the hash join mid-span, nested loops
// mid-inner-batch, sort-merge mid-group cross product, and the index join
// mid-span (its table holds the R rows with e < 90, keyed on c and d).
// Rows and checksum must match the brute-force enumeration every time, and
// so must COUNT(*) over the join.
TEST_P(JoinOperatorTest, ResumesMidOutputAtAnyBatchCapacity) {
  Catalog catalog;
  JOINEST_CHECK(
      catalog
          .AddTable("L", Table::FromColumns(
                             Schema({{"a", TypeKind::kInt64},
                                     {"b", TypeKind::kInt64}}),
                             {ToValueColumn(std::vector<int64_t>{
                                  1, 1, 2, 2, 2, 3, 4, 4, 5, 1}),
                              ToValueColumn(std::vector<int64_t>{
                                  0, 0, 0, 1, 0, 0, 1, 1, 0, 0})}))
          .ok());
  JOINEST_CHECK(
      catalog
          .AddTable("R", Table::FromColumns(
                             Schema({{"c", TypeKind::kInt64},
                                     {"d", TypeKind::kInt64},
                                     {"e", TypeKind::kInt64}}),
                             {ToValueColumn(std::vector<int64_t>{
                                  1, 1, 1, 1, 1, 2, 2, 4, 4, 4, 4, 6}),
                              ToValueColumn(std::vector<int64_t>{
                                  0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0}),
                              ToValueColumn(std::vector<int64_t>{
                                  5, 15, 25, 35, 45, 55, 65, 75, 85, 95, 5,
                                  5})}))
          .ok());
  QuerySpec spec = MakeCountSpec(catalog, 2);
  const std::vector<Predicate> keys = {
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}),
      Predicate::Join(ColumnRef{0, 1}, ColumnRef{1, 1})};
  const Predicate inner =
      Predicate::LocalConst(ColumnRef{1, 2}, CompareOp::kLt, V(90));
  spec.predicates = {keys[0], keys[1], inner};
  const Table& left = catalog.table(0);
  const Table& right = catalog.table(1);

  auto join = MakeJoin(left, right, keys, {inner});
  const ResultSummary expected = EnumerateJoin(catalog, spec, join->layout());
  // (1,0) meets four R rows three times over: 12; (2,0) x2 and (2,1) meet
  // one each: 3; (4,1) meets two (e = 95 fails) twice: 4.
  EXPECT_EQ(expected.rows, 19);
  CountAggOperator count(MakeJoin(left, right, keys, {inner}));
  const ResultSummary expected_count{1, HashRow({V(expected.rows)})};
  for (int capacity : {1, 3, kDefaultBatchRows}) {
    EXPECT_EQ(DrainBatches(*join, capacity), expected)
        << "capacity " << capacity;
    EXPECT_EQ(DrainBatches(count, capacity), expected_count)
        << "capacity " << capacity;
  }
}

TEST(NestedLoopJoinTest, CartesianProductWithNoKeys) {
  Table left = MakeTable("a", {1, 2, 3});
  Table right = MakeTable("b", {10, 20});
  auto join = std::make_unique<NestedLoopJoinOperator>(
      std::make_unique<SeqScanOperator>(left, 0),
      std::make_unique<SeqScanOperator>(right, 1), std::vector<Predicate>{});
  EXPECT_EQ(Drain(*join).size(), 6u);
}

TEST(BlockNestedLoopJoinTest, CartesianProductWithNoKeys) {
  Table left = MakeTable("a", {1, 2, 3});
  Table right = MakeTable("b", {10, 20});
  auto join = std::make_unique<BlockNestedLoopJoinOperator>(
      std::make_unique<SeqScanOperator>(left, 0),
      std::make_unique<SeqScanOperator>(right, 1), std::vector<Predicate>{});
  EXPECT_EQ(Drain(*join).size(), 6u);
}

TEST(BlockNestedLoopJoinTest, InnerScannedOnce) {
  // BNL materialises the inner: the inner scan must produce its rows
  // exactly once no matter how many outer rows there are.
  Table left = MakeTable("a", {7, 7, 7, 7});
  Table right = MakeTable("b", {7, 8});
  auto inner_scan = std::make_unique<SeqScanOperator>(right, 1);
  SeqScanOperator* inner_ptr = inner_scan.get();
  auto join = std::make_unique<BlockNestedLoopJoinOperator>(
      std::make_unique<SeqScanOperator>(left, 0), std::move(inner_scan),
      std::vector<Predicate>{
          Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0})});
  EXPECT_EQ(Drain(*join).size(), 4u);
  EXPECT_EQ(inner_ptr->rows_produced(), 2);  // Once, not 4 × 2.
}

TEST(NestedLoopJoinTest, InnerRescannedPerOuterRow) {
  // The naive variant re-produces the inner for every outer row.
  Table left = MakeTable("a", {7, 7, 7, 7});
  Table right = MakeTable("b", {7, 8});
  auto inner_scan = std::make_unique<SeqScanOperator>(right, 1);
  SeqScanOperator* inner_ptr = inner_scan.get();
  auto join = std::make_unique<NestedLoopJoinOperator>(
      std::make_unique<SeqScanOperator>(left, 0), std::move(inner_scan),
      std::vector<Predicate>{
          Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0})});
  EXPECT_EQ(Drain(*join).size(), 4u);
  EXPECT_EQ(inner_ptr->rows_produced(), 8);  // 4 outer rows × 2.
}

TEST(IndexNLJoinTest, InnerPredicateApplied) {
  Table left = MakeTable("a", {1, 2, 3});
  Table right = MakeTable("b", {1, 2, 3});
  auto join = std::make_unique<IndexNestedLoopJoinOperator>(
      std::make_unique<SeqScanOperator>(left, 0), right, 1,
      std::vector<Predicate>{
          Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0})},
      std::vector<Predicate>{
          Predicate::LocalConst(ColumnRef{1, 0}, CompareOp::kLt, V(3))});
  EXPECT_EQ(Drain(*join).size(), 2u);  // b=3 never enters the table.
}

TEST(JoinOrientationTest, SwappedPredicateResolves) {
  // Predicate written as right-side = left-side still resolves.
  Table left = MakeTable("a", {1, 2});
  Table right = MakeTable("b", {2, 3});
  auto join = std::make_unique<HashJoinOperator>(
      std::make_unique<SeqScanOperator>(left, 0),
      std::make_unique<SeqScanOperator>(right, 1),
      std::vector<Predicate>{
          Predicate::Join(ColumnRef{1, 0}, ColumnRef{0, 0})});
  EXPECT_EQ(Drain(*join).size(), 1u);
}

// ---------------------------------------------------------------- Plans

TEST(PlanTest, CloneIsDeep) {
  auto scan = MakeScanNode(0, {});
  auto join = MakeJoinNode(JoinMethod::kHash, std::move(scan),
                           MakeScanNode(1, {}), {});
  join->estimated_rows = 42;
  auto clone = join->Clone();
  clone->estimated_rows = 7;
  clone->left->table_index = 9;
  EXPECT_DOUBLE_EQ(join->estimated_rows, 42);
  EXPECT_EQ(join->left->table_index, 0);
}

TEST(PlanTest, LeafOrderAndIntermediates) {
  auto plan = MakeJoinNode(
      JoinMethod::kHash,
      MakeJoinNode(JoinMethod::kHash, MakeScanNode(2, {}), MakeScanNode(0, {}),
                   {}),
      MakeScanNode(1, {}), {});
  plan->left->estimated_rows = 5;
  plan->estimated_rows = 3;
  EXPECT_EQ(PlanLeafOrder(*plan), (std::vector<int>{2, 0, 1}));
  EXPECT_EQ(PlanIntermediateEstimates(*plan), (std::vector<double>{5, 3}));
}

// ---------------------------------------------------------------- Execute

class ExecuteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    Table users = Table::FromColumns(
        Schema({{"uid", TypeKind::kInt64}}),
        {ToValueColumn(MakeSequentialColumn(50))});
    Table orders = Table::FromColumns(
        Schema({{"ouid", TypeKind::kInt64}}),
        {ToValueColumn(MakeUniformColumn(300, 50, rng))});
    JOINEST_CHECK(catalog_.AddTable("users", std::move(users)).ok());
    JOINEST_CHECK(catalog_.AddTable("orders", std::move(orders)).ok());
  }
  Catalog catalog_;
};

TEST_F(ExecuteTest, CountStarPlan) {
  QuerySpec spec = MakeCountSpec(catalog_, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  auto plan = MakeJoinNode(JoinMethod::kHash, MakeScanNode(0, {}),
                           MakeScanNode(1, {}), spec.predicates);
  auto result = ExecutePlan(catalog_, spec, *plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->count, 300);  // Every order matches exactly one user.
  EXPECT_EQ(result->output_rows, 1);
  EXPECT_GT(result->operators.size(), 0u);
}

TEST_F(ExecuteTest, ProjectionPlanReturnsRows) {
  QuerySpec spec = MakeCountSpec(catalog_, 2);
  spec.count_star = false;
  spec.select = {ColumnRef{0, 0}};
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  auto plan = MakeJoinNode(JoinMethod::kSortMerge, MakeScanNode(0, {}),
                           MakeScanNode(1, {}), spec.predicates);
  auto result = ExecutePlan(catalog_, spec, *plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->output_rows, 300);
}

TEST_F(ExecuteTest, FilterPushdownInPlan) {
  QuerySpec spec = MakeCountSpec(catalog_, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt, V(10)));
  auto plan = MakeJoinNode(
      JoinMethod::kHash,
      MakeScanNode(0, {Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt,
                                             V(10))}),
      MakeScanNode(1, {}), {spec.predicates[0]});
  auto result = ExecutePlan(catalog_, spec, *plan);
  ASSERT_TRUE(result.ok()) << result.status();
  auto truth = TrueResultSize(catalog_, spec);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(result->count, *truth);
}

TEST_F(ExecuteTest, IndexNLRequiresScanInner) {
  QuerySpec spec = MakeCountSpec(catalog_, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  auto inner_join = MakeJoinNode(JoinMethod::kHash, MakeScanNode(0, {}),
                                 MakeScanNode(1, {}), spec.predicates);
  auto bad = MakeJoinNode(JoinMethod::kIndexNestedLoop, MakeScanNode(0, {}),
                          std::move(inner_join), spec.predicates);
  EXPECT_FALSE(ExecutePlan(catalog_, spec, *bad).ok());
}

TEST_F(ExecuteTest, TrueResultSizeMatchesBruteForce) {
  QuerySpec spec = MakeCountSpec(catalog_, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{1, 0}, CompareOp::kGe, V(25)));
  auto truth = TrueResultSize(catalog_, spec);
  ASSERT_TRUE(truth.ok());
  // Brute force.
  const Table& users = catalog_.table(0);
  const Table& orders = catalog_.table(1);
  int64_t expected = 0;
  for (int64_t u = 0; u < users.num_rows(); ++u) {
    for (int64_t o = 0; o < orders.num_rows(); ++o) {
      if (users.at(u, 0) == orders.at(o, 0) &&
          orders.at(o, 0).AsInt64() >= 25) {
        ++expected;
      }
    }
  }
  EXPECT_EQ(*truth, expected);
}

TEST_F(ExecuteTest, TruePrefixSizesMatchIncrementalTruth) {
  QuerySpec spec = MakeCountSpec(catalog_, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  auto sizes = TruePrefixSizes(catalog_, spec, {0, 1});
  ASSERT_TRUE(sizes.ok()) << sizes.status();
  ASSERT_EQ(sizes->size(), 1u);
  EXPECT_EQ((*sizes)[0], *TrueResultSize(catalog_, spec));
  // Reversed order: same final truth.
  auto reversed = TruePrefixSizes(catalog_, spec, {1, 0});
  ASSERT_TRUE(reversed.ok());
  EXPECT_EQ((*reversed)[0], (*sizes)[0]);
}

TEST_F(ExecuteTest, TruePrefixSizesRejectsBadOrder) {
  QuerySpec spec = MakeCountSpec(catalog_, 2);
  EXPECT_FALSE(TruePrefixSizes(catalog_, spec, {0}).ok());
}

TEST_F(ExecuteTest, AllJoinMethodsAgree) {
  QuerySpec spec = MakeCountSpec(catalog_, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  int64_t reference = -1;
  for (JoinMethod method :
       {JoinMethod::kNestedLoop, JoinMethod::kBlockNestedLoop,
        JoinMethod::kHash, JoinMethod::kSortMerge,
        JoinMethod::kIndexNestedLoop}) {
    auto plan = MakeJoinNode(method, MakeScanNode(0, {}), MakeScanNode(1, {}),
                             spec.predicates);
    auto result = ExecutePlan(catalog_, spec, *plan);
    ASSERT_TRUE(result.ok()) << result.status();
    if (reference < 0) {
      reference = result->count;
    } else {
      EXPECT_EQ(result->count, reference) << JoinMethodName(method);
    }
  }
}

// ---------------------------------------------------------------- RowBatch

TEST(RowBatchTest, FillAndClear) {
  RowBatch batch(4);
  batch.SetWidth(2);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), 4);
  for (int i = 0; i < 4; ++i) {
    batch.column(0)[i] = i;
    batch.column(1)[i] = 10 * i;
  }
  batch.set_size(4);
  EXPECT_TRUE(batch.full());
  EXPECT_EQ(batch.column(1)[3], 30);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), 4);
  EXPECT_EQ(batch.width(), 2);
}

TEST(RowBatchTest, KeepCompactsEveryColumn) {
  RowBatch batch(8);
  batch.SetWidth(2);
  for (int i = 0; i < 6; ++i) {
    batch.column(0)[i] = i;
    batch.column(1)[i] = -i;
  }
  batch.set_size(6);
  batch.Keep({0, 1, 0, 1, 1, 0});
  ASSERT_EQ(batch.size(), 3);
  EXPECT_EQ(batch.column(0)[0], 1);
  EXPECT_EQ(batch.column(0)[1], 3);
  EXPECT_EQ(batch.column(0)[2], 4);
  EXPECT_EQ(batch.column(1)[2], -4);
}

// ----------------------------------------------------------- JoinHashTable

JoinHashTable SingleKeyTable(const std::vector<int64_t>& keys) {
  return JoinHashTable(1, keys, std::vector<char>(keys.size(), 1));
}

TEST(JoinHashTableTest, GroupsDuplicateKeys) {
  const JoinHashTable table = SingleKeyTable({5, 2, 5, 9, 5, 2});
  EXPECT_EQ(table.num_keys(), 3u);
  EXPECT_EQ(table.num_rows(), 6u);
  const int64_t five = 5, nine = 9, four = 4;
  EXPECT_EQ(table.Probe(&five).size, 3u);
  EXPECT_EQ(table.Probe(&nine).size, 1u);
  EXPECT_TRUE(table.Probe(&four).empty());
}

TEST(JoinHashTableTest, SpanCoversExactlyTheMatchingRows) {
  const std::vector<int64_t> keys = {1, 2, 1, 3, 1};
  const JoinHashTable table = SingleKeyTable(keys);
  const int64_t one = 1;
  const JoinHashTable::Span span = table.Probe(&one);
  ASSERT_EQ(span.size, 3u);
  for (uint32_t r : span) EXPECT_EQ(keys[r], 1);
}

// A double probing int64 keys encodes as the integer it equals exactly;
// a fractional or out-of-range double has no key and probes nothing.
TEST(JoinHashTableTest, DoubleProbesMatchOnlyExactIntegers) {
  const JoinHashTable table = SingleKeyTable({3, 4});
  const KeyEncoding encoding =
      KeyEncodingFor(TypeKind::kDouble, TypeKind::kInt64);
  int64_t key = 0;
  ASSERT_TRUE(EncodeKey(encoding, DoubleCell(3.0), &key));
  EXPECT_EQ(table.Probe(&key).size, 1u);
  EXPECT_FALSE(EncodeKey(encoding, DoubleCell(3.5), &key));
  EXPECT_FALSE(EncodeKey(encoding, DoubleCell(1e19), &key));
}

TEST(JoinHashTableTest, MultiColumnKeys) {
  // Rows (1,10), (1,20), (2,10), (1,10), row-major.
  const JoinHashTable table(2, {1, 10, 1, 20, 2, 10, 1, 10},
                            std::vector<char>(4, 1));
  EXPECT_EQ(table.num_keys(), 3u);
  const int64_t a[] = {1, 10}, b[] = {2, 10}, c[] = {2, 20}, d[] = {10, 1};
  EXPECT_EQ(table.Probe(a).size, 2u);
  EXPECT_EQ(table.Probe(b).size, 1u);
  EXPECT_TRUE(table.Probe(c).empty());
  EXPECT_TRUE(table.Probe(d).empty());
}

TEST(JoinHashTableTest, StringKeysMatchByCode) {
  StringDictionary& dictionary = StringDictionary::Global();
  const Cell x = dictionary.Intern("hash-x");
  const Cell y = dictionary.Intern("hash-y");
  const JoinHashTable table = SingleKeyTable({x, y, x});
  EXPECT_EQ(table.Probe(&x).size, 2u);
  const Cell z = dictionary.Intern("hash-z");
  EXPECT_TRUE(table.Probe(&z).empty());
}

// Rows left out of the build (unencodable keys, failed inner predicates)
// match nothing and take no payload entry.
TEST(JoinHashTableTest, ExcludedRowsNeverMatch) {
  const JoinHashTable table(1, {7, 8, 7}, {1, 0, 0});
  EXPECT_EQ(table.num_rows(), 1u);
  const int64_t seven = 7, eight = 8;
  EXPECT_EQ(table.Probe(&seven).size, 1u);
  EXPECT_TRUE(table.Probe(&eight).empty());
}

TEST(JoinHashTableTest, EmptyBuildSide) {
  const JoinHashTable table = SingleKeyTable({});
  const int64_t one = 1;
  EXPECT_TRUE(table.Probe(&one).empty());
}

// -------------------------------------------------------------- Batch path

TEST(BatchScanTest, NextBatchEmitsAllRows) {
  Rng rng(5);
  Table table = MakeTable("k", MakeUniformColumn(2500, 100, rng));
  SeqScanOperator scan(table, 0);
  scan.Open();
  RowBatch batch;
  int64_t rows = 0;
  int batches = 0;
  while (scan.NextBatch(batch)) {
    rows += batch.size();
    ++batches;
  }
  scan.Close();
  EXPECT_EQ(rows, 2500);
  EXPECT_GE(batches, 3);  // 2500 rows at 1024/batch.
  EXPECT_EQ(scan.rows_produced(), 2500);
}

TEST(BatchFilterTest, SkipsFullyFilteredBatches) {
  // 3000 rows, only the last 10 pass: the batch loop must not report an
  // empty batch as end-of-stream.
  std::vector<int64_t> values(3000, 0);
  for (int i = 0; i < 10; ++i) values[2990 + i] = 1;
  Table table = MakeTable("k", values);
  FilterOperator filter(
      std::make_unique<SeqScanOperator>(table, 0),
      {Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kEq, V(1))});
  filter.Open();
  RowBatch batch;
  int64_t rows = 0;
  while (filter.NextBatch(batch)) rows += batch.size();
  filter.Close();
  EXPECT_EQ(rows, 10);
}

TEST(OperatorTimingTest, ExecutePlanReportsPerOperatorSeconds) {
  Rng rng(9);
  Table table = MakeTable("k", MakeUniformColumn(5000, 50, rng));
  Catalog catalog;
  JOINEST_CHECK(catalog.AddTable("T", std::move(table)).ok());
  QuerySpec spec = MakeCountSpec(catalog, 1);
  auto plan = MakeScanNode(0, {});
  auto result = ExecutePlan(catalog, spec, *plan);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->operators.empty());
  for (const OperatorStats& stats : result->operators) {
    EXPECT_GE(stats.seconds, 0.0) << stats.name;
    // Inclusive wall-clock: no operator exceeds the whole query.
    EXPECT_LE(stats.seconds, result->seconds + 1e-9) << stats.name;
  }
}

}  // namespace
}  // namespace joinest
