// Cross-method and cross-path parity: every join method, the batch drive
// at any batch capacity, the count drive, and the factorized ground-truth
// count must produce identical results on the same query, and the same
// results as a brute-force enumeration over the base tables
// (EnumerateJoin, tests/test_util.h). Counts are the repo's ground truth
// (TrueResultSize feeds every estimator comparison), so parity here is
// load-bearing — a divergence anywhere silently corrupts the paper
// reproduction.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "executor/compile.h"
#include "executor/execute.h"
#include "executor/plan.h"
#include "executor/scan_ops.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
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

// ------------------------------------------------ Typed batch drive
//
// Operators run on column-major batches of typed cells. The batch drive of
// the compiled plan must produce the same row count AND the same multiset
// of rows as the brute-force enumeration over Values, whatever the root's
// batch capacity: 1 and 3 make every operator stop and resume mid-output
// (mid-span, mid-batch). The exact count must agree too.

void ExpectBatchParity(const Catalog& catalog, const QuerySpec& spec,
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
  auto truth = TrueResultSize(catalog, spec);
  ASSERT_TRUE(truth.ok()) << what << ": " << truth.status();
  EXPECT_EQ(*truth, expected.rows) << what;
}

// ------------------------------------------------ Ground-truth counting
//
// TrueResultSize counts without enumerating (a factorized COUNT(*) over a
// join tree, or the canonical plan when there is none). It must agree with
// both the canonical safe plan's COUNT(*) and the brute-force enumeration.

// Checks TrueResultSize against the enumeration and against canonical-plan
// execution (its keyed joins are hash joins already), drained at every
// capacity; returns the count.
int64_t ExpectTrueCountMatchesPlan(const Catalog& catalog,
                                   const QuerySpec& spec,
                                   const std::string& what) {
  ExpectBatchParity(catalog, spec, what.c_str());
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

// A double key between two int64 keys: messages carry keys encoded by the
// key rule, so 3.0 meets 3 and 2.5 meets nothing.
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

// ------------------------------------------------ Prefix sizes
//
// TruePrefixSizes counts every prefix of a join order in one walk over
// grouped counts. Each prefix counts exactly the predicates inside it, so
// every size must equal TrueResultSize of the prefix's own spec and the
// enumeration of it.

// The sub-query over the first k tables of `order`.
QuerySpec PrefixOf(const QuerySpec& spec, const std::vector<int>& order,
                   size_t k) {
  QuerySpec prefix;
  prefix.count_star = true;
  std::vector<int> remap(static_cast<size_t>(spec.num_tables()), -1);
  for (size_t i = 0; i < k; ++i) {
    prefix.tables.push_back(spec.tables[order[i]]);
    remap[order[i]] = static_cast<int>(i);
  }
  for (const Predicate& p : spec.predicates) {
    const bool local = p.kind == Predicate::Kind::kLocalConst;
    if (remap[p.left.table] < 0 || (!local && remap[p.right.table] < 0)) {
      continue;
    }
    Predicate mapped = p;
    mapped.left.table = remap[p.left.table];
    if (!local) mapped.right.table = remap[p.right.table];
    prefix.predicates.push_back(mapped);
  }
  return prefix;
}

std::string OrderName(const std::vector<int>& order) {
  std::string name = "order";
  for (int t : order) name += " " + std::to_string(t);
  return name;
}

// Checks TruePrefixSizes along `order` against each prefix's own count;
// returns the sizes.
std::vector<int64_t> ExpectPrefixParity(const Catalog& catalog,
                                        const QuerySpec& spec,
                                        const std::vector<int>& order,
                                        const std::string& what) {
  const std::string label = what + ", " + OrderName(order);
  auto sizes = TruePrefixSizes(catalog, spec, order);
  EXPECT_TRUE(sizes.ok()) << label << ": " << sizes.status();
  if (!sizes.ok()) return {};
  EXPECT_EQ(sizes->size(), order.size() - 1) << label;
  for (size_t k = 2; k <= order.size() && k - 2 < sizes->size(); ++k) {
    const QuerySpec prefix = PrefixOf(spec, order, k);
    auto truth = TrueResultSize(catalog, prefix);
    EXPECT_TRUE(truth.ok()) << label << ": " << truth.status();
    EXPECT_EQ((*sizes)[k - 2], truth.ok() ? *truth : -1)
        << label << ", prefix " << k;
    // Enumerated in a connected order, which keeps cartesian steps out
    // of the nested loops.
    std::vector<Predicate> joins;
    for (const Predicate& p : prefix.predicates) {
      if (p.kind == Predicate::Kind::kJoin) joins.push_back(p);
    }
    const QuerySpec connected =
        PrefixOf(prefix, CanonicalJoinOrder(prefix.num_tables(), joins), k);
    EXPECT_EQ((*sizes)[k - 2], EnumerateJoin(catalog, connected, {}).rows)
        << label << ", prefix " << k;
  }
  return *sizes;
}

// Checks every order of the spec's tables.
void ExpectPrefixParityInEveryOrder(const Catalog& catalog,
                                    const QuerySpec& spec,
                                    const std::string& what) {
  std::vector<int> order(static_cast<size_t>(spec.num_tables()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  do {
    ExpectPrefixParity(catalog, spec, order, what);
  } while (std::next_permutation(order.begin(), order.end()));
}

int64_t ScannedRows() {
  return MetricsRegistry::Global()
      .GetCounter("executor_morsel_rows_total")
      .Value();
}

int64_t BaseRows(const Catalog& catalog, const QuerySpec& spec) {
  int64_t rows = 0;
  for (const TableRef& ref : spec.tables) {
    rows += catalog.table(ref.catalog_id).num_rows();
  }
  return rows;
}

TEST(PrefixSizesTest, MatchPerPrefixCountsOnParityCasesInEveryOrder) {
  for (const ParityCase& c : ParityCases()) {
    const GeneratedWorkload w = MakeWorkload(c);
    ExpectPrefixParityInEveryOrder(
        w.catalog, w.spec,
        "shape " + std::to_string(static_cast<int>(c.shape)) + " seed " +
            std::to_string(c.seed));
  }
}

// Each table is scanned once per call: on a chain the grouped counts never
// outgrow their prefix, so the counter rises by exactly the base rows.
TEST(PrefixSizesTest, ScanEachTableOnce) {
  const GeneratedWorkload w =
      MakeWorkload({WorkloadOptions::Shape::kChain, 4, true, false, 7});
  for (const std::vector<int>& order :
       {std::vector<int>{0, 1, 2, 3}, std::vector<int>{3, 2, 1, 0}}) {
    const int64_t before = ScannedRows();
    ASSERT_TRUE(TruePrefixSizes(w.catalog, w.spec, order).ok());
    EXPECT_EQ(ScannedRows() - before, BaseRows(w.catalog, w.spec))
        << OrderName(order);
  }
}

// Closure off: A.x = B.x AND B.x = C.x says nothing about A and C, so the
// prefix A, C is their cartesian product, not a join on the class.
TEST(PrefixSizesTest, PrefixJoinsOnlyItsOwnPredicates) {
  Catalog catalog;
  JOINEST_CHECK(
      catalog.AddTable("A", IntTable({"x"}, {{1, 1, 2, 2, 2, 3}})).ok());
  JOINEST_CHECK(catalog.AddTable("B", IntTable({"x"}, {{1, 2, 2, 4}})).ok());
  JOINEST_CHECK(catalog.AddTable("C", IntTable({"x"}, {{2, 1, 2, 5, 2}})).ok());
  QuerySpec spec = MakeCountSpec(catalog, 3);
  spec.predicates = {Join(0, 0, 1, 0), Join(1, 0, 2, 0)};
  // x = 1: 2 x 1 x 1; x = 2: 3 x 2 x 3.
  EXPECT_EQ(ExpectPrefixParity(catalog, spec, {0, 2, 1}, "closure off"),
            (std::vector<int64_t>{30, 20}));
  ExpectPrefixParityInEveryOrder(catalog, spec, "closure off");
}

Table DoubleTable(const std::string& name, std::vector<double> values) {
  return Table::FromColumns(Schema({{name, TypeKind::kDouble}}),
                            {ToValueColumn(values)});
}

// D1.b = D2.b AND D2.b = I.a over double, double, int64: the prefix D1, D2
// compares doubles as doubles, so 2.5 meets 2.5 there; only the int64
// column drops the fraction, one level later.
TEST(PrefixSizesTest, KeyTypeIsEachPredicatesOwn) {
  Catalog catalog;
  JOINEST_CHECK(catalog.AddTable("D1", DoubleTable("b", {2.5, 3.0, 1.0})).ok());
  JOINEST_CHECK(catalog.AddTable("D2", DoubleTable("b", {2.5, 3.0, 3.0})).ok());
  JOINEST_CHECK(catalog.AddTable("I", IntTable({"a"}, {{3, 1}})).ok());
  QuerySpec spec = MakeCountSpec(catalog, 3);
  spec.predicates = {Join(0, 0, 1, 0), Join(1, 0, 2, 0)};
  EXPECT_EQ(ExpectPrefixParity(catalog, spec, {0, 1, 2}, "double prefix"),
            (std::vector<int64_t>{3, 2}));
  ExpectPrefixParityInEveryOrder(catalog, spec, "double prefix");
}

// -0.0 meets 0.0 and the int64 0; 2^53 + 1 meets no double, while 2^53
// meets its double twin. Every order joins an int64 prefix column to a
// double and a double prefix column to an int64 or a double.
TEST(PrefixSizesTest, SignedZeroAndLargeIntegersAcrossTypes) {
  Catalog catalog;
  JOINEST_CHECK(
      catalog
          .AddTable("I", IntTable({"a"}, {{0, 9007199254740993,
                                           9007199254740992, 5, 0}}))
          .ok());
  JOINEST_CHECK(catalog
                    .AddTable("D", DoubleTable("b", {-0.0, 0.0,
                                                     9007199254740992.0, 5.0,
                                                     0.5}))
                    .ok());
  JOINEST_CHECK(catalog
                    .AddTable("E", DoubleTable("c", {0.0, -0.0,
                                                     9007199254740992.0,
                                                     0.5}))
                    .ok());
  QuerySpec spec = MakeCountSpec(catalog, 3);
  spec.predicates = {Join(0, 0, 1, 0), Join(1, 0, 2, 0)};
  // I, D: zeros 2 x 2, 2^53 and 5 once each. All three: zeros 2 x 2 x 2,
  // 2^53 once.
  EXPECT_EQ(ExpectPrefixParity(catalog, spec, {0, 1, 2}, "zeros"),
            (std::vector<int64_t>{6, 9}));
  // D, E: zeros 2 x 2, 2^53 and 0.5 once each.
  EXPECT_EQ(ExpectPrefixParity(catalog, spec, {1, 2, 0}, "zeros"),
            (std::vector<int64_t>{6, 9}));
  ExpectPrefixParityInEveryOrder(catalog, spec, "zeros");
}

// A cycle through three classes: the last table joins on two predicates
// into the prefix at once.
TEST(PrefixSizesTest, MultiClassTriangle) {
  Catalog catalog;
  const QuerySpec spec = MultiClassTriangle(catalog);
  ExpectPrefixParityInEveryOrder(catalog, spec, "triangle");
}

// Satellites first, centre last: the prefix of two satellites groups by
// both of their keys, more groups than the prefix has rows, so that
// prefix and every later one are counted on their own.
TEST(PrefixSizesTest, StarWithItsCentreLastFallsBack) {
  Catalog catalog;
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 30; ++i) keys.push_back(i);
  for (const char* name : {"S1", "S2", "S3"}) {
    JOINEST_CHECK(catalog.AddTable(name, IntTable({"k"}, {keys})).ok());
  }
  JOINEST_CHECK(catalog
                    .AddTable("C", IntTable({"a", "b", "c"},
                                            {{1, 2, 3, 3, 40},
                                             {1, 2, 3, 4, 4},
                                             {1, 5, 3, 3, 4}}))
                    .ok());
  QuerySpec spec = MakeCountSpec(catalog, 4);
  spec.predicates = {Join(3, 0, 0, 0), Join(3, 1, 1, 0), Join(3, 2, 2, 0)};
  const int64_t before = ScannedRows();
  EXPECT_EQ(ExpectPrefixParity(catalog, spec, {0, 1, 2, 3}, "star"),
            (std::vector<int64_t>{900, 27000, 4}));
  // The parity check counts each prefix once more; the call itself scanned
  // more than the base rows.
  EXPECT_GT(ScannedRows() - before, 2 * BaseRows(catalog, spec));
  const int64_t centre_first = ScannedRows();
  ASSERT_TRUE(TruePrefixSizes(catalog, spec, {3, 0, 1, 2}).ok());
  EXPECT_EQ(ScannedRows() - centre_first, BaseRows(catalog, spec));
}

// A chain ordered with its ends first: the pair A, C shares no predicate,
// and grouped by both their keys it outnumbers its rows.
TEST(PrefixSizesTest, DisconnectedPairFallsBack) {
  Catalog catalog;
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 20; ++i) keys.push_back(i);
  JOINEST_CHECK(catalog.AddTable("A", IntTable({"x"}, {keys})).ok());
  JOINEST_CHECK(catalog
                    .AddTable("B", IntTable({"x", "y"},
                                            {{1, 2, 2, 3}, {4, 4, 5, 30}}))
                    .ok());
  JOINEST_CHECK(catalog.AddTable("C", IntTable({"y"}, {keys})).ok());
  QuerySpec spec = MakeCountSpec(catalog, 3);
  spec.predicates = {Join(0, 0, 1, 0), Join(1, 1, 2, 0)};
  const int64_t before = ScannedRows();
  auto sizes = TruePrefixSizes(catalog, spec, {0, 2, 1});
  ASSERT_TRUE(sizes.ok()) << sizes.status();
  EXPECT_GT(ScannedRows() - before, BaseRows(catalog, spec));
  EXPECT_EQ(*sizes, (std::vector<int64_t>{400, 3}));
  ExpectPrefixParityInEveryOrder(catalog, spec, "disconnected pair");
}

// Five 10,000-row tables on one key: the fifth prefix holds 10^20 rows,
// beyond int64.
TEST(PrefixSizesTest, PrefixBeyondInt64IsOutOfRange) {
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
  auto sizes = TruePrefixSizes(catalog, spec, {4, 3, 2, 1, 0});
  ASSERT_FALSE(sizes.ok());
  EXPECT_EQ(sizes.status().code(), StatusCode::kOutOfRange);
  spec.tables.pop_back();
  spec.predicates.pop_back();
  sizes = TruePrefixSizes(catalog, spec, {3, 2, 1, 0});
  ASSERT_TRUE(sizes.ok()) << sizes.status();
  EXPECT_EQ(*sizes, (std::vector<int64_t>{100000000, 1000000000000,
                                          10000000000000000}));
}

TEST(PrefixSizesTest, EmptyTableAndEmptyingFilter) {
  Catalog catalog;
  JOINEST_CHECK(catalog.AddTable("A", IntTable({"x"}, {{1, 2, 3}})).ok());
  JOINEST_CHECK(
      catalog.AddTable("E", IntTable({"x"}, {std::vector<int64_t>{}})).ok());
  JOINEST_CHECK(catalog.AddTable("B", IntTable({"x"}, {{1, 2}})).ok());
  QuerySpec spec = MakeCountSpec(catalog, 3);
  spec.predicates = {Join(0, 0, 1, 0), Join(1, 0, 2, 0)};
  ExpectPrefixParityInEveryOrder(catalog, spec, "empty table");
  // A filter no row of A passes empties the first table.
  spec.predicates = {Join(0, 0, 2, 0),
                     Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kGt,
                                           Value(int64_t{10}))};
  EXPECT_EQ(ExpectPrefixParity(catalog, spec, {0, 2, 1}, "emptied A"),
            (std::vector<int64_t>{0, 0}));
  ExpectPrefixParityInEveryOrder(catalog, spec, "emptied A");
}

TEST(TypedBatchParityTest, BatchMatchesEnumerationOnGeneratedWorkloads) {
  for (const ParityCase& c : ParityCases()) {
    const GeneratedWorkload w = MakeWorkload(c);
    ExpectBatchParity(w.catalog, w.spec, "generated workload");
  }
}

// Mixed-type tables: int64, double and string columns in one plan, so the
// filter compares each type plus int64 against double, and the join
// carries string payload cells.
class MixedTypeBatchTest : public ::testing::Test {
 protected:
  MixedTypeBatchTest() {
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

TEST_F(MixedTypeBatchTest, AllFilterComparisonsAgree) {
  // One predicate per comparison: int64 const, double const, string const,
  // int64 col-col, and the exact int64-vs-double comparison.
  ExpectBatchParity(
      catalog_,
      SpecWith({Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kGt,
                                      Value(int64_t{1}))}),
      "int64 const");
  ExpectBatchParity(
      catalog_,
      SpecWith({Predicate::LocalConst(ColumnRef{0, 1}, CompareOp::kLe,
                                      Value(5.0))}),
      "double const");
  ExpectBatchParity(
      catalog_,
      SpecWith({Predicate::LocalConst(ColumnRef{0, 2}, CompareOp::kEq,
                                      Value(std::string("a")))}),
      "string const");
  ExpectBatchParity(
      catalog_,
      SpecWith({Predicate::LocalColCol(ColumnRef{0, 0}, CompareOp::kGe,
                                       ColumnRef{0, 3})}),
      "int64 col-col");
  ExpectBatchParity(
      catalog_,
      SpecWith({Predicate::LocalColCol(ColumnRef{0, 1}, CompareOp::kLt,
                                       ColumnRef{0, 0})}),
      "double-vs-int64");
  // An int64 column against a double constant compares exactly.
  ExpectBatchParity(
      catalog_,
      SpecWith({Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt,
                                      Value(4.5))}),
      "int64 column vs double const");
}

TEST_F(MixedTypeBatchTest, ConjunctionAcrossTypesAgrees) {
  ExpectBatchParity(
      catalog_,
      SpecWith({Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kGt,
                                      Value(int64_t{1})),
                Predicate::LocalConst(ColumnRef{0, 2}, CompareOp::kNe,
                                      Value(std::string("d"))),
                Predicate::LocalColCol(ColumnRef{0, 1}, CompareOp::kLt,
                                       ColumnRef{0, 0})}),
      "mixed-type conjunction");
}

// The join's output carries int64, double and string cells.
TEST_F(MixedTypeBatchTest, JoinEmitsEveryCellType) {
  ExpectBatchParity(catalog_, SpecWith({}), "string payload join");
}

// An int64-vs-double join key meets only doubles that equal an integer
// exactly: 2^53 + 1 has no double twin, so it must not meet 2^53.
TEST(KernelMixedKeyParityTest, MixedKeyJoinStaysCorrect) {
  Catalog catalog;
  Table ints = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(std::vector<int64_t>{1, 2, 3, 5, -7, 4000000000,
                                          9007199254740993})});
  Table doubles = Table::FromColumns(
      Schema({{"b", TypeKind::kDouble}}),
      {ToValueColumn(std::vector<double>{1.0, 2.5, 3.0, 5.0, -7.0, 1e19,
                                         4000000000.0, 0.5,
                                         9007199254740992.0})});
  JOINEST_CHECK(catalog.AddTable("I", std::move(ints)).ok());
  JOINEST_CHECK(catalog.AddTable("D", std::move(doubles)).ok());
  QuerySpec spec = MakeCountSpec(catalog, 2);
  spec.predicates.push_back(Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  EXPECT_EQ(EnumerateJoin(catalog, spec, {}).rows, 5);
  ExpectBatchParity(catalog, spec, "mixed-type join key");
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

// Checks both drives under every join method against the enumeration, the
// batch drive at every root capacity; returns the count.
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
    const CompiledTree drained = CompileWithMethod(catalog, spec, method);
    const ResultSummary rows =
        EnumerateJoin(catalog, spec, drained.root->layout());
    for (int capacity : {1, 3, kDefaultBatchRows}) {
      EXPECT_EQ(DrainBatches(*drained.root, capacity), rows)  // Re-opens.
          << label << ", capacity " << capacity;
    }
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

// An int64 key against a double key: the double side encodes as the
// integer it equals exactly, or matches nothing.
TEST(CountParityTest, Int64AgainstDoubleKeyMeetsExactIntegers) {
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

// Two key pairs: the hash and index joins key their tables on both.
TEST(CountParityTest, TwoKeyJoinKeysOnBoth) {
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

// A local predicate on the index join's inner table keeps failing rows out
// of its table, so the count must not add them.
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
// depending on the container's hashing. Later, nested loops and sort-merge
// widened the int64 to double while the hash paths compared exactly, so
// 2^53 + 1 met 2^53 in some methods only. The key rule (a double meets an
// int64 only as the integer it equals exactly) serves every method.

class MixedTypeKeyTest : public ::testing::Test {
 protected:
  MixedTypeKeyTest() {
    Table ints = Table::FromColumns(
        Schema({{"a", TypeKind::kInt64}}),
        {ToValueColumn(std::vector<int64_t>{1, 2, 3, 5, -7, 4000000000,
                                            9007199254740993})});
    Table doubles = Table::FromColumns(
        Schema({{"b", TypeKind::kDouble}}),
        {ToValueColumn(std::vector<double>{1.0, 2.5, 3.0, 5.0, -7.0, 1e19,
                                           4000000000.0, 0.5,
                                           9007199254740992.0})});
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
// 2.5 and 0.5 are fractional, 1e19 exceeds the int64 range, and 2^53 + 1
// is not 2^53 — no partner.
TEST_F(MixedTypeKeyTest, HashJoinMatchesNumericEquality) {
  EXPECT_EQ(ExpectCountParity(catalog_, spec_, "int64/double"), 5);
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

// The key rule a double meets an int64 with: the integer it equals
// exactly, or no key at all.
TEST(KeyRuleTest, IntegralDoubleEncodesAsItsInt64) {
  const KeyEncoding as_int =
      KeyEncodingFor(TypeKind::kDouble, TypeKind::kInt64);
  auto key_of = [as_int](double d) -> std::optional<int64_t> {
    int64_t key = 0;
    if (!EncodeKey(as_int, DoubleCell(d), &key)) return std::nullopt;
    return key;
  };
  int64_t int_key = 0;
  ASSERT_TRUE(EncodeKey(KeyEncodingFor(TypeKind::kInt64, TypeKind::kDouble),
                        3, &int_key));
  EXPECT_EQ(int_key, 3);
  EXPECT_EQ(key_of(3.0), std::optional<int64_t>(3));
  EXPECT_EQ(key_of(2.5), std::nullopt);
  // Out of int64 range: must not be cast (that cast is UB), must not match.
  EXPECT_EQ(key_of(1e19), std::nullopt);
  EXPECT_EQ(key_of(-1e19), std::nullopt);
  // A string's key is its dictionary code, never a number's.
  EXPECT_EQ(KeyEncodingFor(TypeKind::kString, TypeKind::kString),
            KeyEncoding::kString);
  const Cell three = StringDictionary::Global().Intern("3");
  int64_t string_key = 0;
  ASSERT_TRUE(EncodeKey(KeyEncoding::kString, three, &string_key));
  EXPECT_EQ(string_key, three);
  EXPECT_NE(three, StringDictionary::Global().Intern("3.0"));
  // Hash/equality coherence: equal values hash equally across types.
  EXPECT_TRUE(Value(3.0) == Value(int64_t{3}));
  EXPECT_EQ(Value(3.0).Hash(), Value(int64_t{3}).Hash());
}

// Doubles against doubles: -0.0 meets 0.0, keys keep the doubles' order
// (the sort-merge join sorts on them), and no double's key is the integer
// its bit pattern spells.
TEST(KeyRuleTest, DoubleKeysOrderAndNeverAliasIntegers) {
  const KeyEncoding encoding =
      KeyEncodingFor(TypeKind::kDouble, TypeKind::kDouble);
  auto key_of = [encoding](double d) {
    int64_t key = 0;
    EXPECT_TRUE(EncodeKey(encoding, DoubleCell(d), &key));
    return key;
  };
  EXPECT_EQ(key_of(-0.0), key_of(0.0));
  const std::vector<double> ascending = {-1e300, -2.0, -1.0, -1e-300, 0.0,
                                         1e-300, 1.5, 2.0, 1e300};
  for (size_t i = 1; i < ascending.size(); ++i) {
    EXPECT_LT(key_of(ascending[i - 1]), key_of(ascending[i]))
        << ascending[i - 1] << " vs " << ascending[i];
  }
  EXPECT_NE(key_of(1.5), key_of(4609434218613702656.0));
  for (double d : ascending) {
    EXPECT_EQ(CellDouble(DecodeKey(encoding, key_of(d))), d);
  }
}

// ------------------------------------------------ Strings and doubles
//
// String cells are dictionary codes and double cells bit patterns; each
// case below is checked at root capacities 1, 3 and the default against
// the enumeration over Values and against TrueResultSize, and under every
// join method for the joins.

Table StringTable(const std::string& name,
                  const std::vector<std::string>& strings) {
  std::vector<int64_t> ids;
  for (size_t i = 0; i < strings.size(); ++i) {
    ids.push_back(static_cast<int64_t>(i));
  }
  return Table::FromColumns(
      Schema({{"id", TypeKind::kInt64}, {name, TypeKind::kString}}),
      {ToValueColumn(ids), ToValueColumn(strings)});
}

// B interns nothing new: its strings, listed in the opposite order, meet A's
// by code.
TEST(StringKeyParityTest, JoinAcrossOppositeInterningOrders) {
  Catalog catalog;
  std::vector<std::string> a;
  for (int i = 0; i < 12; ++i) a.push_back("opposite-" + std::to_string(i % 9));
  std::vector<std::string> b(a.rbegin(), a.rend());
  b.push_back("opposite-only-in-b");
  JOINEST_CHECK(catalog.AddTable("A", StringTable("s", a)).ok());
  JOINEST_CHECK(catalog.AddTable("B", StringTable("t", b)).ok());
  QuerySpec spec = MakeCountSpec(catalog, 2);
  spec.predicates = {Join(0, 1, 1, 1)};
  // Values 0-2 appear twice on each side (4 pairs each), 3-8 once (1 each).
  EXPECT_EQ(ExpectCountParity(catalog, spec, "string join"), 18);
  ExpectBatchParity(catalog, spec, "string join");
}

// Interning order pear, apple, zebra, mango is not lexicographic, so a
// range filter must read the strings: comparing codes would keep pear and
// zebra below mango.
TEST(StringKeyParityTest, RangeFilterReadsTheStrings) {
  Catalog catalog;
  JOINEST_CHECK(
      catalog
          .AddTable("F", StringTable("s", {"range-pear", "range-apple",
                                           "range-zebra", "range-mango",
                                           "range-apple", "range-kiwi"}))
          .ok());
  JOINEST_CHECK(catalog
                    .AddTable("G", IntTable({"id"}, {{0, 1, 2, 3, 4, 5, 5}}))
                    .ok());
  QuerySpec spec = MakeCountSpec(catalog, 2);
  spec.predicates = {
      Join(0, 0, 1, 0),
      Predicate::LocalConst(ColumnRef{0, 1}, CompareOp::kLt,
                            Value(std::string("range-mango")))};
  EXPECT_EQ(EnumerateJoin(catalog, spec, {}).rows, 4);  // Apples and kiwi.
  ExpectBatchParity(catalog, spec, "string < constant");
  // A constant no table holds has no code; ordering still reads the text.
  spec.predicates[1] = Predicate::LocalConst(
      ColumnRef{0, 1}, CompareOp::kGe, Value(std::string("range-l")));
  EXPECT_EQ(EnumerateJoin(catalog, spec, {}).rows, 3);  // Pear, zebra, mango.
  ExpectBatchParity(catalog, spec, "string >= absent constant");
  spec.predicates[1] = Predicate::LocalConst(
      ColumnRef{0, 1}, CompareOp::kNe, Value(std::string("range-absent")));
  ExpectBatchParity(catalog, spec, "string != absent constant");
}

// GROUP BY a string column: one output row per distinct string with its
// count, at every capacity, and ExecutePlan's total is the row count.
TEST(StringKeyParityTest, GroupByStringColumn) {
  Catalog catalog;
  std::vector<std::string> strings;
  for (int i = 0; i < 40; ++i) {
    strings.push_back("group-" + std::to_string((i * 7) % 11));
  }
  JOINEST_CHECK(catalog.AddTable("S", StringTable("s", strings)).ok());
  QuerySpec spec = MakeCountSpec(catalog, 1);
  spec.group_by = {ColumnRef{0, 1}};
  std::map<std::string, int64_t> counts;
  for (const std::string& s : strings) ++counts[s];
  ResultSummary expected;
  for (const auto& [s, n] : counts) {
    ++expected.rows;
    expected.checksum += HashRow({Value(s), Value(n)});
  }
  const std::unique_ptr<PlanNode> plan = CanonicalSafePlan(spec);
  auto root = CompilePlan(catalog, spec, *plan);
  ASSERT_TRUE(root.ok()) << root.status();
  GroupCountOperator group(std::move(*root), spec.group_by);
  for (int capacity : {1, 3, kDefaultBatchRows}) {
    EXPECT_EQ(DrainBatches(group, capacity), expected)
        << "capacity " << capacity;
  }
  auto result = ExecutePlan(catalog, spec, *plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->output_rows, 11);
  EXPECT_EQ(result->count, 40);
  auto truth = TrueResultSize(catalog, spec);
  ASSERT_TRUE(truth.ok()) << truth.status();
  EXPECT_EQ(*truth, 40);
}

// 1.5's bit pattern read as an integer is 4609434218613702656, which a
// double holds exactly: the two doubles differ and must not meet. -0.0
// meets 0.0.
TEST(DoubleKeyParityTest, BitPatternTwinsDoNotMatch) {
  Catalog catalog;
  auto doubles = [](const std::string& name, std::vector<double> values) {
    return Table::FromColumns(Schema({{name, TypeKind::kDouble}}),
                              {ToValueColumn(values)});
  };
  JOINEST_CHECK(
      catalog.AddTable("D", doubles("x", {1.5, 2.0, -0.0, 7.25})).ok());
  JOINEST_CHECK(catalog
                    .AddTable("E", doubles("y", {4609434218613702656.0, 2.0,
                                                 0.0, 7.25, 7.25}))
                    .ok());
  QuerySpec spec = MakeCountSpec(catalog, 2);
  spec.predicates = {Join(0, 0, 1, 0)};
  EXPECT_EQ(ExpectCountParity(catalog, spec, "double join"), 4);
  ExpectBatchParity(catalog, spec, "double join");
}

}  // namespace
}  // namespace joinest
