// Shared helpers for joinest tests.

#ifndef JOINEST_TESTS_TEST_UTIL_H_
#define JOINEST_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "executor/operator.h"
#include "query/query_spec.h"
#include "stats/column_stats.h"
#include "storage/catalog.h"
#include "storage/datagen.h"
#include "workloads/generator.h"

namespace joinest {

// Registers a table that carries hand-written statistics but no data.
// Estimation-only tests need just ||R|| and d per column.
inline int AddStatsOnlyTable(Catalog& catalog, const std::string& name,
                             std::vector<ColumnDef> columns, double rows,
                             std::vector<double> distinct) {
  JOINEST_CHECK_EQ(columns.size(), distinct.size());
  TableStats stats;
  stats.row_count = rows;
  for (double d : distinct) {
    ColumnStats col;
    col.distinct_count = d;
    stats.columns.push_back(col);
  }
  Table table{Schema(std::move(columns))};
  auto id =
      catalog.AddTableWithStats(name, std::move(table), std::move(stats));
  JOINEST_CHECK(id.ok()) << id.status();
  return *id;
}

// Stats-only int64 table with columns named c0, c1, ....
inline int AddStatsOnlyTable(Catalog& catalog, const std::string& name,
                             double rows, std::vector<double> distinct) {
  std::vector<ColumnDef> columns;
  for (size_t i = 0; i < distinct.size(); ++i) {
    columns.push_back({"c" + std::to_string(i), TypeKind::kInt64});
  }
  return AddStatsOnlyTable(catalog, name, std::move(columns), rows,
                           std::move(distinct));
}

// A QuerySpec over catalog tables [0, n) in registration order, COUNT(*).
inline QuerySpec MakeCountSpec(const Catalog& catalog, int n) {
  QuerySpec spec;
  spec.count_star = true;
  for (int t = 0; t < n; ++t) {
    auto index = spec.AddTable(catalog, catalog.table_name(t));
    JOINEST_CHECK(index.ok()) << index.status();
  }
  return spec;
}

// A generated `shape` query over `n` tables with a local predicate on
// table 0. Single-class queries come from GenerateWorkload. Multi-class
// ones join edge e on column k<e % 3> of tables with three uniform join
// columns, so a join step can cross two or three equivalence classes
// (GenerateWorkload's multi-class regime is a chain with one class per
// join, where a connected step never crosses two).
inline GeneratedWorkload ShapeWorkload(WorkloadOptions::Shape shape, int n,
                                       bool multi_class, uint64_t seed) {
  if (!multi_class) {
    WorkloadOptions options;
    options.shape = shape;
    options.num_tables = n;
    options.single_class = true;
    options.add_local_predicate = true;
    options.seed = seed;
    auto workload = GenerateWorkload(options);
    JOINEST_CHECK(workload.ok()) << workload.status();
    return std::move(*workload);
  }
  Rng rng(seed);
  GeneratedWorkload w;
  const Schema schema({{"k0", TypeKind::kInt64},
                       {"k1", TypeKind::kInt64},
                       {"k2", TypeKind::kInt64}});
  for (int t = 0; t < n; ++t) {
    const int64_t rows = rng.NextInt(100, 2000);
    std::vector<std::vector<Value>> columns;
    for (int c = 0; c < 3; ++c) {
      const int64_t distinct = rng.NextInt(10, std::min<int64_t>(rows, 400));
      columns.push_back(
          ToValueColumn(MakeUniformColumn(rows, distinct, rng)));
    }
    auto id =
        w.catalog.AddTable("T" + std::to_string(t),
                           Table::FromColumns(schema, std::move(columns)));
    JOINEST_CHECK(id.ok()) << id.status();
  }
  w.spec = MakeCountSpec(w.catalog, n);
  using Shape = WorkloadOptions::Shape;
  std::vector<std::pair<int, int>> edges;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const bool chain = b == a + 1;
      const bool closes_cycle = a == 0 && b == n - 1 && n > 2;
      if ((shape == Shape::kChain && chain) ||
          (shape == Shape::kCycle && (chain || closes_cycle)) ||
          (shape == Shape::kStar && a == 0) || shape == Shape::kClique) {
        edges.emplace_back(a, b);
      }
    }
  }
  for (size_t e = 0; e < edges.size(); ++e) {
    const int column = static_cast<int>(e % 3);
    w.spec.predicates.push_back(Predicate::Join(
        ColumnRef{edges[e].first, column}, ColumnRef{edges[e].second, column}));
  }
  const double d = w.catalog.stats(0).column(0).distinct_count;
  const int64_t bound = std::max<int64_t>(1, static_cast<int64_t>(d / 5));
  w.spec.predicates.push_back(
      Predicate::LocalConst(ColumnRef{0, 0}, CompareOp::kLt, Value(bound)));
  JOINEST_CHECK(w.spec.Validate(w.catalog).ok());
  return w;
}

// ------------------------------------------------ Result-set oracle
//
// A result set is summarised by its row count and an order-insensitive
// checksum: the sum of per-row hashes. Value::Hash hashes equal values
// equally across int64 and double, so the checksum compares multisets of
// rows under the engine's numeric equality.

struct ResultSummary {
  int64_t rows = 0;
  uint64_t checksum = 0;

  bool operator==(const ResultSummary& other) const {
    return rows == other.rows && checksum == other.checksum;
  }
};

inline std::ostream& operator<<(std::ostream& os, const ResultSummary& r) {
  return os << r.rows << " rows, checksum " << r.checksum;
}

// Folds one cell into a running row hash (splitmix64 finalizer).
inline uint64_t MixRowHash(uint64_t h, const Value& v) {
  uint64_t x = h ^ static_cast<uint64_t>(v.Hash());
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline constexpr uint64_t kRowHashSeed = 0xcbf29ce484222325ull;

inline uint64_t HashRow(const std::vector<Value>& row) {
  uint64_t h = kRowHashSeed;
  for (const Value& v : row) h = MixRowHash(h, v);
  return h;
}

inline bool CompareValues(const Value& left, CompareOp op,
                          const Value& right) {
  switch (op) {
    case CompareOp::kEq:
      return left == right;
    case CompareOp::kNe:
      return left != right;
    case CompareOp::kLt:
      return left < right;
    case CompareOp::kLe:
      return left <= right;
    case CompareOp::kGt:
      return left > right;
    case CompareOp::kGe:
      return left >= right;
  }
  return false;
}

// Brute-force oracle for `spec`'s join: nested loops over the base tables
// in spec order, each predicate checked with plain Value comparisons as
// soon as every table it names is bound, and each match projected onto
// `layout` (a base-table ColumnRef per output position; pass an operator's
// layout to compare with its output, or {} to count only). It uses no
// operator, hash table or plan, so it can judge all of them.
inline ResultSummary EnumerateJoin(const Catalog& catalog,
                                   const QuerySpec& spec,
                                   const std::vector<ColumnRef>& layout) {
  const int n = spec.num_tables();
  // Every table read back through the Value edge, row by row.
  std::vector<std::vector<std::vector<Value>>> tables;
  for (const TableRef& ref : spec.tables) {
    const Table& table = catalog.table(ref.catalog_id);
    std::vector<std::vector<Value>> rows;
    for (int64_t r = 0; r < table.num_rows(); ++r) rows.push_back(table.Row(r));
    tables.push_back(std::move(rows));
  }
  // ready[t]: the predicates whose last-bound table is t.
  std::vector<std::vector<const Predicate*>> ready(static_cast<size_t>(n));
  for (const Predicate& p : spec.predicates) {
    int last = p.left.table;
    if (p.kind != Predicate::Kind::kLocalConst) {
      last = std::max(last, p.right.table);
    }
    ready[static_cast<size_t>(last)].push_back(&p);
  }
  std::vector<size_t> bound(static_cast<size_t>(n), 0);
  auto cell = [&](ColumnRef ref) -> const Value& {
    const size_t t = static_cast<size_t>(ref.table);
    return tables[t][bound[t]][static_cast<size_t>(ref.column)];
  };
  ResultSummary result;
  // Binds table t to each of its rows in turn, then recurses into t + 1.
  auto bind = [&](auto& self, int t) -> void {
    if (t == n) {
      uint64_t h = kRowHashSeed;
      for (ColumnRef ref : layout) h = MixRowHash(h, cell(ref));
      ++result.rows;
      result.checksum += h;
      return;
    }
    const size_t ti = static_cast<size_t>(t);
    for (size_t r = 0; r < tables[ti].size(); ++r) {
      bound[ti] = r;
      bool pass = true;
      for (const Predicate* p : ready[ti]) {
        const Value& right = p->kind == Predicate::Kind::kLocalConst
                                 ? p->constant
                                 : cell(p->right);
        if (!CompareValues(cell(p->left), p->op, right)) {
          pass = false;
          break;
        }
      }
      if (pass) self(self, t + 1);
    }
  };
  bind(bind, 0);
  return result;
}

// Row `i` of `batch`, read as Values per the producer's `types`.
inline std::vector<Value> BatchRow(const RowBatch& batch,
                                   const std::vector<TypeKind>& types, int i) {
  std::vector<Value> row;
  for (size_t c = 0; c < types.size(); ++c) {
    row.push_back(
        CellToValue(types[c], batch.column(static_cast<int>(c))[i]));
  }
  return row;
}

// Opens `op`, drains it through batches of `capacity` rows, closes it, and
// summarises what it produced.
inline ResultSummary DrainBatches(Operator& op,
                                  int capacity = kDefaultBatchRows) {
  ResultSummary out;
  op.Open();
  RowBatch batch(capacity);
  while (op.NextBatch(batch)) {
    out.rows += batch.size();
    for (int i = 0; i < batch.size(); ++i) {
      out.checksum += HashRow(BatchRow(batch, op.types(), i));
    }
  }
  op.Close();
  return out;
}

}  // namespace joinest

#endif  // JOINEST_TESTS_TEST_UTIL_H_
