// Shared helpers for joinest tests.

#ifndef JOINEST_TESTS_TEST_UTIL_H_
#define JOINEST_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
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

}  // namespace joinest

#endif  // JOINEST_TESTS_TEST_UTIL_H_
