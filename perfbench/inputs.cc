#include "inputs.h"

#include <cmath>

#include "common/random.h"
#include "storage/datagen.h"
#include "types/schema.h"

namespace perfbench {

namespace {

using joinest::ColumnDef;
using joinest::Rng;
using joinest::Schema;
using joinest::Table;
using joinest::ToValueColumn;
using joinest::TypeKind;

// v is uniform over [0, 10^9). Plan queries compare it against constants
// in [base, base + 3 * i], so their selectivity stays within a fraction of
// a percent of base / 10^9 for any feasible run length.
constexpr int64_t kVDomain = 1000000000;
constexpr int64_t kPlanConstantBase = 100000000;  // ~10% of the first table.

// Skew queries select a window of v of fixed width at an offset unique to
// the request: a fresh random tenth of the first table each time, so the
// heavy keys a request meets vary around their expectation instead of
// being fixed per seed.
constexpr int64_t kSkewWindow = kVDomain / 10;
constexpr int64_t kSkewOffsets = kVDomain - kSkewWindow;  // Offsets [0, this).
constexpr int64_t kSkewStride = 282475249;  // 7^10, coprime to kSkewOffsets.

constexpr int kPlanTables = 8;
constexpr int kSkewTables = 6;
constexpr int64_t kSkewDomain = 2000;
constexpr double kSkewTheta = 0.9;

// The join columns of a skew table. j0 holds n values over {0..d-1} whose
// counts follow Zipf(theta) exactly (cumulative rounding; value v has rank
// v + 1, so value 0 is the most frequent), sorted. j1 holds the same values
// reversed and j2 the same values rotated by half, so no row is heavy in two
// columns and no single row dominates a request's cost. The columns are the
// same for every table and seed, so join sizes of whole tables never depend
// on the seed; only v, and with it which rows a request selects, does.
std::vector<std::vector<int64_t>> SkewJoinColumns(int64_t n, int64_t d,
                                                  double theta) {
  std::vector<double> cumulative(static_cast<size_t>(d));
  double total = 0;
  for (int64_t k = 0; k < d; ++k) {
    total += std::pow(static_cast<double>(k + 1), -theta);
    cumulative[static_cast<size_t>(k)] = total;
  }
  std::vector<int64_t> j0;
  j0.reserve(static_cast<size_t>(n));
  for (int64_t k = 0; k < d; ++k) {
    const auto upto = static_cast<int64_t>(std::llround(
        static_cast<double>(n) * cumulative[static_cast<size_t>(k)] / total));
    while (static_cast<int64_t>(j0.size()) < upto) j0.push_back(k);
  }
  std::vector<int64_t> j1(j0.rbegin(), j0.rend());
  std::vector<int64_t> j2(j0.size());
  for (size_t i = 0; i < j0.size(); ++i) {
    j2[i] = j0[(i + j0.size() / 2) % j0.size()];
  }
  return {std::move(j0), std::move(j1), std::move(j2)};
}

Rng RequestRng(uint64_t seed, Stream stream, int64_t i) {
  return Rng(seed ^ (static_cast<uint64_t>(stream) << 58) ^
             (static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull));
}

int64_t PlanConstant(Stream stream, int64_t i) {
  return kPlanConstantBase + 3 * i + static_cast<int64_t>(stream);
}

// The first `n` entries of a random permutation of `count` table indices.
std::vector<int64_t> PickTables(Rng& rng, int count, int n) {
  std::vector<int64_t> order = rng.Permutation(count);
  order.resize(static_cast<size_t>(n));
  return order;
}

std::string FromClause(const std::string& prefix,
                       const std::vector<int64_t>& tables) {
  std::string sql = "SELECT COUNT(*) FROM ";
  for (size_t k = 0; k < tables.size(); ++k) {
    if (k > 0) sql += ", ";
    sql += prefix + std::to_string(tables[k]);
  }
  return sql + " WHERE ";
}

std::string Equality(const std::string& prefix, int64_t a, int64_t b,
                     const std::string& column) {
  const std::string left = prefix + std::to_string(a) + "." + column;
  const std::string right = prefix + std::to_string(b) + "." + column;
  return left + " = " + right + " AND ";
}

}  // namespace

std::vector<NamedTable> MakePlanTables(uint64_t seed, int64_t base_rows,
                                       int64_t step_rows) {
  Rng rng(seed * 2 + 1);
  const Schema schema({ColumnDef{"k0", TypeKind::kInt64},
                       ColumnDef{"k1", TypeKind::kInt64},
                       ColumnDef{"k2", TypeKind::kInt64},
                       ColumnDef{"v", TypeKind::kInt64}});
  std::vector<NamedTable> tables;
  for (int t = 0; t < kPlanTables; ++t) {
    const int64_t rows = base_rows + t * step_rows;
    std::vector<std::vector<joinest::Value>> columns;
    for (int k = 0; k < 3; ++k) {
      const int64_t distinct = rng.NextInt(rows / 50, rows / 2);
      columns.push_back(
          ToValueColumn(joinest::MakeUniformColumn(rows, distinct, rng)));
    }
    columns.push_back(ToValueColumn(
        joinest::MakeUniformColumn(rows, kVDomain, rng, false)));
    tables.push_back(NamedTable{"T" + std::to_string(t),
                                Table::FromColumns(schema, std::move(columns))});
  }
  return tables;
}

std::string PlanQuerySql(uint64_t seed, Stream stream, int64_t i) {
  Rng rng = RequestRng(seed, stream, i);
  const int cls = static_cast<int>(i % kPlanClasses);
  const int shape = cls / 2;  // 0 chain, 1 star, 2 cycle, 3 dense.
  const bool multi_class = cls % 2 == 1;
  const int n = 3 + static_cast<int>((i / kPlanClasses) % 6);
  const std::vector<int64_t> t = PickTables(rng, kPlanTables, n);

  std::vector<std::pair<int, int>> edges;
  if (shape == 1) {
    for (int k = 1; k < n; ++k) edges.emplace_back(0, k);
  } else if (shape == 3) {
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) edges.emplace_back(a, b);
    }
  } else {
    for (int k = 0; k + 1 < n; ++k) edges.emplace_back(k, k + 1);
    if (shape == 2) edges.emplace_back(n - 1, 0);
  }

  std::string sql = FromClause("T", t);
  for (size_t e = 0; e < edges.size(); ++e) {
    const std::string column = "k" + std::to_string(multi_class ? e % 3 : 0);
    sql += Equality("T", t[static_cast<size_t>(edges[e].first)],
                    t[static_cast<size_t>(edges[e].second)], column);
  }
  return sql + "T" + std::to_string(t[0]) + ".v < " +
         std::to_string(PlanConstant(stream, i));
}

std::vector<NamedTable> MakeSkewTables(uint64_t seed, int64_t rows) {
  Rng rng(seed * 2 + 2);
  const Schema schema({ColumnDef{"j0", TypeKind::kInt64},
                       ColumnDef{"j1", TypeKind::kInt64},
                       ColumnDef{"j2", TypeKind::kInt64},
                       ColumnDef{"v", TypeKind::kInt64}});
  const std::vector<std::vector<int64_t>> joins =
      SkewJoinColumns(rows, kSkewDomain, kSkewTheta);
  std::vector<NamedTable> tables;
  for (int t = 0; t < kSkewTables; ++t) {
    std::vector<std::vector<joinest::Value>> columns;
    for (const std::vector<int64_t>& join : joins) {
      columns.push_back(ToValueColumn(join));
    }
    columns.push_back(ToValueColumn(
        joinest::MakeUniformColumn(rows, kVDomain, rng, false)));
    tables.push_back(NamedTable{"E" + std::to_string(t),
                                Table::FromColumns(schema, std::move(columns))});
  }
  return tables;
}

std::string SkewQuerySql(uint64_t seed, Stream stream, int64_t i) {
  Rng rng = RequestRng(seed, stream, i);
  const bool star = i % 2 == 1;
  const int n = 2 + static_cast<int>((i / 2) % 3);
  const std::vector<int64_t> t = PickTables(rng, kSkewTables, n);
  std::string sql = FromClause("E", t);
  for (int k = 1; k < n; ++k) {
    const int from = star ? 0 : k - 1;
    sql += Equality("E", t[static_cast<size_t>(from)],
                    t[static_cast<size_t>(k)], "j" + std::to_string(k - 1));
  }
  // Streams interleave over the offsets, so offsets are unique per
  // (stream, i).
  const int64_t slot = 3 * i + static_cast<int64_t>(stream);
  const int64_t offset = (slot % kSkewOffsets) * kSkewStride % kSkewOffsets;
  const std::string v = "E" + std::to_string(t[0]) + ".v";
  return sql + v + " >= " + std::to_string(offset) + " AND " + v + " < " +
         std::to_string(offset + kSkewWindow);
}

}  // namespace perfbench
