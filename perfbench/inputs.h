// Seeded inputs of the perfbench workloads: the generated tables and the
// SQL of every request. The program under test sees nothing else.
//
// Two schemas:
//   * plan tables T0..T7 (plan_cold, serve_mixed): join columns k0, k1, k2
//     uniform over per-column domains, and v uniform over [0, 10^9) for
//     local predicates. Sizes are fixed per workload, so set-up time and
//     memory do not depend on the seed.
//   * skew tables E0..E5 (explain_skew): join columns j0, j1, j2 with
//     exact Zipf(0.9) value counts (value 0 most frequent in every table, so
//     joins fan out) and the same v column. Only v depends on the seed.
//
// Request i of a stream is a pure function of (seed, stream, i). Its
// shape class cycles with i, so every class has the same share of any
// run, and its local-predicate constant is unique to (stream, i), so no
// two requests of a run share a fingerprint.

#ifndef JOINEST_PERFBENCH_INPUTS_H_
#define JOINEST_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "storage/table.h"

namespace perfbench {

struct NamedTable {
  std::string name;
  joinest::Table table;
};

// Request streams; each has its own constants and table draws.
enum class Stream : uint64_t { kTimed = 0, kWarmup = 1, kHotSet = 2 };

// Eight plan tables; table t has base_rows + t * step_rows rows.
std::vector<NamedTable> MakePlanTables(uint64_t seed, int64_t base_rows,
                                       int64_t step_rows);

// Plan query i: 3-8 tables in chain, star, cycle or dense (clique) shape,
// single- or multi-class; eight classes in rotation.
std::string PlanQuerySql(uint64_t seed, Stream stream, int64_t i);
inline constexpr int kPlanClasses = 8;

// Six skew tables of `rows` rows each.
std::vector<NamedTable> MakeSkewTables(uint64_t seed, int64_t rows);

// Skew query i: a 2-4-table chain or star over the skew tables.
std::string SkewQuerySql(uint64_t seed, Stream stream, int64_t i);

// The paper's §8 query over BuildPaperDataset's S, M, B, G.
inline constexpr const char* kSection8Sql =
    "SELECT COUNT(*) FROM S, M, B, G WHERE S.s = M.m AND M.m = B.b AND "
    "B.b = G.g AND S.s < 100";

}  // namespace perfbench

#endif  // JOINEST_PERFBENCH_INPUTS_H_
