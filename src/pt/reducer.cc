#include "pt/reducer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "executor/eval.h"
#include "executor/join_ops.h"
#include "obs/metrics.h"
#include "pt/bloom.h"
#include "types/cell.h"

namespace joinest {

namespace {

// Probe/hash chunk size: small enough that one chunk's hash array stays
// cache-resident.
constexpr int64_t kChunkRows = 4096;

// Smallest filter we bother sizing; below this the power-of-two rounding
// dominates anyway and a tiny filter risks needless false positives when the
// distinct-count statistic undershoots.
constexpr int64_t kMinFilterKeys = 64;

// Rows of `table` satisfying every closed local predicate on query table
// `table_index`, filtered column-at-a-time over the typed cells as a scan's
// filter does. Sorted ascending by construction.
std::vector<int64_t> LocalAliveRows(const Table& table, int table_index,
                                    const std::vector<Predicate>& predicates) {
  std::vector<Predicate> local;
  for (const Predicate& p : predicates) {
    if (p.kind != Predicate::Kind::kJoin && p.left.table == table_index) {
      local.push_back(p);
    }
  }
  const TableColumns columns(table, table_index);
  const int64_t rows = table.num_rows();
  std::vector<char> keep;
  EvaluatePredicates(BindPredicates(local, columns.layout, columns.types),
                     columns, rows, keep);
  std::vector<int64_t> alive;
  alive.reserve(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    if (keep[static_cast<size_t>(r)] != 0) alive.push_back(r);
  }
  return alive;
}

// Bits per key from the build side's expected cardinality: a small filter
// is cache-resident anyway, so extra bits are nearly free and cut the
// false-positive rate; a huge filter overflows cache, where fewer bits per
// key keeps more of the probe path resident. Deterministic in `expected`,
// so every build of the same side derives identical geometry.
double AdaptiveBitsPerKey(int64_t expected) {
  const double log_keys =
      std::log2(static_cast<double>(std::max<int64_t>(expected, 2)));
  return std::clamp(32.0 - 1.25 * log_keys, 6.0, 18.0);
}

}  // namespace

int64_t PtResult::rows_pruned() const {
  int64_t pruned = 0;
  for (const PtTableStats& t : tables) {
    if (t.selected) pruned += t.raw_rows - t.final_rows;
  }
  return pruned;
}

StatusOr<PtResult> RunPredicateTransfer(const Catalog& catalog,
                                        const QuerySpec& spec) {
  const auto start = std::chrono::steady_clock::now();

  PtResult result;
  result.selections.row_ids.resize(static_cast<size_t>(spec.num_tables()));
  if (spec.num_tables() < 2) return result;

  const PtDag dag = PtDag::Build(spec);
  if (dag.num_builds == 0) return result;  // No multi-table class.

  // Per-table surviving row ids, seeded from the closed local predicates.
  std::vector<std::vector<int64_t>> alive(
      static_cast<size_t>(spec.num_tables()));
  std::vector<int64_t> raw_rows(static_cast<size_t>(spec.num_tables()), 0);
  for (int t = 0; t < spec.num_tables(); ++t) {
    const Table& table = catalog.table(spec.tables[t].catalog_id);
    raw_rows[static_cast<size_t>(t)] = table.num_rows();
    alive[static_cast<size_t>(t)] =
        LocalAliveRows(table, t, dag.closed_predicates);
  }
  std::vector<int64_t> post_local(static_cast<size_t>(spec.num_tables()));
  for (int t = 0; t < spec.num_tables(); ++t) {
    post_local[static_cast<size_t>(t)] =
        static_cast<int64_t>(alive[static_cast<size_t>(t)].size());
  }

  // One filter slot per class, separate arrays per pass direction. A build
  // REPLACES the slot (cascading intersection), so a later probe always sees
  // the most-reduced upstream member.
  std::vector<std::unique_ptr<BlockedBloomFilter>> forward_filters(
      static_cast<size_t>(dag.classes.num_classes()));
  std::vector<std::unique_ptr<BlockedBloomFilter>> backward_filters(
      static_cast<size_t>(dag.classes.num_classes()));

  std::vector<uint64_t> hashes(static_cast<size_t>(kChunkRows));
  std::vector<char> keep(static_cast<size_t>(kChunkRows));

  for (const PtStep& step : dag.steps) {
    if (step.probes.empty() && step.builds.empty()) continue;
    const int t = step.table;
    const Table& table = catalog.table(spec.tables[t].catalog_id);
    auto& filters = step.forward ? forward_filters : backward_filters;
    std::vector<int64_t>& ids = alive[static_cast<size_t>(t)];

    for (const PtColumnFilter& probe : step.probes) {
      const BlockedBloomFilter* filter =
          filters[static_cast<size_t>(probe.class_id)].get();
      // Backward-pass probes at the tail table have no filter yet (the tail
      // is the first builder of the backward pass) — the schedule never
      // emits those, so a missing filter is a schedule bug.
      JOINEST_CHECK(filter != nullptr)
          << "pt probe before build for class " << probe.class_id;
      PtFilterStats stats;
      stats.table = t;
      stats.table_name = catalog.table_name(spec.tables[t].catalog_id);
      stats.column = probe.column;
      stats.column_name = table.schema().column(probe.column).name;
      stats.forward = step.forward;
      stats.probed = static_cast<int64_t>(ids.size());

      const TypeKind type = table.schema().column(probe.column).type;
      const Cell* cells = table.cells(probe.column).data();
      size_t out = 0;
      for (size_t base = 0; base < ids.size();
           base += static_cast<size_t>(kChunkRows)) {
        const int count = static_cast<int>(
            std::min(static_cast<size_t>(kChunkRows), ids.size() - base));
        for (int i = 0; i < count; ++i) {
          hashes[static_cast<size_t>(i)] =
              HashCell(type, cells[ids[base + static_cast<size_t>(i)]]);
        }
        filter->Probe(hashes.data(), count, keep.data());
        for (int i = 0; i < count; ++i) {
          if (keep[static_cast<size_t>(i)] != 0) {
            ids[out++] = ids[base + static_cast<size_t>(i)];
          }
        }
      }
      ids.resize(out);

      stats.passed = static_cast<int64_t>(out);
      stats.pass_rate = stats.probed > 0 ? static_cast<double>(stats.passed) /
                                               static_cast<double>(stats.probed)
                                         : 1.0;
      result.filters.push_back(std::move(stats));
    }

    for (const PtColumnFilter& build : step.builds) {
      // Size from the smaller of the statistic's distinct count and the live
      // row count — only distinct values occupy bits.
      const TableStats& stats = catalog.stats(spec.tables[t].catalog_id);
      const double stat_distinct =
          build.column < static_cast<int>(stats.columns.size())
              ? stats.column(build.column).distinct_count
              : static_cast<double>(ids.size());
      const int64_t expected = std::max(
          kMinFilterKeys,
          std::min(static_cast<int64_t>(ids.size()),
                   static_cast<int64_t>(std::llround(
                       std::max(1.0, stat_distinct)))));
      auto filter = std::make_unique<BlockedBloomFilter>(
          expected, AdaptiveBitsPerKey(expected));
      const TypeKind type = table.schema().column(build.column).type;
      const Cell* cells = table.cells(build.column).data();
      for (const int64_t r : ids) filter->Add(HashCell(type, cells[r]));
      filters[static_cast<size_t>(build.class_id)] = std::move(filter);
    }
  }

  // Attach selections where the reduction actually removed rows; a table
  // still at full cardinality keeps its plain SeqScan.
  result.tables.reserve(static_cast<size_t>(spec.num_tables()));
  for (int t = 0; t < spec.num_tables(); ++t) {
    PtTableStats ts;
    ts.table = t;
    ts.table_name = catalog.table_name(spec.tables[t].catalog_id);
    ts.raw_rows = raw_rows[static_cast<size_t>(t)];
    ts.post_local_rows = post_local[static_cast<size_t>(t)];
    ts.final_rows = static_cast<int64_t>(alive[static_cast<size_t>(t)].size());
    ts.survival = ts.post_local_rows > 0
                      ? static_cast<double>(ts.final_rows) /
                            static_cast<double>(ts.post_local_rows)
                      : 1.0;
    if (ts.final_rows < ts.raw_rows) {
      result.selections.row_ids[static_cast<size_t>(t)] =
          std::make_shared<const std::vector<int64_t>>(
              std::move(alive[static_cast<size_t>(t)]));
      ts.selected = true;
    }
    result.tables.push_back(std::move(ts));
  }

  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("pt_runs", "Predicate-transfer reductions executed")
      .Increment();
  registry
      .GetCounter("pt_rows_pruned",
                  "Rows removed from base scans by predicate transfer")
      .Add(result.rows_pruned());
  for (const PtFilterStats& f : result.filters) {
    registry
        .GetGauge("pt_pass_rate",
                  "Latest Bloom pass rate per probed join column",
                  {{"table", f.table_name}, {"column", f.column_name}})
        .Set(f.pass_rate);
  }
  return result;
}

void RecordRuntimeSelectivities(const PtResult& result,
                                RuntimeSelectivityStore& store) {
  // Combined pass rate per (table, column): the product over every probe of
  // that column — the fraction of its post-local distincts/rows with join
  // partners everywhere the class reaches.
  std::map<std::pair<std::string, int>, double> combined;
  for (const PtFilterStats& f : result.filters) {
    auto [it, inserted] =
        combined.emplace(std::make_pair(f.table_name, f.column), f.pass_rate);
    if (!inserted) it->second *= f.pass_rate;
  }
  for (const auto& [key, rate] : combined) {
    store.RecordColumnPassRate(key.first, key.second, rate);
  }
  for (const PtTableStats& t : result.tables) {
    store.RecordTableSurvival(t.table_name, t.survival);
  }
}

}  // namespace joinest
