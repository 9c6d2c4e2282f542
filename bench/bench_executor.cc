// Executor throughput: the vectorized execution path and the ground-truth
// count against a replica of the seed's hash join, on a COUNT(*) over a
// 3-table chain.
//
// Modes, all required to produce bit-identical counts:
//   seed_tuple    — a faithful replica of the pre-refactor hash join's
//                   containers (unordered_map<vector<Value>, vector<Row>>
//                   build, per-probe key vector allocation). Operators have
//                   one drive now, so it and its scans run through the
//                   batch hooks; the mode keeps its historical name;
//   batch         — the batch driver over typed column-major batches;
//   count         — Operator::Count on the same tree: the top hash join
//                   adds its match-span sizes instead of emitting rows
//                   (what a COUNT(*) plan runs);
//   batch_recorder — batch plus the flight-recorder capture the service
//                   layer performs per query (one QueryRecord per run into
//                   an enabled recorder);
//   truth         — TrueResultSize, the factorized count that never
//                   enumerates the join.
//
// Each mode runs one warm-up plus five timed runs, interleaved with
// the other modes' runs; the reported wall time is the median
// (bench/timing.h). rows/sec normalises by total
// base-table rows so the modes are comparable. Two same-run checks fail
// the run, in smoke and full mode alike:
//   batch >= 2x seed_tuple        — the flat hash table's fast path is lost
//                                   (e.g. every key hashes alike);
//   batch_recorder >= 0.3x batch  — one recorder capture costs more than
//                                   twice the query it records.
// The second check cannot resolve a 2% recorder overhead: its reading
// moves by more than that between runs of unchanged code.
//
// Usage: bench_executor [--smoke]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "executor/compile.h"
#include "executor/execute.h"
#include "executor/join_ops.h"
#include "executor/scan_ops.h"
#include "obs/flight_recorder.h"
#include "storage/catalog.h"
#include "storage/datagen.h"
#include "storage/table.h"
#include "timing.h"

namespace joinest {
namespace {

// ------------------------------------------------- Seed-replica hash join
//
// The hash join as it existed before the flat-table rewrite, preserved here
// as the benchmark baseline: build side collected into an
// unordered_map<vector<Value>, vector<Row>>, probe side allocating a fresh
// key vector per row, output rows rebuilt by clear + insert. Kept faithful
// in the parts that matter for cost (container, allocations, hashing),
// adapted only to the batch operator hooks: its input cells are read back
// as Values, and its output rows are stored back as cells.
class SeedHashJoinOperator : public Operator {
 public:
  using Row = std::vector<Value>;

  SeedHashJoinOperator(std::unique_ptr<Operator> left,
                       std::unique_ptr<Operator> right,
                       std::vector<Predicate> predicates)
      : left_(std::move(left)), right_(std::move(right)) {
    layout_ = left_->layout();
    for (const ColumnRef& ref : right_->layout()) layout_.push_back(ref);
    types_ = left_->types();
    for (TypeKind type : right_->types()) types_.push_back(type);
    keys_ = ResolveJoinKeys(left_->layout(), left_->types(), right_->layout(),
                            right_->types(), predicates);
    JOINEST_CHECK(!keys_.left.positions.empty())
        << "hash join requires at least one key";
  }

  std::string name() const override { return "SeedHashJoin"; }

 protected:
  void OpenImpl() override {
    left_->Open();
    right_->Open();
    build_.clear();
    RowBatch batch;
    while (right_->NextBatch(batch)) {
      for (int i = 0; i < batch.size(); ++i) {
        const Row row = ReadRow(batch, right_->types(), i);
        std::vector<Value> key;
        key.reserve(keys_.right.positions.size());
        for (int pos : keys_.right.positions) key.push_back(row[pos]);
        build_[std::move(key)].push_back(row);
      }
    }
    right_->Close();
    input_.Clear();
    input_pos_ = 0;
    matches_ = nullptr;
    match_cursor_ = 0;
  }

  bool NextBatchImpl(RowBatch& batch) override {
    batch.Clear();
    while (!batch.full()) {
      if (matches_ != nullptr && match_cursor_ < matches_->size()) {
        const Row& inner = (*matches_)[match_cursor_++];
        row_.clear();
        row_.reserve(outer_.size() + inner.size());
        row_.insert(row_.end(), outer_.begin(), outer_.end());
        row_.insert(row_.end(), inner.begin(), inner.end());
        const int n = batch.size();
        for (size_t c = 0; c < row_.size(); ++c) {
          batch.column(static_cast<int>(c))[n] =
              ValueToCell(types_[c], row_[c]);
        }
        batch.set_size(n + 1);
        ++rows_produced_;
      } else if (input_pos_ < input_.size()) {
        outer_ = ReadRow(input_, left_->types(), input_pos_++);
        std::vector<Value> key;
        key.reserve(keys_.left.positions.size());
        for (int pos : keys_.left.positions) key.push_back(outer_[pos]);
        const auto it = build_.find(key);
        matches_ = it != build_.end() ? &it->second : nullptr;
        match_cursor_ = 0;
      } else {
        if (!left_->NextBatch(input_)) break;
        input_pos_ = 0;
      }
    }
    return !batch.empty();
  }

  void CloseImpl() override {
    left_->Close();
    build_.clear();
  }

 private:
  struct KeyHash {
    size_t operator()(const std::vector<Value>& key) const {
      size_t h = 0x9e3779b97f4a7c15ull;
      for (const Value& v : key) {
        h ^= v.Hash() + 0x9e3779b97f4a7c15ull + (h << 6);
      }
      return h;
    }
  };

  static Row ReadRow(const RowBatch& batch, const std::vector<TypeKind>& types,
                     int i) {
    Row row;
    row.reserve(types.size());
    for (size_t c = 0; c < types.size(); ++c) {
      row.push_back(
          CellToValue(types[c], batch.column(static_cast<int>(c))[i]));
    }
    return row;
  }

  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  JoinKeys keys_;
  std::unordered_map<std::vector<Value>, std::vector<Row>, KeyHash> build_;
  // The probe batch, its next row to probe, the probed row whose matches
  // are being emitted, and the output row being rebuilt.
  RowBatch input_;
  int input_pos_ = 0;
  Row outer_;
  Row row_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_cursor_ = 0;
};

// ------------------------------------------------------------- Fixture

struct Fixture {
  Catalog catalog;
  QuerySpec spec;
  int64_t total_rows = 0;
};

// A 3-table chain T0 -a- T1 -b- T2 with a 50% filter on T0. Domain sizes
// keep the join output around 8x the base rows — enough fan-out that probe
// cost dominates, small enough that the seed baseline finishes quickly.
Fixture MakeFixture(int64_t scale) {
  Fixture f;
  Rng rng(42);
  const int64_t d = std::max<int64_t>(4, scale / 4);
  Table t0 = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}}),
      {ToValueColumn(MakeUniformColumn(scale, d, rng))});
  Table t1 = Table::FromColumns(
      Schema({{"a", TypeKind::kInt64}, {"b", TypeKind::kInt64}}),
      {ToValueColumn(MakeUniformColumn(scale, d, rng)),
       ToValueColumn(MakeUniformColumn(scale, d, rng))});
  Table t2 = Table::FromColumns(
      Schema({{"b", TypeKind::kInt64}}),
      {ToValueColumn(MakeUniformColumn(scale, d, rng))});
  JOINEST_CHECK(f.catalog.AddTable("T0", std::move(t0)).ok());
  JOINEST_CHECK(f.catalog.AddTable("T1", std::move(t1)).ok());
  JOINEST_CHECK(f.catalog.AddTable("T2", std::move(t2)).ok());
  f.spec.count_star = true;
  for (const char* name : {"T0", "T1", "T2"}) {
    JOINEST_CHECK(f.spec.AddTable(f.catalog, name).ok());
  }
  f.spec.predicates.push_back(
      Predicate::Join(ColumnRef{0, 0}, ColumnRef{1, 0}));
  f.spec.predicates.push_back(
      Predicate::Join(ColumnRef{1, 1}, ColumnRef{2, 0}));
  f.spec.predicates.push_back(Predicate::LocalConst(
      ColumnRef{0, 0}, CompareOp::kLt, Value(int64_t{d / 2})));
  f.total_rows = 3 * scale;
  return f;
}

std::unique_ptr<Operator> ScanWithFilter(const Fixture& f, int table_index) {
  const Table& table =
      f.catalog.table(f.spec.tables[table_index].catalog_id);
  std::unique_ptr<Operator> op =
      std::make_unique<SeqScanOperator>(table, table_index);
  std::vector<Predicate> local;
  for (const Predicate& p : f.spec.predicates) {
    if (p.kind != Predicate::Kind::kJoin && p.left.table == table_index) {
      local.push_back(p);
    }
  }
  if (!local.empty()) {
    op = std::make_unique<FilterOperator>(std::move(op), std::move(local));
  }
  return op;
}

// The seed baseline tree: scan(T0)+filter ⨝ scan(T1) ⨝ scan(T2), with the
// pre-refactor hash join at both levels.
std::unique_ptr<Operator> MakeSeedTree(const Fixture& f) {
  std::vector<Predicate> joins;
  for (const Predicate& p : f.spec.predicates) {
    if (p.kind == Predicate::Kind::kJoin) joins.push_back(p);
  }
  auto root = std::make_unique<SeedHashJoinOperator>(
      ScanWithFilter(f, 0), ScanWithFilter(f, 1),
      std::vector<Predicate>{joins[0]});
  return std::make_unique<SeedHashJoinOperator>(
      std::move(root), ScanWithFilter(f, 2),
      std::vector<Predicate>{joins[1]});
}

std::unique_ptr<Operator> MakeFlatTree(const Fixture& f) {
  const std::unique_ptr<PlanNode> plan = CanonicalSafePlan(f.spec);
  auto root = CompilePlan(f.catalog, f.spec, *plan);
  JOINEST_CHECK(root.ok()) << root.status();
  return std::move(*root);
}

int64_t DrainBatchCount(Operator& op) {
  op.Open();
  RowBatch batch;
  int64_t count = 0;
  while (op.NextBatch(batch)) count += batch.size();
  op.Close();
  return count;
}

int64_t DriveCount(Operator& op) {
  op.Open();
  const int64_t count = op.Count();
  op.Close();
  return count;
}

}  // namespace
}  // namespace joinest

int main(int argc, char** argv) {
  using namespace joinest;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }

  // The smoke scale keeps the batch window above 10 ms.
  const int64_t scale = smoke ? 50000 : 200000;
  std::fprintf(stderr, "building fixture (scale %lld)...\n",
               static_cast<long long>(scale));
  const Fixture f = MakeFixture(scale);

  std::printf("== executor throughput: %lld base rows%s ==\n",
              static_cast<long long>(f.total_rows), smoke ? " (smoke)" : "");

  // The recorder-on path: the batch drive plus the one QueryRecord capture
  // the service layer performs per executed query. Sequence numbers keep
  // incrementing across runs, exercising ring overwrite like a long-lived
  // server session would.
  FlightRecorder recorder(
      FlightRecorder::Options().set_enabled(true).set_capacity(256));
  const std::vector<Timing> results = TimeModes({
      {"seed_tuple",
       [&] {
         const auto tree = MakeSeedTree(f);
         return DrainBatchCount(*tree);
       }},
      {"batch",
       [&] {
         const auto tree = MakeFlatTree(f);
         return DrainBatchCount(*tree);
       }},
      {"count",
       [&] {
         const auto tree = MakeFlatTree(f);
         return DriveCount(*tree);
       }},
      {"batch_recorder",
       [&] {
         const auto tree = MakeFlatTree(f);
         const int64_t count = DrainBatchCount(*tree);
         QueryRecord record;
         record.api = QueryRecord::Api::kExecute;
         record.fingerprint = 0x9e3779b97f4a7c15ull;
         record.rule = "LS";
         record.estimated_rows = static_cast<double>(count);
         record.actual_rows = static_cast<double>(count);
         record.q_error = 1.0;
         recorder.Record(std::move(record));
         return count;
       }},
      {"truth",
       [&] {
         auto count = TrueResultSize(f.catalog, f.spec);
         JOINEST_CHECK(count.ok()) << count.status();
         return *count;
       }},
  });

  // Bit-identical results across every mode, or the numbers are noise.
  for (const Timing& r : results) {
    JOINEST_CHECK_EQ(r.result, results[0].result)
        << r.mode << " diverges from seed_tuple";
  }

  TablePrinter printer({"mode", "wall s", "rows/sec", "vs seed_tuple"});
  char buf[64];
  for (const Timing& r : results) {
    std::vector<std::string> cells;
    cells.push_back(r.mode);
    std::snprintf(buf, sizeof buf, "%.4f", r.seconds);
    cells.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.0f", f.total_rows / r.seconds);
    cells.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.2fx", results[0].seconds / r.seconds);
    cells.push_back(buf);
    printer.AddRow(std::move(cells));
  }
  printer.Print(std::cout);

  // Rates over the same rows, so each ratio of rates is a ratio of times.
  const Timing& seed = results[0];
  const Timing& batch = results[1];
  const Timing& batch_recorder = results[3];
  return CheckRatios(
      {{"batch / seed_tuple", seed.seconds / batch.seconds, 2.0},
       {"batch_recorder / batch", batch.seconds / batch_recorder.seconds,
        0.3}});
}
