// Join operators: nested loops, hash, sort-merge, index nested loops.
//
// The paper's Starburst experiment enabled "the optimizer's entire
// repertoire ... including the Nested Loops and Sort Merge join methods";
// hash and index-nested-loops are the corresponding modern methods and give
// the cost model real choices to get right or wrong.
//
// All joins are equi-joins over one or more key pairs (the only join
// predicates the query model admits). Output layout is the concatenation of
// the left and right child layouts.

#ifndef JOINEST_EXECUTOR_JOIN_OPS_H_
#define JOINEST_EXECUTOR_JOIN_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "executor/batch.h"
#include "executor/eval.h"
#include "executor/hash_table.h"
#include "executor/operator.h"
#include "query/predicate.h"
#include "storage/table.h"

namespace joinest {

// The key columns of one join input, and how each encodes against its
// partner column on the other input (the key rule, types/cell.h).
struct KeyColumns {
  std::vector<int> positions;
  std::vector<KeyEncoding> encodings;

  int width() const { return static_cast<int>(positions.size()); }

  // Encodes rows [0, n) of `source` (anything with
  // `const Cell* column(int pos)`) into `keys`, width() per row, row-major.
  // valid[i] is 0 when row i's key can equal no key of the other input.
  template <typename Source>
  void Encode(const Source& source, int64_t n, std::vector<int64_t>& keys,
              std::vector<char>& valid) const {
    const size_t w = positions.size();
    keys.resize(static_cast<size_t>(n) * w);
    valid.assign(static_cast<size_t>(n), 1);
    for (size_t k = 0; k < w; ++k) {
      const Cell* cells = source.column(positions[k]);
      for (int64_t i = 0; i < n; ++i) {
        const size_t row = static_cast<size_t>(i);
        if (!EncodeKey(encodings[k], cells[i], &keys[row * w + k])) {
          valid[row] = 0;
        }
      }
    }
  }
};

// Both inputs' key columns, resolved from equi-join predicates (either
// operand may live on either side; CHECK-fails if a predicate's columns are
// not split across the two inputs). Each key pair's two column types fix
// both sides' encodings.
struct JoinKeys {
  KeyColumns left;
  KeyColumns right;
};
JoinKeys ResolveJoinKeys(const std::vector<ColumnRef>& left_layout,
                         const std::vector<TypeKind>& left_types,
                         const std::vector<ColumnRef>& right_layout,
                         const std::vector<TypeKind>& right_types,
                         const std::vector<Predicate>& predicates);

// A base table as a cell source for EvaluatePredicates and
// KeyColumns::Encode, with the layout and types a scan of it as query table
// `table_index` produces.
struct TableColumns {
  TableColumns(const Table& table, int table_index);
  const Cell* column(int c) const { return table.cells(c).data(); }

  const Table& table;
  std::vector<ColumnRef> layout;
  std::vector<TypeKind> types;
};

// Naive nested loops: the right (inner) input is re-opened and fully
// re-scanned for every outer row — the classic method whose true cost is
// |outer| × scan(inner). This is exactly the join a misled optimizer
// believes is free when it estimates |outer| ≈ 0, which is how the §8
// experiment's bad plans lose: a hundred real outer rows each re-scan a
// 100k-row table the optimizer thought would never be touched. Both sides
// are pulled a batch at a time; the inner's batch is a member, so a rescan
// refills pooled cells and allocates nothing.
class NestedLoopJoinOperator : public Operator {
 public:
  NestedLoopJoinOperator(std::unique_ptr<Operator> left,
                         std::unique_ptr<Operator> right,
                         std::vector<Predicate> predicates);

  std::string name() const override { return "NestedLoopJoin"; }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch& batch) override;
  void CloseImpl() override;

 private:
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  JoinKeys keys_;
  // The outer batch and its keys, and the row of it being joined.
  RowBatch outer_;
  std::vector<int64_t> outer_keys_;
  std::vector<char> outer_valid_;
  int outer_pos_ = 0;
  // The inner side's current batch for that row and its keys, and the next
  // inner row.
  RowBatch inner_;
  std::vector<int64_t> inner_keys_;
  std::vector<char> inner_valid_;
  int inner_pos_ = 0;
  bool inner_open_ = false;
};

// Block nested loops: the inner input is materialised ONCE on Open and the
// in-memory copy is scanned per outer row. Same asymptotic comparisons as
// naive NLJ, but the inner's production cost (scans, filters, sub-joins) is
// paid once — the fix modern engines apply to the naive method.
class BlockNestedLoopJoinOperator : public Operator {
 public:
  BlockNestedLoopJoinOperator(std::unique_ptr<Operator> left,
                              std::unique_ptr<Operator> right,
                              std::vector<Predicate> predicates);

  std::string name() const override { return "BlockNestedLoopJoin"; }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch& batch) override;
  void CloseImpl() override;

 private:
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  JoinKeys keys_;
  MaterializedRows inner_;
  std::vector<int64_t> inner_keys_;
  std::vector<char> inner_valid_;
  // The outer batch and its keys, the row of it being joined, and the next
  // inner row.
  RowBatch outer_;
  std::vector<int64_t> outer_keys_;
  std::vector<char> outer_valid_;
  int outer_pos_ = 0;
  int64_t inner_cursor_ = 0;
};

// The probe side shared by the hash and index-nested-loop joins: the left
// input is pulled a batch at a time, its keys encoded and their home slots
// prefetched, and each row probes a JoinHashTable whose payload indexes the
// build columns. NextBatch emits each match (resuming mid-span when the
// caller's batch fills); Count adds each span's size instead of emitting
// its rows. Subclasses build the table on Open.
class HashProbeJoin : public Operator {
 protected:
  explicit HashProbeJoin(std::unique_ptr<Operator> left)
      : left_(std::move(left)) {}

  bool NextBatchImpl(RowBatch& batch) override;
  int64_t CountImpl() override;
  void CloseImpl() override;

  // Called by the subclass's OpenImpl once table_ and build_columns_ are
  // set; rewinds the probe.
  void StartProbe();

  std::unique_ptr<Operator> left_;
  KeyColumns probe_keys_;  // Key columns in the left layout.
  std::unique_ptr<JoinHashTable> table_;
  // One pointer per build-side output column; a span's payload entries
  // index them.
  std::vector<const Cell*> build_columns_;

 private:
  // Refills input_ from the left child, encodes its keys and prefetches
  // their home slots.
  bool RefillInput();

  RowBatch input_;
  std::vector<int64_t> input_keys_;
  std::vector<char> input_valid_;
  int input_pos_ = 0;
  bool input_live_ = false;
  JoinHashTable::Span matches_;
  size_t match_cursor_ = 0;
};

// Classic hash join: builds on the right input, probes with the left. The
// build side is the right input materialised column-major plus a
// JoinHashTable over its encoded keys.
class HashJoinOperator : public HashProbeJoin {
 public:
  HashJoinOperator(std::unique_ptr<Operator> left,
                   std::unique_ptr<Operator> right,
                   std::vector<Predicate> predicates);

  std::string name() const override { return "HashJoin"; }

 protected:
  void OpenImpl() override;
  void CloseImpl() override;

 private:
  std::unique_ptr<Operator> right_;
  KeyColumns build_keys_;  // Key columns in the right layout.
  MaterializedRows build_;
};

// Sort-merge join: both inputs are materialised, their rows ordered by
// encoded key, and merged; equal-key groups produce their cross product,
// which resumes mid-group when the caller's batch fills.
class SortMergeJoinOperator : public Operator {
 public:
  SortMergeJoinOperator(std::unique_ptr<Operator> left,
                        std::unique_ptr<Operator> right,
                        std::vector<Predicate> predicates);

  std::string name() const override { return "SortMergeJoin"; }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch& batch) override;
  void CloseImpl() override;

 private:
  // One materialised input, its encoded keys, and its matchable rows in
  // key order.
  struct SortedInput {
    MaterializedRows rows;
    std::vector<int64_t> keys;
    std::vector<int64_t> order;
    const int64_t* key(size_t i, int width) const {
      return keys.data() + static_cast<size_t>(order[i]) * width;
    }
  };
  void Sort(Operator& input, const KeyColumns& key_columns, SortedInput& out);

  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  JoinKeys keys_;
  SortedInput left_rows_;
  SortedInput right_rows_;
  // Current equal-key group cross-product state, as positions in order.
  size_t li_ = 0, ri_ = 0;        // Group starts.
  size_t lg_ = 0, rg_ = 0;        // Group ends (exclusive).
  size_t lcur_ = 0, rcur_ = 0;    // Cursor within the group product.
  bool in_group_ = false;
};

// Index nested loops: the inner side is a base table. Open builds a
// JoinHashTable over all key columns of the inner rows that pass the inner
// table's local predicates, and outer rows probe it like a hash join's.
class IndexNestedLoopJoinOperator : public HashProbeJoin {
 public:
  // `inner_predicates` are local predicates on the inner table (the pushed
  // selection, applied when the table is built).
  IndexNestedLoopJoinOperator(std::unique_ptr<Operator> outer,
                              const Table& inner_table, int inner_table_index,
                              std::vector<Predicate> join_predicates,
                              std::vector<Predicate> inner_predicates);

  std::string name() const override { return "IndexNLJoin"; }

 protected:
  void OpenImpl() override;

 private:
  TableColumns inner_;
  KeyColumns inner_keys_;  // Key columns of the inner table.
  std::vector<BoundPredicate> inner_predicates_;
};

}  // namespace joinest

#endif  // JOINEST_EXECUTOR_JOIN_OPS_H_
