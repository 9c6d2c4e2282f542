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

#include <memory>
#include <vector>

#include "executor/hash_table.h"
#include "executor/operator.h"
#include "query/predicate.h"
#include "storage/index.h"
#include "storage/table.h"

namespace joinest {

// Resolved equality key pair: positions in the left and right layouts.
struct JoinKey {
  int left_pos;
  int right_pos;
};

// Resolves join predicates against the child layouts (either operand may
// live on either side). CHECK-fails if a predicate's columns are not split
// across the two inputs.
std::vector<JoinKey> ResolveJoinKeys(const std::vector<ColumnRef>& left,
                                     const std::vector<ColumnRef>& right,
                                     const std::vector<Predicate>& predicates);

// Naive nested loops: the right (inner) input is re-opened and fully
// re-scanned for every outer row — the classic method whose true cost is
// |outer| × scan(inner). This is exactly the join a misled optimizer
// believes is free when it estimates |outer| ≈ 0, which is how the §8
// experiment's bad plans lose: a hundred real outer rows each re-scan a
// 100k-row table the optimizer thought would never be touched. Both sides
// are pulled a batch at a time; the inner's batch is a member, so a rescan
// refills pooled slots and allocates nothing.
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
  std::vector<JoinKey> keys_;
  // The outer batch and the row of it being joined.
  RowBatch outer_;
  int outer_pos_ = 0;
  // The inner side's current batch for that row, and the next inner row.
  RowBatch inner_;
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
  std::vector<JoinKey> keys_;
  std::vector<Row> inner_;
  // The outer batch, the row of it being joined, and the next inner row.
  RowBatch outer_;
  int outer_pos_ = 0;
  size_t inner_cursor_ = 0;
};

// Classic hash join: builds on the right input, probes with the left. The
// build side is a JoinHashTable (flat open addressing, contiguous payload
// spans, single-int64 fast path) instead of the former
// unordered_map<vector<Value>, vector<Row>>; probes allocate nothing. The
// batch path probes a whole left batch per call; Count probes the same
// way and adds each match span's size instead of emitting its rows.
class HashJoinOperator : public Operator {
 public:
  HashJoinOperator(std::unique_ptr<Operator> left,
                   std::unique_ptr<Operator> right,
                   std::vector<Predicate> predicates);

  std::string name() const override { return "HashJoin"; }

  // Specializes the batch probe/emit loops against the child layouts'
  // column types (schema-proven at CompilePlan time): a single int64 key
  // pair probes through JoinHashTable::ProbeFastInt64 — no per-row
  // canonicalisation or contract checks — and an all-int64 output layout
  // emits from the table's contiguous int64 payload through native stores.
  // Shapes the kernels decline (multi-column or mixed-type keys, string
  // columns), and joins never specialized, keep the generic
  // Probe/ConcatInto loops.
  void Specialize(const std::vector<TypeKind>& left_types,
                  const std::vector<TypeKind>& right_types);

  bool specialized() const override { return specialized_; }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch& batch) override;
  int64_t CountImpl() override;
  void CloseImpl() override;

 private:
  // Refills input_ from the left child; on the fast probe, gathers the
  // batch's keys into probe_keys_ and prefetches their hash slots.
  bool RefillInput();

  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  std::vector<int> build_positions_;  // Key columns in the right layout.
  std::vector<int> probe_positions_;  // Key columns in the left layout.
  std::unique_ptr<JoinHashTable> table_;
  JoinHashTable::Scratch scratch_;

  // Kernel state (Specialize).
  bool specialized_ = false;
  bool int64_key_ = false;       // Single key pair, int64 on both sides.
  bool all_int64_ = false;       // Every output column is int64.
  bool use_fast_probe_ = false;  // int64_key_ and the table built fast-path.
  // all_int64_ and the table materialised its contiguous int64 payload
  // matrix: the emit loop reads consecutive matrix rows per span.
  bool use_int_payload_ = false;
  int left_width_ = 0;
  int right_width_ = 0;
  // Outer row's values as native ints for the int-payload emit loop;
  // cached once per probed row (a match span can stretch across emitted
  // batches).
  std::vector<int64_t> outer_ints_;
  // Fast-probe keys of the current input batch, gathered (and their hash
  // slots prefetched) once per refill.
  std::vector<int64_t> probe_keys_;

  // Probe state: position within the current input batch and within that
  // row's match span.
  RowBatch input_;
  int input_pos_ = 0;
  JoinHashTable::Span matches_;
  size_t match_cursor_ = 0;
  // Payload position of matches_'s first match (int-payload emit).
  size_t match_pos_ = 0;
  bool input_valid_ = false;
};

// Sort-merge join: both inputs are materialised, sorted by their key
// columns, and merged; equal-key groups produce their cross product, which
// resumes mid-group when the caller's batch fills.
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
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  std::vector<JoinKey> keys_;
  std::vector<Row> left_rows_;
  std::vector<Row> right_rows_;
  // Current equal-key group cross-product state.
  size_t li_ = 0, ri_ = 0;        // Group starts.
  size_t lg_ = 0, rg_ = 0;        // Group ends (exclusive).
  size_t lcur_ = 0, rcur_ = 0;    // Cursor within the group product.
  bool in_group_ = false;
};

// Index nested loops: the inner side is a base table; a hash index over the
// first key column is built on Open, outer rows probe it, and the remaining
// key pairs plus the inner table's local predicates are applied as
// residuals. The outer is pulled a batch at a time by one loop that both
// drives share: NextBatch emits each passing match (resuming mid-match-list
// when the caller's batch fills), Count adds the match list's size (or,
// with residuals, the matches that pass them).
class IndexNestedLoopJoinOperator : public Operator {
 public:
  // `inner_predicates` are local predicates on the inner table (pushed
  // selection that the probe must re-check since the index covers the whole
  // table).
  IndexNestedLoopJoinOperator(std::unique_ptr<Operator> outer,
                              const Table& inner_table, int inner_table_index,
                              std::vector<Predicate> join_predicates,
                              std::vector<Predicate> inner_predicates);

  std::string name() const override { return "IndexNLJoin"; }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch& batch) override;
  int64_t CountImpl() override;
  void CloseImpl() override;

 private:
  // Hands each outer row, from the current position on, to
  // `on_row(outer, matches)` with its index matches. on_row returns true
  // once it is done with the row; false stops the walk on that row, which
  // the next call hands over again.
  template <typename OnRow>
  void ForEachOuterRow(OnRow&& on_row);
  bool InnerRowPasses(const Row& outer, int64_t inner_row) const;

  std::unique_ptr<Operator> outer_;
  const Table& inner_table_;
  int inner_table_index_;
  std::vector<Predicate> join_predicates_;
  std::vector<Predicate> inner_predicates_;

  // First key drives the index probe; the rest are residuals.
  int outer_key_pos_ = -1;
  int inner_key_col_ = -1;
  std::vector<std::pair<int, int>> residual_keys_;  // (outer pos, inner col)

  std::unique_ptr<HashIndex> index_;
  // The outer batch, the row of it being probed, and the next of that
  // row's matches to check.
  RowBatch input_;
  int input_pos_ = 0;
  size_t match_cursor_ = 0;
};

}  // namespace joinest

#endif  // JOINEST_EXECUTOR_JOIN_OPS_H_
