#include "executor/join_ops.h"

#include <algorithm>

#include "common/logging.h"
#include "executor/eval.h"
#include "executor/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace joinest {

std::vector<JoinKey> ResolveJoinKeys(
    const std::vector<ColumnRef>& left, const std::vector<ColumnRef>& right,
    const std::vector<Predicate>& predicates) {
  std::vector<JoinKey> keys;
  for (const Predicate& p : predicates) {
    JOINEST_CHECK(p.kind == Predicate::Kind::kJoin)
        << "join operator got non-join predicate " << p.ToString();
    int lp = FindInLayout(left, p.left);
    int rp = FindInLayout(right, p.right);
    if (lp < 0 || rp < 0) {
      // Try the swapped orientation.
      lp = FindInLayout(left, p.right);
      rp = FindInLayout(right, p.left);
    }
    JOINEST_CHECK(lp >= 0 && rp >= 0)
        << "join predicate does not span the two inputs: " << p.ToString();
    keys.push_back(JoinKey{lp, rp});
  }
  return keys;
}

namespace {

std::vector<ColumnRef> ConcatLayouts(const std::vector<ColumnRef>& a,
                                     const std::vector<ColumnRef>& b) {
  std::vector<ColumnRef> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

bool KeysMatch(const Row& left, const Row& right,
               const std::vector<JoinKey>& keys) {
  for (const JoinKey& k : keys) {
    if (!(left[k.left_pos] == right[k.right_pos])) return false;
  }
  return true;
}

// Writes left ++ right into a pooled slot: element-wise copy-assign into
// resized storage, so a reused slot keeps its values' capacity (strings
// especially) instead of destroying and reconstructing them.
void ConcatInto(Row& out, const Row& left, const Row& right) {
  out.resize(left.size() + right.size());
  size_t j = 0;
  for (const Value& v : left) out[j++] = v;
  for (const Value& v : right) out[j++] = v;
}

// Opens `op`, moves every row it produces into `out`, and closes it.
// Moving steals each slot's storage; the child re-fills moved-from slots on
// the next refill, so this only trades the per-value copy for one
// allocation the copy would have paid anyway.
void DrainInto(Operator& op, std::vector<Row>& out) {
  op.Open();
  out.clear();
  RowBatch batch;
  while (op.NextBatch(batch)) {
    for (int i = 0; i < batch.size(); ++i) {
      out.push_back(std::move(batch.row(i)));
    }
  }
  op.Close();
}

}  // namespace

// ---------------------------------------------------------------- NLJ

NestedLoopJoinOperator::NestedLoopJoinOperator(
    std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
    std::vector<Predicate> predicates)
    : left_(std::move(left)), right_(std::move(right)) {
  layout_ = ConcatLayouts(left_->layout(), right_->layout());
  keys_ = ResolveJoinKeys(left_->layout(), right_->layout(), predicates);
}

void NestedLoopJoinOperator::OpenImpl() {
  left_->Open();
  outer_.Clear();
  outer_pos_ = 0;
  inner_.Clear();
  inner_pos_ = 0;
  inner_open_ = false;
}

// Per outer row: re-open the inner side and drain it batch by batch,
// emitting the matches; a full caller batch leaves both cursors where they
// are, mid-inner-batch.
bool NestedLoopJoinOperator::NextBatchImpl(RowBatch& batch) {
  batch.Clear();
  while (!batch.full()) {
    if (inner_pos_ < inner_.size()) {
      const Row& outer = outer_.row(outer_pos_);
      while (inner_pos_ < inner_.size() && !batch.full()) {
        const Row& inner = inner_.row(inner_pos_++);
        if (KeysMatch(outer, inner, keys_)) {
          ConcatInto(batch.AppendSlot(), outer, inner);
          ++rows_produced_;
        }
      }
    } else if (inner_open_) {
      inner_pos_ = 0;
      if (right_->NextBatch(inner_)) continue;
      right_->Close();
      inner_open_ = false;
      ++outer_pos_;
    } else if (outer_pos_ < outer_.size()) {
      right_->Open();  // Full inner re-scan per outer row.
      inner_open_ = true;
    } else {
      if (!left_->NextBatch(outer_)) break;
      outer_pos_ = 0;
    }
  }
  return !batch.empty();
}

void NestedLoopJoinOperator::CloseImpl() {
  left_->Close();
  if (inner_open_) {
    right_->Close();
    inner_open_ = false;
  }
}

// ---------------------------------------------------------------- BNL

BlockNestedLoopJoinOperator::BlockNestedLoopJoinOperator(
    std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
    std::vector<Predicate> predicates)
    : left_(std::move(left)), right_(std::move(right)) {
  layout_ = ConcatLayouts(left_->layout(), right_->layout());
  keys_ = ResolveJoinKeys(left_->layout(), right_->layout(), predicates);
}

void BlockNestedLoopJoinOperator::OpenImpl() {
  left_->Open();
  DrainInto(*right_, inner_);
  outer_.Clear();
  outer_pos_ = 0;
  inner_cursor_ = 0;
}

bool BlockNestedLoopJoinOperator::NextBatchImpl(RowBatch& batch) {
  batch.Clear();
  while (!batch.full()) {
    if (outer_pos_ < outer_.size()) {
      const Row& outer = outer_.row(outer_pos_);
      while (inner_cursor_ < inner_.size() && !batch.full()) {
        const Row& inner = inner_[inner_cursor_++];
        if (KeysMatch(outer, inner, keys_)) {
          ConcatInto(batch.AppendSlot(), outer, inner);
          ++rows_produced_;
        }
      }
      if (inner_cursor_ < inner_.size()) break;  // Resume mid-inner.
      ++outer_pos_;
      inner_cursor_ = 0;
    } else {
      if (!left_->NextBatch(outer_)) break;
      outer_pos_ = 0;
    }
  }
  return !batch.empty();
}

void BlockNestedLoopJoinOperator::CloseImpl() {
  left_->Close();
  inner_.clear();
}

// ---------------------------------------------------------------- Hash

HashJoinOperator::HashJoinOperator(std::unique_ptr<Operator> left,
                                   std::unique_ptr<Operator> right,
                                   std::vector<Predicate> predicates)
    : left_(std::move(left)), right_(std::move(right)) {
  layout_ = ConcatLayouts(left_->layout(), right_->layout());
  const std::vector<JoinKey> keys =
      ResolveJoinKeys(left_->layout(), right_->layout(), predicates);
  JOINEST_CHECK(!keys.empty()) << "hash join requires at least one key";
  for (const JoinKey& k : keys) {
    probe_positions_.push_back(k.left_pos);
    build_positions_.push_back(k.right_pos);
  }
}

void HashJoinOperator::Specialize(const std::vector<TypeKind>& left_types,
                                  const std::vector<TypeKind>& right_types) {
  specialized_ = true;
  left_width_ = static_cast<int>(left_types.size());
  right_width_ = static_cast<int>(right_types.size());
  int64_key_ =
      probe_positions_.size() == 1 &&
      left_types[static_cast<size_t>(probe_positions_[0])] ==
          TypeKind::kInt64 &&
      right_types[static_cast<size_t>(build_positions_[0])] ==
          TypeKind::kInt64;
  all_int64_ = true;
  for (TypeKind t : left_types) {
    if (t != TypeKind::kInt64) all_int64_ = false;
  }
  for (TypeKind t : right_types) {
    if (t != TypeKind::kInt64) all_int64_ = false;
  }
  CountKernelSelection(int64_key_ ? "hashjoin_probe_int64"
                                  : "hashjoin_probe_generic");
  CountKernelSelection(all_int64_ ? "hashjoin_emit_int64"
                                  : "hashjoin_emit_generic");
}

void HashJoinOperator::OpenImpl() {
  left_->Open();
  std::vector<Row> build_rows;
  DrainInto(*right_, build_rows);
  {
    Span span("HashJoin::build");
    table_ = std::make_unique<JoinHashTable>(std::move(build_rows),
                                             build_positions_);
    span.SetArg("build_rows", static_cast<int64_t>(table_->num_rows()));
  }
  // Build-side telemetry: rows and distinct keys per build, plus the load
  // factor story a capacity planner wants (num_keys/num_rows is the
  // duplication the probe fan-out comes from).
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry
      .GetCounter("executor_hashjoin_builds_total",
                  "Hash-join build-side constructions")
      .Increment();
  registry
      .GetCounter("executor_hashjoin_build_rows_total",
                  "Rows materialised into hash-join build sides")
      .Add(static_cast<int64_t>(table_->num_rows()));
  registry
      .GetCounter("executor_hashjoin_build_keys_total",
                  "Distinct keys across hash-join build sides")
      .Add(static_cast<int64_t>(table_->num_keys()));
  // The table only takes its int64 fast path when every build key actually
  // is int64; with a schema-proven int64 key the two always agree, but the
  // kernel re-checks so a declined fast path degrades instead of breaking.
  // Likewise a declined int payload falls back to the generic emit loop.
  use_fast_probe_ = int64_key_ && table_->fast_path();
  if (all_int64_) table_->BuildIntPayload();
  use_int_payload_ = all_int64_ && table_->has_int_payload();
  input_valid_ = false;
  input_pos_ = 0;
  matches_ = JoinHashTable::Span{};
  match_cursor_ = 0;
}

// Per input row, probe once and emit as many of its matches as fit,
// resuming mid-span on the next call. The kernel probe and emit loops
// replace the generic ones where Specialize proved the key and row types;
// other shapes probe through JoinHashTable::Probe and copy rows with
// ConcatInto.
bool HashJoinOperator::NextBatchImpl(RowBatch& batch) {
  batch.Clear();
  const size_t out_width =
      static_cast<size_t>(left_width_) + static_cast<size_t>(right_width_);
  while (!batch.full()) {
    if (match_cursor_ < matches_.size) {
      if (use_int_payload_) {
        // Matches of one span are consecutive matrix rows: the inner side
        // reads sequential int64s instead of dereferencing per-row heap
        // blocks.
        do {
          Row& slot = batch.AppendSlot();
          slot.resize(out_width);
          for (int c = 0; c < left_width_; ++c) {
            slot[static_cast<size_t>(c)].StoreInt64(
                outer_ints_[static_cast<size_t>(c)]);
          }
          const int64_t* inner =
              table_->int_payload_row(match_pos_ + match_cursor_++);
          for (int c = 0; c < right_width_; ++c) {
            slot[static_cast<size_t>(left_width_ + c)].StoreInt64(inner[c]);
          }
          ++rows_produced_;
        } while (!batch.full() && match_cursor_ < matches_.size);
      } else {
        const Row& outer = input_.row(input_pos_);
        do {
          ConcatInto(batch.AppendSlot(), outer,
                     table_->row(matches_.data[match_cursor_++]));
          ++rows_produced_;
        } while (!batch.full() && match_cursor_ < matches_.size);
      }
      if (match_cursor_ < matches_.size) break;
      ++input_pos_;
    } else if (input_valid_ && input_pos_ < input_.size()) {
      const Row& outer = input_.row(input_pos_);
      if (use_fast_probe_) {
        matches_ = table_->ProbeFastInt64(
            probe_keys_[static_cast<size_t>(input_pos_)]);
      } else {
        matches_ = table_->Probe(outer, probe_positions_, scratch_);
      }
      match_cursor_ = 0;
      if (matches_.empty()) {
        ++input_pos_;
        continue;
      }
      if (use_int_payload_) {
        match_pos_ = table_->PayloadPos(matches_);
        outer_ints_.resize(static_cast<size_t>(left_width_));
        for (int c = 0; c < left_width_; ++c) {
          outer_ints_[static_cast<size_t>(c)] =
              outer[static_cast<size_t>(c)].int64_unchecked();
        }
      }
    } else {
      input_valid_ = RefillInput();
      if (!input_valid_) break;
      input_pos_ = 0;
    }
  }
  return !batch.empty();
}

bool HashJoinOperator::RefillInput() {
  if (!left_->NextBatch(input_)) return false;
  if (use_fast_probe_) {
    // Gather the batch's keys into a contiguous array and warm each key's
    // hash slot, so the per-row probe that follows starts from cache.
    const size_t kpos = static_cast<size_t>(probe_positions_[0]);
    probe_keys_.resize(static_cast<size_t>(input_.size()));
    for (int i = 0; i < input_.size(); ++i) {
      const int64_t key = input_.row(i)[kpos].int64_unchecked();
      probe_keys_[static_cast<size_t>(i)] = key;
      table_->PrefetchFastInt64(key);
    }
  }
  return true;
}

// Same probes as the batch path, in the same order; each match span adds
// its size instead of its rows.
int64_t HashJoinOperator::CountImpl() {
  int64_t count = 0;
  while (RefillInput()) {
    for (int i = 0; i < input_.size(); ++i) {
      const JoinHashTable::Span matches =
          use_fast_probe_
              ? table_->ProbeFastInt64(probe_keys_[static_cast<size_t>(i)])
              : table_->Probe(input_.row(i), probe_positions_, scratch_);
      count += static_cast<int64_t>(matches.size);
    }
  }
  rows_produced_ += count;
  return count;
}

void HashJoinOperator::CloseImpl() {
  left_->Close();
  table_.reset();
}

// ---------------------------------------------------------------- SMJ

SortMergeJoinOperator::SortMergeJoinOperator(
    std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
    std::vector<Predicate> predicates)
    : left_(std::move(left)), right_(std::move(right)) {
  layout_ = ConcatLayouts(left_->layout(), right_->layout());
  keys_ = ResolveJoinKeys(left_->layout(), right_->layout(), predicates);
  JOINEST_CHECK(!keys_.empty()) << "sort-merge join requires a key";
}

namespace {

// Three-way comparison of the key columns of a left row vs a right row.
int CompareKeys(const Row& left, const Row& right,
                const std::vector<JoinKey>& keys) {
  for (const JoinKey& k : keys) {
    const Value& a = left[k.left_pos];
    const Value& b = right[k.right_pos];
    if (a < b) return -1;
    if (b < a) return 1;
  }
  return 0;
}

}  // namespace

void SortMergeJoinOperator::OpenImpl() {
  DrainInto(*left_, left_rows_);
  DrainInto(*right_, right_rows_);
  std::sort(left_rows_.begin(), left_rows_.end(),
            [this](const Row& a, const Row& b) {
              for (const JoinKey& k : keys_) {
                if (a[k.left_pos] < b[k.left_pos]) return true;
                if (b[k.left_pos] < a[k.left_pos]) return false;
              }
              return false;
            });
  std::sort(right_rows_.begin(), right_rows_.end(),
            [this](const Row& a, const Row& b) {
              for (const JoinKey& k : keys_) {
                if (a[k.right_pos] < b[k.right_pos]) return true;
                if (b[k.right_pos] < a[k.right_pos]) return false;
              }
              return false;
            });
  li_ = ri_ = 0;
  in_group_ = false;
}

bool SortMergeJoinOperator::NextBatchImpl(RowBatch& batch) {
  batch.Clear();
  while (!batch.full()) {
    if (in_group_) {
      if (lcur_ < lg_) {
        ConcatInto(batch.AppendSlot(), left_rows_[lcur_], right_rows_[rcur_]);
        ++rows_produced_;
        if (++rcur_ >= rg_) {
          rcur_ = ri_;
          ++lcur_;
        }
        continue;
      }
      // Group exhausted; move past it.
      li_ = lg_;
      ri_ = rg_;
      in_group_ = false;
    }
    if (li_ >= left_rows_.size() || ri_ >= right_rows_.size()) break;
    const int cmp = CompareKeys(left_rows_[li_], right_rows_[ri_], keys_);
    if (cmp < 0) {
      ++li_;
      continue;
    }
    if (cmp > 0) {
      ++ri_;
      continue;
    }
    // Equal keys: delimit both groups and emit their cross product.
    lg_ = li_ + 1;
    while (lg_ < left_rows_.size() &&
           CompareKeys(left_rows_[lg_], right_rows_[ri_], keys_) == 0) {
      ++lg_;
    }
    rg_ = ri_ + 1;
    while (rg_ < right_rows_.size() &&
           CompareKeys(left_rows_[li_], right_rows_[rg_], keys_) == 0) {
      ++rg_;
    }
    lcur_ = li_;
    rcur_ = ri_;
    in_group_ = true;
  }
  return !batch.empty();
}

void SortMergeJoinOperator::CloseImpl() {
  left_rows_.clear();
  right_rows_.clear();
}

// ---------------------------------------------------------------- Index NLJ

IndexNestedLoopJoinOperator::IndexNestedLoopJoinOperator(
    std::unique_ptr<Operator> outer, const Table& inner_table,
    int inner_table_index, std::vector<Predicate> join_predicates,
    std::vector<Predicate> inner_predicates)
    : outer_(std::move(outer)),
      inner_table_(inner_table),
      inner_table_index_(inner_table_index),
      join_predicates_(std::move(join_predicates)),
      inner_predicates_(std::move(inner_predicates)) {
  layout_ = outer_->layout();
  for (int c = 0; c < inner_table_.num_columns(); ++c) {
    layout_.push_back(ColumnRef{inner_table_index_, c});
  }
  JOINEST_CHECK(!join_predicates_.empty())
      << "index join needs at least one key";
  for (size_t i = 0; i < join_predicates_.size(); ++i) {
    const Predicate& p = join_predicates_[i];
    JOINEST_CHECK(p.kind == Predicate::Kind::kJoin);
    ColumnRef outer_ref = p.left;
    ColumnRef inner_ref = p.right;
    if (inner_ref.table != inner_table_index_) std::swap(outer_ref, inner_ref);
    JOINEST_CHECK_EQ(inner_ref.table, inner_table_index_)
        << "key does not touch the inner table";
    const int outer_pos = FindInLayout(outer_->layout(), outer_ref);
    JOINEST_CHECK_GE(outer_pos, 0) << "outer key missing from outer layout";
    if (i == 0) {
      outer_key_pos_ = outer_pos;
      inner_key_col_ = inner_ref.column;
    } else {
      residual_keys_.emplace_back(outer_pos, inner_ref.column);
    }
  }
  for (const Predicate& p : inner_predicates_) {
    JOINEST_CHECK(p.kind != Predicate::Kind::kJoin);
    JOINEST_CHECK_EQ(p.left.table, inner_table_index_);
  }
}

void IndexNestedLoopJoinOperator::OpenImpl() {
  outer_->Open();
  index_ = std::make_unique<HashIndex>(inner_table_, inner_key_col_);
  input_.Clear();
  input_pos_ = 0;
  match_cursor_ = 0;
}

bool IndexNestedLoopJoinOperator::InnerRowPasses(const Row& outer,
                                                 int64_t inner_row) const {
  for (const auto& [outer_pos, inner_col] : residual_keys_) {
    if (!(outer[outer_pos] == inner_table_.at(inner_row, inner_col))) {
      return false;
    }
  }
  for (const Predicate& p : inner_predicates_) {
    const Value& left = inner_table_.at(inner_row, p.left.column);
    const Value& right = p.kind == Predicate::Kind::kLocalConst
                             ? p.constant
                             : inner_table_.at(inner_row, p.right.column);
    if (!EvalCompare(left, p.op, right)) return false;
  }
  return true;
}

template <typename OnRow>
void IndexNestedLoopJoinOperator::ForEachOuterRow(OnRow&& on_row) {
  while (true) {
    if (input_pos_ < input_.size()) {
      const Row& outer = input_.row(input_pos_);
      if (!on_row(outer, index_->Lookup(outer[outer_key_pos_]))) return;
      ++input_pos_;
    } else {
      if (!outer_->NextBatch(input_)) return;
      input_pos_ = 0;
    }
  }
}

bool IndexNestedLoopJoinOperator::NextBatchImpl(RowBatch& batch) {
  batch.Clear();
  const size_t inner_width = static_cast<size_t>(inner_table_.num_columns());
  ForEachOuterRow([&](const Row& outer,
                      const std::vector<int64_t>& matches) {
    while (true) {
      if (batch.full()) return false;  // Resume at this row and match.
      if (match_cursor_ == matches.size()) break;
      const int64_t inner_row = matches[match_cursor_++];
      if (!InnerRowPasses(outer, inner_row)) continue;
      Row& slot = batch.AppendSlot();
      slot.resize(outer.size() + inner_width);
      size_t j = 0;
      for (const Value& v : outer) slot[j++] = v;
      for (size_t c = 0; c < inner_width; ++c) {
        slot[j++] = inner_table_.at(inner_row, static_cast<int>(c));
      }
      ++rows_produced_;
    }
    match_cursor_ = 0;
    return true;
  });
  return !batch.empty();
}

int64_t IndexNestedLoopJoinOperator::CountImpl() {
  // Without residual keys or inner predicates every index match joins.
  const bool all_match = residual_keys_.empty() && inner_predicates_.empty();
  int64_t count = 0;
  ForEachOuterRow([&](const Row& outer,
                      const std::vector<int64_t>& matches) {
    if (all_match) {
      count += static_cast<int64_t>(matches.size());
    } else {
      for (int64_t inner_row : matches) {
        if (InnerRowPasses(outer, inner_row)) ++count;
      }
    }
    return true;
  });
  rows_produced_ += count;
  return count;
}

void IndexNestedLoopJoinOperator::CloseImpl() {
  outer_->Close();
  index_.reset();
}

}  // namespace joinest
