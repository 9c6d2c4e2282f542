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

void ConcatRows(Row& out, const Row& left, const Row& right) {
  out.clear();
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
}

// Specialized-path concatenation into a pooled slot: element-wise
// copy-assign into resized storage, so a reused slot keeps its values'
// capacity (strings especially) instead of destroying and reconstructing
// them the way clear+insert does.
void ConcatInto(Row& out, const Row& left, const Row& right) {
  out.resize(left.size() + right.size());
  size_t j = 0;
  for (const Value& v : left) out[j++] = v;
  for (const Value& v : right) out[j++] = v;
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
  outer_valid_ = false;
  inner_open_ = false;
}

bool NestedLoopJoinOperator::NextImpl(Row& row) {
  Row inner;
  while (true) {
    if (!outer_valid_) {
      if (!left_->Next(outer_row_)) return false;
      outer_valid_ = true;
      right_->Open();  // Full inner re-scan per outer row.
      inner_open_ = true;
    }
    while (right_->Next(inner)) {
      if (KeysMatch(outer_row_, inner, keys_)) {
        ConcatRows(row, outer_row_, inner);
        ++rows_produced_;
        return true;
      }
    }
    right_->Close();
    inner_open_ = false;
    outer_valid_ = false;
  }
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
  right_->Open();
  inner_.clear();
  Row row;
  while (right_->Next(row)) inner_.push_back(row);
  right_->Close();
  outer_valid_ = false;
  inner_cursor_ = 0;
}

bool BlockNestedLoopJoinOperator::NextImpl(Row& row) {
  while (true) {
    if (!outer_valid_) {
      if (!left_->Next(outer_row_)) return false;
      outer_valid_ = true;
      inner_cursor_ = 0;
    }
    while (inner_cursor_ < inner_.size()) {
      const Row& inner = inner_[inner_cursor_++];
      if (KeysMatch(outer_row_, inner, keys_)) {
        ConcatRows(row, outer_row_, inner);
        ++rows_produced_;
        return true;
      }
    }
    outer_valid_ = false;
  }
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
  right_->Open();
  std::vector<Row> build_rows;
  RowBatch batch;
  while (right_->NextBatch(batch)) {
    for (int i = 0; i < batch.size(); ++i) {
      // Moving steals the slot's storage; the child re-fills moved-from
      // slots on the next refill, so this only trades the per-value copy
      // for one allocation the copy would have paid anyway.
      build_rows.push_back(std::move(batch.row(i)));
    }
  }
  right_->Close();
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
  use_fast_probe_ = int64_key_ && table_->fast_path();
  if (all_int64_) table_->BuildIntPayload();
  use_int_payload_ = all_int64_ && table_->has_int_payload();
  matches_ = JoinHashTable::Span{};
  match_cursor_ = 0;
  input_valid_ = false;
  input_pos_ = 0;
  batch_matches_ = JoinHashTable::Span{};
  batch_match_cursor_ = 0;
}

bool HashJoinOperator::NextImpl(Row& row) {
  while (true) {
    if (match_cursor_ < matches_.size) {
      ConcatRows(row, outer_row_, table_->row(matches_.data[match_cursor_++]));
      ++rows_produced_;
      return true;
    }
    if (!left_->Next(outer_row_)) return false;
    matches_ = table_->Probe(outer_row_, probe_positions_, scratch_);
    match_cursor_ = 0;
  }
}

// Batch probe: per input row, probe once and emit as many of its matches as
// fit, resuming mid-span on the next call. The kernel probe and emit loops
// replace the generic ones where Specialize proved the key and row types;
// other shapes probe through JoinHashTable::Probe and copy rows with
// ConcatInto. Same probe order and span walk as the tuple path, so the
// emitted multiset is bit-identical.
bool HashJoinOperator::NextBatchImpl(RowBatch& batch) {
  batch.Clear();
  const size_t out_width =
      static_cast<size_t>(left_width_) + static_cast<size_t>(right_width_);
  while (!batch.full()) {
    if (batch_match_cursor_ < batch_matches_.size) {
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
          const int64_t* inner = table_->int_payload_row(
              batch_match_pos_ + batch_match_cursor_++);
          for (int c = 0; c < right_width_; ++c) {
            slot[static_cast<size_t>(left_width_ + c)].StoreInt64(inner[c]);
          }
          ++rows_produced_;
        } while (!batch.full() && batch_match_cursor_ < batch_matches_.size);
      } else if (all_int64_) {
        do {
          Row& slot = batch.AppendSlot();
          slot.resize(out_width);
          for (int c = 0; c < left_width_; ++c) {
            slot[static_cast<size_t>(c)].StoreInt64(
                outer_ints_[static_cast<size_t>(c)]);
          }
          const Row& inner =
              table_->row(batch_matches_.data[batch_match_cursor_++]);
          for (int c = 0; c < right_width_; ++c) {
            slot[static_cast<size_t>(left_width_ + c)].StoreInt64(
                inner[static_cast<size_t>(c)].int64_unchecked());
          }
          ++rows_produced_;
        } while (!batch.full() && batch_match_cursor_ < batch_matches_.size);
      } else {
        const Row& outer = input_.row(input_pos_);
        do {
          ConcatInto(batch.AppendSlot(), outer,
                     table_->row(batch_matches_.data[batch_match_cursor_++]));
          ++rows_produced_;
        } while (!batch.full() && batch_match_cursor_ < batch_matches_.size);
      }
      if (batch_match_cursor_ < batch_matches_.size) break;
      ++input_pos_;
    } else if (input_valid_ && input_pos_ < input_.size()) {
      const Row& outer = input_.row(input_pos_);
      if (use_fast_probe_) {
        batch_matches_ = table_->ProbeFastInt64(
            probe_keys_[static_cast<size_t>(input_pos_)]);
      } else {
        batch_matches_ = table_->Probe(outer, probe_positions_, scratch_);
      }
      batch_match_cursor_ = 0;
      if (batch_matches_.empty()) {
        ++input_pos_;
        continue;
      }
      if (use_int_payload_) {
        batch_match_pos_ = table_->PayloadPos(batch_matches_);
      }
      if (all_int64_) {
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
  auto drain = [](Operator& op, std::vector<Row>& out) {
    op.Open();
    out.clear();
    Row row;
    while (op.Next(row)) out.push_back(row);
    op.Close();
  };
  drain(*left_, left_rows_);
  drain(*right_, right_rows_);
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

bool SortMergeJoinOperator::NextImpl(Row& row) {
  while (true) {
    if (in_group_) {
      if (lcur_ < lg_) {
        ConcatRows(row, left_rows_[lcur_], right_rows_[rcur_]);
        ++rows_produced_;
        if (++rcur_ >= rg_) {
          rcur_ = ri_;
          ++lcur_;
        }
        return true;
      }
      // Group exhausted; move past it.
      li_ = lg_;
      ri_ = rg_;
      in_group_ = false;
    }
    if (li_ >= left_rows_.size() || ri_ >= right_rows_.size()) return false;
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
  probe_ = nullptr;
  probe_cursor_ = 0;
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

void IndexNestedLoopJoinOperator::EmitJoined(Row& out,
                                             int64_t inner_row) const {
  out.clear();
  out.reserve(outer_row_.size() + inner_table_.num_columns());
  out.insert(out.end(), outer_row_.begin(), outer_row_.end());
  for (int c = 0; c < inner_table_.num_columns(); ++c) {
    out.push_back(inner_table_.at(inner_row, c));
  }
}

bool IndexNestedLoopJoinOperator::NextImpl(Row& row) {
  while (true) {
    if (probe_ != nullptr) {
      while (probe_cursor_ < probe_->size()) {
        const int64_t inner_row = (*probe_)[probe_cursor_++];
        if (InnerRowPasses(outer_row_, inner_row)) {
          EmitJoined(row, inner_row);
          ++rows_produced_;
          return true;
        }
      }
      probe_ = nullptr;
    }
    if (!outer_->Next(outer_row_)) return false;
    probe_ = &index_->Lookup(outer_row_[outer_key_pos_]);
    probe_cursor_ = 0;
  }
}

int64_t IndexNestedLoopJoinOperator::CountImpl() {
  // Without residual keys or inner predicates every index match joins.
  const bool all_match = residual_keys_.empty() && inner_predicates_.empty();
  RowBatch batch;
  int64_t count = 0;
  while (outer_->NextBatch(batch)) {
    for (int i = 0; i < batch.size(); ++i) {
      const Row& outer = batch.row(i);
      const std::vector<int64_t>& matches =
          index_->Lookup(outer[outer_key_pos_]);
      if (all_match) {
        count += static_cast<int64_t>(matches.size());
        continue;
      }
      for (int64_t inner_row : matches) {
        if (InnerRowPasses(outer, inner_row)) ++count;
      }
    }
  }
  rows_produced_ += count;
  return count;
}

void IndexNestedLoopJoinOperator::CloseImpl() {
  outer_->Close();
  index_.reset();
}

}  // namespace joinest
