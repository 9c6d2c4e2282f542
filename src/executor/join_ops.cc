#include "executor/join_ops.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace joinest {

JoinKeys ResolveJoinKeys(const std::vector<ColumnRef>& left_layout,
                         const std::vector<TypeKind>& left_types,
                         const std::vector<ColumnRef>& right_layout,
                         const std::vector<TypeKind>& right_types,
                         const std::vector<Predicate>& predicates) {
  JoinKeys keys;
  for (const Predicate& p : predicates) {
    JOINEST_CHECK(p.kind == Predicate::Kind::kJoin)
        << "join operator got non-join predicate " << p.ToString();
    int lp = FindInLayout(left_layout, p.left);
    int rp = FindInLayout(right_layout, p.right);
    if (lp < 0 || rp < 0) {
      // Try the swapped orientation.
      lp = FindInLayout(left_layout, p.right);
      rp = FindInLayout(right_layout, p.left);
    }
    JOINEST_CHECK(lp >= 0 && rp >= 0)
        << "join predicate does not span the two inputs: " << p.ToString();
    const TypeKind lt = left_types[static_cast<size_t>(lp)];
    const TypeKind rt = right_types[static_cast<size_t>(rp)];
    keys.left.positions.push_back(lp);
    keys.left.encodings.push_back(KeyEncodingFor(lt, rt));
    keys.right.positions.push_back(rp);
    keys.right.encodings.push_back(KeyEncodingFor(rt, lt));
  }
  return keys;
}

namespace {

template <typename T>
std::vector<T> Concat(const std::vector<T>& a, const std::vector<T>& b) {
  std::vector<T> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

// Appends left row `l` of `left` joined with right row `r` of `right` to
// `out`, left columns first.
template <typename Left, typename Right>
void AppendJoined(RowBatch& out, const Left& left, int64_t l,
                  const Right& right, int64_t r) {
  const int n = out.size();
  const int left_width = left.width();
  for (int c = 0; c < left_width; ++c) out.column(c)[n] = left.column(c)[l];
  for (int c = 0; c < right.width(); ++c) {
    out.column(left_width + c)[n] = right.column(c)[r];
  }
  out.set_size(n + 1);
}

// Opens `op`, appends every row it produces to `out`, and closes it.
void DrainInto(Operator& op, MaterializedRows& out) {
  out.Reset(static_cast<int>(op.types().size()));
  op.Open();
  RowBatch batch;
  while (op.NextBatch(batch)) out.Append(batch);
  op.Close();
}

}  // namespace

// ---------------------------------------------------------------- NLJ

NestedLoopJoinOperator::NestedLoopJoinOperator(
    std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
    std::vector<Predicate> predicates)
    : left_(std::move(left)), right_(std::move(right)) {
  layout_ = Concat(left_->layout(), right_->layout());
  types_ = Concat(left_->types(), right_->types());
  keys_ = ResolveJoinKeys(left_->layout(), left_->types(), right_->layout(),
                          right_->types(), predicates);
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
  const int width = keys_.left.width();
  while (!batch.full()) {
    if (inner_pos_ < inner_.size()) {
      const size_t o = static_cast<size_t>(outer_pos_);
      const int64_t* outer_key = outer_keys_.data() + o * width;
      while (inner_pos_ < inner_.size() && !batch.full()) {
        const size_t i = static_cast<size_t>(inner_pos_++);
        if (outer_valid_[o] && inner_valid_[i] &&
            EqualKeys(outer_key, inner_keys_.data() + i * width, width)) {
          AppendJoined(batch, outer_, outer_pos_, inner_, inner_pos_ - 1);
          ++rows_produced_;
        }
      }
    } else if (inner_open_) {
      inner_pos_ = 0;
      if (right_->NextBatch(inner_)) {
        keys_.right.Encode(inner_, inner_.size(), inner_keys_, inner_valid_);
        continue;
      }
      right_->Close();
      inner_open_ = false;
      ++outer_pos_;
    } else if (outer_pos_ < outer_.size()) {
      right_->Open();  // Full inner re-scan per outer row.
      inner_open_ = true;
    } else {
      if (!left_->NextBatch(outer_)) break;
      keys_.left.Encode(outer_, outer_.size(), outer_keys_, outer_valid_);
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
  layout_ = Concat(left_->layout(), right_->layout());
  types_ = Concat(left_->types(), right_->types());
  keys_ = ResolveJoinKeys(left_->layout(), left_->types(), right_->layout(),
                          right_->types(), predicates);
}

void BlockNestedLoopJoinOperator::OpenImpl() {
  left_->Open();
  DrainInto(*right_, inner_);
  keys_.right.Encode(inner_, inner_.size(), inner_keys_, inner_valid_);
  outer_.Clear();
  outer_pos_ = 0;
  inner_cursor_ = 0;
}

bool BlockNestedLoopJoinOperator::NextBatchImpl(RowBatch& batch) {
  batch.Clear();
  const int width = keys_.left.width();
  while (!batch.full()) {
    if (outer_pos_ < outer_.size()) {
      const size_t o = static_cast<size_t>(outer_pos_);
      const int64_t* outer_key = outer_keys_.data() + o * width;
      while (inner_cursor_ < inner_.size() && !batch.full()) {
        const size_t i = static_cast<size_t>(inner_cursor_++);
        if (outer_valid_[o] && inner_valid_[i] &&
            EqualKeys(outer_key, inner_keys_.data() + i * width, width)) {
          AppendJoined(batch, outer_, outer_pos_, inner_, inner_cursor_ - 1);
          ++rows_produced_;
        }
      }
      if (inner_cursor_ < inner_.size()) break;  // Resume mid-inner.
      ++outer_pos_;
      inner_cursor_ = 0;
    } else {
      if (!left_->NextBatch(outer_)) break;
      keys_.left.Encode(outer_, outer_.size(), outer_keys_, outer_valid_);
      outer_pos_ = 0;
    }
  }
  return !batch.empty();
}

void BlockNestedLoopJoinOperator::CloseImpl() {
  left_->Close();
  inner_.Reset(0);
}

// ------------------------------------------------------- Hash probe

void HashProbeJoin::StartProbe() {
  input_live_ = false;
  input_pos_ = 0;
  matches_ = JoinHashTable::Span{};
  match_cursor_ = 0;
}

bool HashProbeJoin::RefillInput() {
  if (!left_->NextBatch(input_)) return false;
  probe_keys_.Encode(input_, input_.size(), input_keys_, input_valid_);
  const size_t width = static_cast<size_t>(probe_keys_.width());
  for (size_t i = 0; i < static_cast<size_t>(input_.size()); ++i) {
    table_->Prefetch(input_keys_.data() + i * width);
  }
  return true;
}

// Per input row, probe once and emit as many of its matches as fit,
// resuming mid-span on the next call.
bool HashProbeJoin::NextBatchImpl(RowBatch& batch) {
  batch.Clear();
  const int left_width = static_cast<int>(left_->types().size());
  const int right_width = static_cast<int>(build_columns_.size());
  const size_t key_width = static_cast<size_t>(probe_keys_.width());
  int n = 0;
  while (n < batch.capacity()) {
    if (match_cursor_ < matches_.size) {
      const int take = static_cast<int>(std::min<size_t>(
          static_cast<size_t>(batch.capacity() - n),
          matches_.size - match_cursor_));
      // Column by column: the probe row's cells repeat down the span, the
      // build rows' cells gather from its payload.
      for (int c = 0; c < left_width; ++c) {
        std::fill_n(batch.column(c) + n, take, input_.column(c)[input_pos_]);
      }
      const uint32_t* rows = matches_.data + match_cursor_;
      for (int c = 0; c < right_width; ++c) {
        Cell* out = batch.column(left_width + c) + n;
        const Cell* build = build_columns_[static_cast<size_t>(c)];
        for (int i = 0; i < take; ++i) out[i] = build[rows[i]];
      }
      n += take;
      match_cursor_ += static_cast<size_t>(take);
      if (match_cursor_ < matches_.size) break;
      ++input_pos_;
    } else if (input_live_ && input_pos_ < input_.size()) {
      const size_t row = static_cast<size_t>(input_pos_);
      matches_ = input_valid_[row]
                     ? table_->Probe(input_keys_.data() + row * key_width)
                     : JoinHashTable::Span{};
      match_cursor_ = 0;
      if (matches_.empty()) ++input_pos_;
    } else {
      input_live_ = RefillInput();
      if (!input_live_) break;
      input_pos_ = 0;
    }
  }
  batch.set_size(n);
  rows_produced_ += n;
  return n > 0;
}

// Same probes as the batch path, in the same order; each match span adds
// its size instead of its rows.
int64_t HashProbeJoin::CountImpl() {
  const size_t key_width = static_cast<size_t>(probe_keys_.width());
  int64_t count = 0;
  while (RefillInput()) {
    for (size_t i = 0; i < static_cast<size_t>(input_.size()); ++i) {
      if (!input_valid_[i]) continue;
      count += static_cast<int64_t>(
          table_->Probe(input_keys_.data() + i * key_width).size);
    }
  }
  rows_produced_ += count;
  return count;
}

void HashProbeJoin::CloseImpl() {
  left_->Close();
  table_.reset();
}

// ---------------------------------------------------------------- Hash

HashJoinOperator::HashJoinOperator(std::unique_ptr<Operator> left,
                                   std::unique_ptr<Operator> right,
                                   std::vector<Predicate> predicates)
    : HashProbeJoin(std::move(left)), right_(std::move(right)) {
  layout_ = Concat(left_->layout(), right_->layout());
  types_ = Concat(left_->types(), right_->types());
  JoinKeys keys = ResolveJoinKeys(left_->layout(), left_->types(),
                                  right_->layout(), right_->types(),
                                  predicates);
  JOINEST_CHECK(!keys.left.positions.empty())
      << "hash join requires at least one key";
  probe_keys_ = std::move(keys.left);
  build_keys_ = std::move(keys.right);
}

void HashJoinOperator::OpenImpl() {
  left_->Open();
  DrainInto(*right_, build_);
  {
    Span span("HashJoin::build");
    std::vector<int64_t> keys;
    std::vector<char> valid;
    build_keys_.Encode(build_, build_.size(), keys, valid);
    table_ = std::make_unique<JoinHashTable>(build_keys_.width(), keys, valid);
    span.SetArg("build_rows", build_.size());
  }
  build_columns_.clear();
  for (int c = 0; c < build_.width(); ++c) {
    build_columns_.push_back(build_.column(c));
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
      .Add(build_.size());
  registry
      .GetCounter("executor_hashjoin_build_keys_total",
                  "Distinct keys across hash-join build sides")
      .Add(static_cast<int64_t>(table_->num_keys()));
  StartProbe();
}

void HashJoinOperator::CloseImpl() {
  HashProbeJoin::CloseImpl();
  build_.Reset(0);
}

// ---------------------------------------------------------------- SMJ

SortMergeJoinOperator::SortMergeJoinOperator(
    std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
    std::vector<Predicate> predicates)
    : left_(std::move(left)), right_(std::move(right)) {
  layout_ = Concat(left_->layout(), right_->layout());
  types_ = Concat(left_->types(), right_->types());
  keys_ = ResolveJoinKeys(left_->layout(), left_->types(), right_->layout(),
                          right_->types(), predicates);
  JOINEST_CHECK(!keys_.left.positions.empty())
      << "sort-merge join requires a key";
}

void SortMergeJoinOperator::Sort(Operator& input,
                                 const KeyColumns& key_columns,
                                 SortedInput& out) {
  DrainInto(input, out.rows);
  std::vector<char> valid;
  key_columns.Encode(out.rows, out.rows.size(), out.keys, valid);
  out.order.clear();
  for (int64_t i = 0; i < out.rows.size(); ++i) {
    if (valid[static_cast<size_t>(i)]) out.order.push_back(i);
  }
  const int width = key_columns.width();
  const int64_t* keys = out.keys.data();
  std::sort(out.order.begin(), out.order.end(), [&](int64_t a, int64_t b) {
    return std::lexicographical_compare(keys + a * width,
                                        keys + (a + 1) * width,
                                        keys + b * width,
                                        keys + (b + 1) * width);
  });
}

void SortMergeJoinOperator::OpenImpl() {
  Sort(*left_, keys_.left, left_rows_);
  Sort(*right_, keys_.right, right_rows_);
  li_ = ri_ = 0;
  in_group_ = false;
}

bool SortMergeJoinOperator::NextBatchImpl(RowBatch& batch) {
  batch.Clear();
  const int width = keys_.left.width();
  // Three-way comparison of left order position l with right position r.
  auto compare = [&](size_t l, size_t r) {
    const int64_t* a = left_rows_.key(l, width);
    const int64_t* b = right_rows_.key(r, width);
    for (int k = 0; k < width; ++k) {
      if (a[k] != b[k]) return a[k] < b[k] ? -1 : 1;
    }
    return 0;
  };
  const size_t left_size = left_rows_.order.size();
  const size_t right_size = right_rows_.order.size();
  while (!batch.full()) {
    if (in_group_) {
      if (lcur_ < lg_) {
        AppendJoined(batch, left_rows_.rows, left_rows_.order[lcur_],
                     right_rows_.rows, right_rows_.order[rcur_]);
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
    if (li_ >= left_size || ri_ >= right_size) break;
    const int cmp = compare(li_, ri_);
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
    while (lg_ < left_size && compare(lg_, ri_) == 0) ++lg_;
    rg_ = ri_ + 1;
    while (rg_ < right_size && compare(li_, rg_) == 0) ++rg_;
    lcur_ = li_;
    rcur_ = ri_;
    in_group_ = true;
  }
  return !batch.empty();
}

void SortMergeJoinOperator::CloseImpl() {
  left_rows_ = SortedInput{};
  right_rows_ = SortedInput{};
}

// ---------------------------------------------------------------- Index NLJ

TableColumns::TableColumns(const Table& source, int table_index)
    : table(source) {
  for (int c = 0; c < source.num_columns(); ++c) {
    layout.push_back(ColumnRef{table_index, c});
    types.push_back(source.schema().column(c).type);
  }
}

IndexNestedLoopJoinOperator::IndexNestedLoopJoinOperator(
    std::unique_ptr<Operator> outer, const Table& inner_table,
    int inner_table_index, std::vector<Predicate> join_predicates,
    std::vector<Predicate> inner_predicates)
    : HashProbeJoin(std::move(outer)), inner_(inner_table, inner_table_index) {
  layout_ = Concat(left_->layout(), inner_.layout);
  types_ = Concat(left_->types(), inner_.types);
  JOINEST_CHECK(!join_predicates.empty())
      << "index join needs at least one key";
  JoinKeys keys = ResolveJoinKeys(left_->layout(), left_->types(),
                                  inner_.layout, inner_.types,
                                  join_predicates);
  probe_keys_ = std::move(keys.left);
  inner_keys_ = std::move(keys.right);
  inner_predicates_ =
      BindPredicates(inner_predicates, inner_.layout, inner_.types);
}

void IndexNestedLoopJoinOperator::OpenImpl() {
  left_->Open();
  const TableColumns& inner = inner_;
  const int64_t rows = inner.table.num_rows();
  std::vector<char> passes;
  EvaluatePredicates(inner_predicates_, inner, rows, passes);
  std::vector<int64_t> keys;
  std::vector<char> valid;
  inner_keys_.Encode(inner, rows, keys, valid);
  for (size_t i = 0; i < valid.size(); ++i) valid[i] &= passes[i];
  table_ = std::make_unique<JoinHashTable>(inner_keys_.width(), keys, valid);
  build_columns_.clear();
  for (int c = 0; c < inner.table.num_columns(); ++c) {
    build_columns_.push_back(inner.column(c));
  }
  StartProbe();
}

}  // namespace joinest
