#include "executor/scan_ops.h"

#include <algorithm>

#include "common/logging.h"
#include "executor/hash_table.h"

namespace joinest {

SeqScanOperator::SeqScanOperator(
    const Table& table, int table_index,
    std::shared_ptr<const std::vector<int64_t>> row_ids)
    : table_(table), row_ids_(std::move(row_ids)) {
  if (row_ids_ != nullptr && !row_ids_->empty()) {
    JOINEST_CHECK_GE(row_ids_->front(), 0);
    JOINEST_CHECK_LT(row_ids_->back(), table.num_rows());
  }
  for (int c = 0; c < table.num_columns(); ++c) {
    layout_.push_back(ColumnRef{table_index, c});
    types_.push_back(table.schema().column(c).type);
  }
}

void SeqScanOperator::OpenImpl() { cursor_ = 0; }

bool SeqScanOperator::NextBatchImpl(RowBatch& batch) {
  const int64_t total = row_ids_ != nullptr
                            ? static_cast<int64_t>(row_ids_->size())
                            : table_.num_rows();
  const int64_t take = std::min<int64_t>(batch.capacity(), total - cursor_);
  for (int c = 0; c < table_.num_columns(); ++c) {
    const Cell* src = table_.cells(c).data();
    Cell* dst = batch.column(c);
    if (row_ids_ == nullptr) {
      std::copy(src + cursor_, src + cursor_ + take, dst);
    } else {
      const int64_t* ids = row_ids_->data() + cursor_;
      for (int64_t i = 0; i < take; ++i) dst[i] = src[ids[i]];
    }
  }
  batch.set_size(static_cast<int>(take));
  cursor_ += take;
  rows_produced_ += take;
  return !batch.empty();
}

void SeqScanOperator::CloseImpl() {}

FilterOperator::FilterOperator(std::unique_ptr<Operator> child,
                               std::vector<Predicate> predicates)
    : child_(std::move(child)) {
  layout_ = child_->layout();
  types_ = child_->types();
  predicates_ = BindPredicates(predicates, layout_, types_);
}

void FilterOperator::OpenImpl() { child_->Open(); }

bool FilterOperator::NextBatchImpl(RowBatch& batch) {
  // The filter's layout equals the child's, so the child fills the caller's
  // batch directly and passing rows are compacted in place — no copies.
  while (child_->NextBatch(batch)) {
    EvaluatePredicates(predicates_, batch, batch.size(), keep_);
    int passed = 0;
    for (int i = 0; i < batch.size(); ++i) passed += keep_[i];
    if (passed == 0) continue;  // Fully filtered batch; pull the next one.
    if (passed < batch.size()) batch.Keep(keep_);
    rows_produced_ += batch.size();
    return true;
  }
  batch.Clear();
  return false;
}

void FilterOperator::CloseImpl() { child_->Close(); }

ProjectOperator::ProjectOperator(std::unique_ptr<Operator> child,
                                 std::vector<ColumnRef> columns)
    : child_(std::move(child)) {
  for (ColumnRef ref : columns) {
    const int pos = FindInLayout(child_->layout(), ref);
    JOINEST_CHECK_GE(pos, 0) << "projected column missing from child layout";
    positions_.push_back(pos);
    layout_.push_back(ref);
    types_.push_back(child_->types()[static_cast<size_t>(pos)]);
  }
}

void ProjectOperator::OpenImpl() {
  child_->Open();
  input_.Clear();
  input_pos_ = 0;
}

bool ProjectOperator::NextBatchImpl(RowBatch& batch) {
  batch.Clear();
  while (!batch.full()) {
    if (input_pos_ >= input_.size()) {
      if (!child_->NextBatch(input_)) break;
      input_pos_ = 0;
    }
    const int take =
        std::min(batch.capacity() - batch.size(), input_.size() - input_pos_);
    for (size_t i = 0; i < positions_.size(); ++i) {
      const Cell* src = input_.column(positions_[i]) + input_pos_;
      std::copy(src, src + take,
                batch.column(static_cast<int>(i)) + batch.size());
    }
    batch.set_size(batch.size() + take);
    input_pos_ += take;
  }
  rows_produced_ += batch.size();
  return !batch.empty();
}

void ProjectOperator::CloseImpl() { child_->Close(); }

CountAggOperator::CountAggOperator(std::unique_ptr<Operator> child)
    : child_(std::move(child)) {
  layout_ = {ColumnRef{-1, -1}};  // COUNT(*) has no catalog identity.
  types_ = {TypeKind::kInt64};
}

void CountAggOperator::OpenImpl() {
  child_->Open();
  done_ = false;
}

bool CountAggOperator::NextBatchImpl(RowBatch& batch) {
  batch.Clear();
  if (done_) return false;
  batch.column(0)[0] = child_->Count();
  batch.set_size(1);
  done_ = true;
  ++rows_produced_;
  return true;
}

void CountAggOperator::CloseImpl() { child_->Close(); }

GroupCountOperator::GroupCountOperator(std::unique_ptr<Operator> child,
                                       std::vector<ColumnRef> group_columns)
    : child_(std::move(child)) {
  JOINEST_CHECK(!group_columns.empty());
  for (ColumnRef ref : group_columns) {
    const int pos = FindInLayout(child_->layout(), ref);
    JOINEST_CHECK_GE(pos, 0) << "group column missing from child layout";
    const TypeKind type = child_->types()[static_cast<size_t>(pos)];
    positions_.push_back(pos);
    encodings_.push_back(KeyEncodingFor(type, type));
    layout_.push_back(ref);
    types_.push_back(type);
  }
  // The trailing COUNT(*) column has no catalog identity.
  layout_.push_back(ColumnRef{-1, -1});
  types_.push_back(TypeKind::kInt64);
}

void GroupCountOperator::OpenImpl() {
  child_->Open();
  aggregated_ = false;
  results_.clear();
  cursor_ = 0;
}

bool GroupCountOperator::NextBatchImpl(RowBatch& batch) {
  const size_t width = positions_.size();
  if (!aggregated_) {
    std::vector<int64_t> keys;
    while (child_->NextBatch(scratch_)) {
      const size_t base = keys.size();
      keys.resize(base + static_cast<size_t>(scratch_.size()) * width);
      for (size_t k = 0; k < width; ++k) {
        const Cell* cells = scratch_.column(positions_[k]);
        for (int i = 0; i < scratch_.size(); ++i) {
          EncodeKey(encodings_[k], cells[i],
                    &keys[base + static_cast<size_t>(i) * width + k]);
        }
      }
    }
    const JoinHashTable groups(static_cast<int>(width), keys,
                               std::vector<char>(keys.size() / width, 1));
    results_.assign(width + 1, {});
    groups.ForEachKey([&](const int64_t* key, JoinHashTable::Span rows) {
      for (size_t k = 0; k < width; ++k) {
        results_[k].push_back(DecodeKey(encodings_[k], key[k]));
      }
      results_[width].push_back(static_cast<Cell>(rows.size));
    });
    aggregated_ = true;
  }
  const int64_t groups = static_cast<int64_t>(results_[width].size());
  const int take =
      static_cast<int>(std::min<int64_t>(batch.capacity(), groups - cursor_));
  for (size_t c = 0; c <= width; ++c) {
    const Cell* src = results_[c].data() + cursor_;
    std::copy(src, src + take, batch.column(static_cast<int>(c)));
  }
  batch.set_size(take);
  cursor_ += take;
  rows_produced_ += take;
  return !batch.empty();
}

void GroupCountOperator::CloseImpl() {
  child_->Close();
  results_.clear();
}

}  // namespace joinest
