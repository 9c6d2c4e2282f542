#include "estimator/runtime_selectivity.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace joinest {

namespace {

// Rates within this tolerance are "the same observation": re-recording them
// must not bump the epoch (and so must not invalidate cached estimates).
constexpr double kSameRateTolerance = 1e-12;

double ClampRate(double rate) {
  if (!std::isfinite(rate)) return 1.0;
  return std::min(1.0, std::max(0.0, rate));
}

}  // namespace

void RuntimeSelectivityStore::RecordTableSurvival(const std::string& table,
                                                  double fraction) {
  const double value = ClampRate(fraction);
  MutexLock lock(mutex_);
  const auto [it, inserted] = tables_.emplace(table, value);
  if (!inserted) {
    if (std::fabs(it->second - value) <= kSameRateTolerance) return;
    it->second = value;
  }
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

void RuntimeSelectivityStore::RecordColumnPassRate(const std::string& table,
                                                   int column, double rate) {
  const double value = ClampRate(rate);
  MutexLock lock(mutex_);
  const auto [it, inserted] = columns_.emplace(std::make_pair(table, column),
                                               value);
  if (!inserted) {
    if (std::fabs(it->second - value) <= kSameRateTolerance) return;
    it->second = value;
  }
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

std::optional<double> RuntimeSelectivityStore::TableSurvival(
    const std::string& table) const {
  MutexLock lock(mutex_);
  const auto it = tables_.find(table);
  if (it == tables_.end()) return std::nullopt;
  return it->second;
}

std::optional<double> RuntimeSelectivityStore::ColumnPassRate(
    const std::string& table, int column) const {
  MutexLock lock(mutex_);
  const auto it = columns_.find(std::make_pair(table, column));
  if (it == columns_.end()) return std::nullopt;
  return it->second;
}

int64_t RuntimeSelectivityStore::size() const {
  MutexLock lock(mutex_);
  return static_cast<int64_t>(tables_.size() + columns_.size());
}

void RuntimeSelectivityStore::ForgetTables(
    const std::vector<std::string>& tables) {
  MutexLock lock(mutex_);
  bool dropped = false;
  for (const std::string& table : tables) {
    dropped |= tables_.erase(table) > 0;
    auto it = columns_.lower_bound({table, std::numeric_limits<int>::min()});
    while (it != columns_.end() && it->first.first == table) {
      it = columns_.erase(it);
      dropped = true;
    }
  }
  if (dropped) epoch_.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace joinest
