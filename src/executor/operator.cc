#include "executor/operator.h"

#include "obs/trace.h"

namespace joinest {

namespace {

using Clock = std::chrono::steady_clock;

// The operator currently being driven on this thread. Each wrapper call
// pushes itself here so a child's wrapper can credit its elapsed time to
// the parent (exclusive-time accounting). Concurrent queries drive
// disjoint operator trees, so a per-thread chain is exact.
thread_local Operator* tls_current_operator = nullptr;

}  // namespace

class Operator::TimerScope {
 public:
  explicit TimerScope(Operator* self)
      : self_(self),
        parent_(tls_current_operator),
        start_(Clock::now()) {
    tls_current_operator = self;
  }
  ~TimerScope() {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start_).count();
    self_->seconds_ += elapsed;
    if (parent_ != nullptr) parent_->child_seconds_ += elapsed;
    tls_current_operator = parent_;
  }
  TimerScope(const TimerScope&) = delete;
  TimerScope& operator=(const TimerScope&) = delete;

 private:
  Operator* self_;
  Operator* parent_;
  Clock::time_point start_;
};

int FindInLayout(const std::vector<ColumnRef>& layout, ColumnRef column) {
  for (size_t i = 0; i < layout.size(); ++i) {
    if (layout[i] == column) return static_cast<int>(i);
  }
  return -1;
}

// Note: rows_produced_ deliberately survives Open — a re-opened operator
// (NLJ inner rescans) keeps accumulating, which is what the rescan-cost
// assertions in the tests and the EXPLAIN ANALYZE output want to see.
void Operator::Open() {
  TimerScope timer(this);
  // Open is where the expensive one-off work happens (hash builds, inner
  // materialisation), so it gets a span; per-batch spans would swamp the
  // ring. Interning allocates, hence the active-session guard.
  if (TraceSession* session = TraceSession::Active()) {
    Span span(session->Intern(name() + "::Open"));
    OpenImpl();
    return;
  }
  OpenImpl();
}

bool Operator::NextBatch(RowBatch& batch) {
  TimerScope timer(this);
  batch.SetWidth(static_cast<int>(types_.size()));
  const bool more = NextBatchImpl(batch);
  if (more) {
    ++batches_;
    batch_rows_ += batch.size();
  }
  return more;
}

int64_t Operator::Count() {
  TimerScope timer(this);
  return CountImpl();
}

void Operator::Close() {
  TimerScope timer(this);
  CloseImpl();
}

// Calls NextBatchImpl rather than NextBatch: the Count wrapper already
// times this operator, and a nested wrapper would time it twice.
int64_t Operator::CountImpl() {
  RowBatch batch;
  batch.SetWidth(static_cast<int>(types_.size()));
  int64_t count = 0;
  while (NextBatchImpl(batch)) {
    ++batches_;
    batch_rows_ += batch.size();
    count += batch.size();
  }
  return count;
}

OperatorStats SnapshotOperatorStats(const Operator& op) {
  OperatorStats stats;
  stats.name = op.name();
  stats.rows = op.rows_produced();
  stats.seconds = op.seconds();
  stats.self_seconds = op.self_seconds();
  stats.batches = op.batches();
  stats.batch_rows = op.batch_rows();
  return stats;
}

}  // namespace joinest
