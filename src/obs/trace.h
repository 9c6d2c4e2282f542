// Estimation/execution pipeline tracing: TraceSession + RAII Span.
//
// A TraceSession owns a fixed-capacity ring buffer of 64-byte span events.
// Activating a session makes it the process-wide recording target; Span
// objects constructed anywhere (the parser, the rewrite passes, the
// estimator, operator Open/Close, pool tasks) then record one complete
// event each on destruction. With no active session a Span costs one
// relaxed atomic load — instrumentation can stay compiled in on hot-ish
// paths (per operator open, per pool task; never per row).
//
// Spans nest: each thread keeps a span stack, so events carry their parent
// span id and depth, and the Chrome trace-event export renders the nesting
// in chrome://tracing / Perfetto ("ph":"X" complete events, microsecond
// timestamps, one track per thread).
//
// When the ring wraps, the oldest events are overwritten (dropped() counts
// them) — a long-running process can leave tracing active and export the
// recent window on demand.
//
// InstallCheckFailureTraceDump() hooks the shared CheckFailure sink
// (common/logging.h): a failed CHECK/contract dumps the active session's
// buffer to a post-mortem JSON file before aborting.

#ifndef JOINEST_OBS_TRACE_H_
#define JOINEST_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/thread_annotations.h"

namespace joinest {

class TraceSession {
 public:
  // One span event. Kept at 64 bytes (one cache line) so the ring stays
  // compact; names are borrowed pointers — string literals, or strings
  // interned into the session via Intern().
  struct Event {
    const char* name = nullptr;      // Span name (not owned).
    const char* arg_name = nullptr;  // Optional single argument name.
    int64_t start_ns = 0;            // Relative to session creation.
    int64_t duration_ns = 0;
    int64_t id = 0;                  // Session-unique span id.
    int64_t parent_id = -1;          // -1 for root spans.
    int64_t arg_value = 0;
    int32_t thread_id = 0;           // Small sequential id per OS thread.
    int32_t depth = 0;               // Root spans are depth 0.
  };
  static_assert(sizeof(void*) != 8 || sizeof(Event) == 64,
                "span events should stay one cache line");

  explicit TraceSession(size_t capacity = kDefaultCapacity);
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  static constexpr size_t kDefaultCapacity = 1 << 14;  // 1 MiB of events.

  // Makes this session the recording target for every Span in the process.
  // One active session at a time; the destructor deactivates implicitly.
  void Activate();
  void Deactivate();
  static TraceSession* Active();

  // Copies `name` into session-owned storage and returns a pointer stable
  // for the session's lifetime. Repeated interning of the same string
  // returns the same pointer.
  const char* Intern(const std::string& name);

  // Appends one finished span event (thread-safe). Normally called by
  // ~Span, not directly.
  void Record(const Event& event);

  // Events currently in the ring, oldest first.
  std::vector<Event> Snapshot() const;
  // Events overwritten after the ring filled.
  int64_t dropped() const;
  // Events ever recorded, including overwritten ones:
  // total_events() == Snapshot().size() + dropped() at any quiescent point.
  int64_t total_events() const;
  size_t capacity() const { return capacity_; }

  // Nanoseconds since session creation (the Event timebase).
  int64_t NowNs() const;

  // Chrome trace-event / Perfetto JSON: {"traceEvents": [...], ...}.
  // Load in chrome://tracing or ui.perfetto.dev, or validate with
  // tools/check_trace.py.
  void WriteChromeTrace(JsonWriter& json) const;
  std::string ToChromeTraceJson() const;

 private:
  friend class Span;

  std::vector<Event> SnapshotLocked() const JOINEST_REQUIRES(mutex_);

  int64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  const size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable Mutex mutex_;
  std::vector<Event> ring_ JOINEST_GUARDED_BY(mutex_);
  // Total events ever recorded.
  int64_t next_index_ JOINEST_GUARDED_BY(mutex_) = 0;
  std::atomic<int64_t> next_span_id_{0};
  std::map<std::string, const char*> intern_index_
      JOINEST_GUARDED_BY(mutex_);
  std::deque<std::string> interned_ JOINEST_GUARDED_BY(mutex_);
};

// RAII span. Constructing with the session inactive is free; with a session
// active, destruction records one complete event. Use string literals (or
// TraceSession::Intern results) for names and the argument name.
class Span {
 public:
  explicit Span(const char* name) : Span(name, nullptr, 0) {}
  Span(const char* name, const char* arg_name, int64_t arg_value);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Overrides/sets the single argument after construction (e.g. a row count
  // known only at scope exit).
  void SetArg(const char* arg_name, int64_t arg_value) {
    arg_name_ = arg_name;
    arg_value_ = arg_value;
  }

 private:
  TraceSession* session_;  // nullptr → inert span.
  const char* name_;
  const char* arg_name_;
  int64_t arg_value_;
  int64_t start_ns_ = 0;
  int64_t id_ = 0;
  int64_t parent_id_ = -1;
  int32_t depth_ = 0;
};

// Registers the CheckFailure hook that dumps the active trace session (if
// any) to `path` when a CHECK or contract fails, then returns. Idempotent.
// The default path lands in the current working directory.
void InstallCheckFailureTraceDump(
    const char* path = "joinest_trace_postmortem.json");

}  // namespace joinest

#endif  // JOINEST_OBS_TRACE_H_
