#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace joinest {

namespace {

std::atomic<TraceSession*> g_active_session{nullptr};
// The calling thread's own session (ThreadTraceScope); shadows the
// process-wide one for spans on this thread.
thread_local TraceSession* tls_session = nullptr;

// Small sequential per-OS-thread id for the Chrome export's "tid" field.
int32_t ThreadTraceId() {
  static std::atomic<int32_t> next_thread{0};
  thread_local const int32_t id =
      next_thread.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// Per-thread stack of open spans: (span id, depth). Parent linkage for
// nested spans comes from here, so it is exact per thread with no locking.
struct SpanFrame {
  int64_t id;
  int32_t depth;
};
thread_local std::vector<SpanFrame> tls_span_stack;

}  // namespace

TraceSession::TraceSession(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)),
      epoch_(std::chrono::steady_clock::now()) {
  ring_.reserve(capacity_);
}

TraceSession::~TraceSession() { Deactivate(); }

void TraceSession::Activate() {
  TraceSession* expected = nullptr;
  const bool won = g_active_session.compare_exchange_strong(expected, this);
  JOINEST_CHECK(won || expected == this)
      << "another TraceSession is already active";
}

void TraceSession::Deactivate() {
  TraceSession* expected = this;
  g_active_session.compare_exchange_strong(expected, nullptr);
}

TraceSession* TraceSession::Active() {
  if (tls_session != nullptr) return tls_session;
  return g_active_session.load(std::memory_order_acquire);
}

ThreadTraceScope::ThreadTraceScope(TraceSession* session)
    : previous_(tls_session) {
  tls_session = session;
}

ThreadTraceScope::~ThreadTraceScope() { tls_session = previous_; }

const char* TraceSession::Intern(const std::string& name) {
  MutexLock lock(mutex_);
  const auto it = intern_index_.find(name);
  if (it != intern_index_.end()) return it->second;
  interned_.push_back(name);
  const char* stable = interned_.back().c_str();
  intern_index_.emplace(name, stable);
  return stable;
}

int64_t TraceSession::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TraceSession::Record(const Event& event) {
  MutexLock lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[static_cast<size_t>(next_index_) % capacity_] = event;
  }
  ++next_index_;
}

std::vector<TraceSession::Event> TraceSession::Snapshot() const {
  MutexLock lock(mutex_);
  return SnapshotLocked();
}

std::vector<TraceSession::Event> TraceSession::SnapshotLocked() const {
  std::vector<Event> events;
  events.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    events = ring_;
  } else {
    // Ring wrapped: oldest event lives at the write cursor.
    const size_t cursor = static_cast<size_t>(next_index_) % capacity_;
    events.insert(events.end(), ring_.begin() + static_cast<long>(cursor),
                  ring_.end());
    events.insert(events.end(), ring_.begin(),
                  ring_.begin() + static_cast<long>(cursor));
  }
  return events;
}

int64_t TraceSession::dropped() const {
  MutexLock lock(mutex_);
  return next_index_ <= static_cast<int64_t>(capacity_)
             ? 0
             : next_index_ - static_cast<int64_t>(capacity_);
}

int64_t TraceSession::total_events() const {
  MutexLock lock(mutex_);
  return next_index_;
}

void TraceSession::WriteChromeTrace(JsonWriter& json) const {
  // One lock for events + counters so the exported header is consistent
  // with the exported event list even while spans keep recording:
  // len(traceEvents) + dropped_events == total_events exactly.
  std::vector<Event> events;
  int64_t total = 0;
  {
    MutexLock lock(mutex_);
    events = SnapshotLocked();
    total = next_index_;
  }
  const int64_t dropped_events =
      total - static_cast<int64_t>(events.size());
  json.BeginObject();
  json.Key("traceEvents");
  json.BeginArray();
  for (const Event& event : events) {
    json.BeginObject();
    json.Key("name");
    json.String(event.name != nullptr ? event.name : "?");
    json.Key("cat");
    json.String("joinest");
    json.Key("ph");
    json.String("X");
    // Chrome trace timestamps are microseconds; keep ns resolution in the
    // fraction.
    json.Key("ts");
    json.Number(static_cast<double>(event.start_ns) / 1e3);
    json.Key("dur");
    json.Number(static_cast<double>(event.duration_ns) / 1e3);
    json.Key("pid");
    json.Int(1);
    json.Key("tid");
    json.Int(event.thread_id);
    json.Key("args");
    json.BeginObject();
    json.Key("span_id");
    json.Int(event.id);
    json.Key("parent_id");
    json.Int(event.parent_id);
    json.Key("depth");
    json.Int(event.depth);
    if (event.arg_name != nullptr) {
      json.Key(event.arg_name);
      json.Int(event.arg_value);
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.Key("displayTimeUnit");
  json.String("ns");
  json.Key("otherData");
  json.BeginObject();
  json.Key("dropped_events");
  json.Int(dropped_events);
  json.Key("total_events");
  json.Int(total);
  json.Key("capacity");
  json.Int(static_cast<int64_t>(capacity_));
  json.EndObject();
  json.EndObject();
}

std::string TraceSession::ToChromeTraceJson() const {
  JsonWriter json;
  WriteChromeTrace(json);
  return json.str();
}

Span::Span(const char* name, const char* arg_name, int64_t arg_value)
    : session_(TraceSession::Active()),
      name_(name),
      arg_name_(arg_name),
      arg_value_(arg_value) {
  if (session_ == nullptr) return;
  start_ns_ = session_->NowNs();
  id_ = session_->NextSpanId();
  if (!tls_span_stack.empty()) {
    parent_id_ = tls_span_stack.back().id;
    depth_ = tls_span_stack.back().depth + 1;
  }
  tls_span_stack.push_back(SpanFrame{id_, depth_});
}

Span::~Span() {
  if (session_ == nullptr) return;
  // The stack top is this span unless someone leaked a Span across scopes;
  // pop only our own frame to stay robust.
  if (!tls_span_stack.empty() && tls_span_stack.back().id == id_) {
    tls_span_stack.pop_back();
  }
  TraceSession::Event event;
  event.name = name_;
  event.arg_name = arg_name_;
  event.start_ns = start_ns_;
  event.duration_ns = session_->NowNs() - start_ns_;
  event.id = id_;
  event.parent_id = parent_id_;
  event.arg_value = arg_value_;
  event.thread_id = ThreadTraceId();
  event.depth = depth_;
  session_->Record(event);
}

namespace {

const char* g_postmortem_path = "joinest_trace_postmortem.json";

void DumpTraceOnCheckFailure(const char* message) {
  (void)message;
  TraceSession* session = TraceSession::Active();
  if (session == nullptr) return;
  if (WriteTextFile(g_postmortem_path, session->ToChromeTraceJson())) {
    std::fprintf(stderr, "joinest: dumped post-mortem trace to %s\n",
                 g_postmortem_path);
  }
}

}  // namespace

void InstallCheckFailureTraceDump(const char* path) {
  g_postmortem_path = path;
  internal_logging::SetCheckFailureHook(&DumpTraceOnCheckFailure);
}

}  // namespace joinest
