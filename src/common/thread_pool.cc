#include "common/thread_pool.h"

#include <cstdlib>
#include <utility>

#include "common/logging.h"

namespace joinest {

namespace {

std::atomic<ThreadPoolObserver*> g_observer{nullptr};

// Index of the worker the current thread is running as, or -1. Used to
// route nested submissions to the submitting worker's own deque.
thread_local int t_worker_index = -1;
thread_local const ThreadPool* t_worker_pool = nullptr;

// How the pool started the task the current thread is running: the
// executing worker (-1: inline on a submitter, or the draining destructor)
// and whether it was stolen. A TaskGroup claim ticket hands both to the
// observer.
struct TaskSource {
  int worker = -1;
  bool stolen = false;
};
thread_local TaskSource t_task_source;

void RunTask(const ThreadPool::Task& task, TaskSource source) {
  const TaskSource outer = t_task_source;  // Tasks may run others inline.
  t_task_source = source;
  task();
  t_task_source = outer;
}

struct ObservedTask {
  ThreadPoolObserver* observer;
  int worker;
  bool stolen;
  void* token = nullptr;

  ObservedTask(int worker_index, bool was_stolen)
      : observer(g_observer.load(std::memory_order_acquire)),
        worker(worker_index),
        stolen(was_stolen) {
    if (observer != nullptr) token = observer->TaskStarted(worker, stolen);
  }
  ~ObservedTask() {
    if (observer != nullptr) observer->TaskFinished(worker, stolen, token);
  }
};

}  // namespace

void InstallThreadPoolObserver(ThreadPoolObserver* observer) {
  g_observer.store(observer, std::memory_order_release);
}

ThreadPool::ThreadPool(int num_workers) {
  JOINEST_CHECK_GE(num_workers, 0);
  queues_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  // Drain: the destructor completes pending tasks rather than dropping
  // them — a TaskGroup submitted to this pool may already have accounted
  // for them.
  while (true) {
    bool ran = false;
    for (size_t q = 0; q < queues_.size(); ++q) {
      Task task;
      {
        MutexLock lock(queues_[q]->mu);
        if (!queues_[q]->tasks.empty()) {
          task = std::move(queues_[q]->tasks.front());
          queues_[q]->tasks.pop_front();
        }
      }
      if (task) {
        pending_.fetch_sub(1, std::memory_order_relaxed);
        tasks_inline_.fetch_add(1, std::memory_order_relaxed);
        RunTask(task, TaskSource{});
        ran = true;
      }
    }
    if (!ran) break;
  }
  {
    MutexLock lock(sleep_mu_);
    stop_ = true;
  }
  sleep_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(Task task) {
  const int64_t workers = static_cast<int64_t>(workers_.size());
  if (workers == 0 ||
      pending_.load(std::memory_order_relaxed) >=
          kMaxPendingPerWorker * workers) {
    // No workers, or the queues are saturated: the producer becomes the
    // worker. Keeps submission bounded without ever blocking.
    tasks_inline_.fetch_add(1, std::memory_order_relaxed);
    RunTask(task, TaskSource{});
    return;
  }
  size_t target;
  if (t_worker_pool == this && t_worker_index >= 0) {
    target = static_cast<size_t>(t_worker_index);  // Nested: own deque.
  } else {
    target = next_queue_.fetch_add(1, std::memory_order_relaxed) %
             queues_.size();
  }
  const int64_t depth = pending_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    MutexLock lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  if (ThreadPoolObserver* obs = g_observer.load(std::memory_order_acquire)) {
    obs->QueueDepth(depth);
  }
  sleep_cv_.NotifyOne();
}

bool ThreadPool::TryRunOneTask(int index) {
  const size_t n = queues_.size();
  // Own deque first, from the back: the freshest (cache-hot) task.
  Task task;
  bool stolen = false;
  {
    WorkerQueue& own = *queues_[static_cast<size_t>(index)];
    MutexLock lock(own.mu);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
    }
  }
  if (!task) {
    // Steal from the front of the first non-empty victim: oldest task, the
    // one most likely to represent a large untouched work item.
    for (size_t delta = 1; delta < n && !task; ++delta) {
      WorkerQueue& victim =
          *queues_[(static_cast<size_t>(index) + delta) % n];
      MutexLock lock(victim.mu);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.front());
        victim.tasks.pop_front();
        stolen = true;
      }
    }
  }
  if (!task) return false;
  pending_.fetch_sub(1, std::memory_order_relaxed);
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  if (stolen) tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
  RunTask(task, TaskSource{index, stolen});
  return true;
}

void ThreadPool::WorkerLoop(int index) {
  t_worker_index = index;
  t_worker_pool = this;
  while (true) {
    if (TryRunOneTask(index)) continue;
    MutexLock lock(sleep_mu_);
    if (pending_.load(std::memory_order_relaxed) > 0) continue;
    // Drain-before-exit: stop_ is only honoured once every queue is empty,
    // so destroying the pool with tasks pending completes them.
    if (stop_) return;
    // While-loop wait (not a predicate lambda): the guarded stop_ reads
    // stay inside the locked scope where the analysis can see them.
    while (!stop_ && pending_.load(std::memory_order_relaxed) <= 0) {
      sleep_cv_.Wait(sleep_mu_);
    }
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  s.tasks_stolen = tasks_stolen_.load(std::memory_order_relaxed);
  s.tasks_inline = tasks_inline_.load(std::memory_order_relaxed);
  s.pending = pending_.load(std::memory_order_relaxed);
  return s;
}

// ------------------------------------------------------------- TaskGroup

TaskGroup::TaskGroup(ThreadPool& pool)
    : pool_(pool), state_(std::make_shared<State>()) {}

TaskGroup::~TaskGroup() { Wait(); }

bool TaskGroup::RunOne(const std::shared_ptr<State>& state, int worker,
                       bool stolen) {
  std::function<void()> fn;
  {
    MutexLock lock(state->mu);
    if (state->unstarted.empty()) return false;
    fn = std::move(state->unstarted.front());
    state->unstarted.pop_front();
  }
  {
    // Observed only once claimed, and closed before the completion below
    // is reported: a waiter may return from Wait() and free what the
    // observer records into (the trace session behind the task's span).
    ObservedTask observed(worker, stolen);
    fn();
  }
  bool last;
  {
    MutexLock lock(state->mu);
    last = --state->outstanding == 0;
  }
  if (last) state->cv.NotifyAll();
  return true;
}

void TaskGroup::Run(std::function<void()> fn) {
  {
    MutexLock lock(state_->mu);
    ++state_->outstanding;
    state_->unstarted.push_back(std::move(fn));
  }
  // The pool task is a claim ticket, not the closure itself: whichever of
  // a worker or the waiting thread gets there first pops the real task, so
  // Wait() can help without double execution.
  std::shared_ptr<State> state = state_;
  pool_.Submit([state] {
    RunOne(state, t_task_source.worker, t_task_source.stolen);
  });
}

void TaskGroup::Wait() {
  // Help first: run this group's unstarted tasks on the waiting thread.
  while (RunOne(state_, /*worker=*/-1, /*stolen=*/false)) {
  }
  MutexLock lock(state_->mu);
  while (state_->outstanding != 0) state_->cv.Wait(state_->mu);
}

// ---------------------------------------------------------- Shared pool

int NumPoolThreads() {
  if (const char* env = std::getenv("JOINEST_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool& SharedThreadPool() {
  // Leaked on purpose: workers park when idle, and tearing the pool down
  // during static destruction would race exiting threads.
  static ThreadPool* pool = new ThreadPool(NumPoolThreads() - 1);
  return *pool;
}

}  // namespace joinest
