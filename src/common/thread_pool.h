// Fork-join over an index range: the one way src/ runs work on more than
// one thread.
//
// ParallelFor(n, fn) calls fn(i) exactly once for every i in [0, n). The
// caller and up to min(n, NumPoolThreads()) - 1 threads started for this
// call each take the next index from one shared atomic counter until none
// remain, and the started threads are joined before ParallelFor returns:
// fn's captures stay valid throughout, and every write fn made is visible
// to the caller afterwards. No thread outlives the call, so there is no
// queue, no idle worker and no wakeup to lose.
//
// With JOINEST_THREADS=1 every index runs on the caller, in index order.
// If a thread cannot be started, the threads already running (the caller
// among them) take its indices.
//
// Which thread runs which index is not fixed. A caller that needs a
// deterministic result writes one output per index and combines them in
// index order after the call, as the partitioned sketch ANALYZE does
// (storage/analyze.cc). fn must not throw.

#ifndef JOINEST_COMMON_THREAD_POOL_H_
#define JOINEST_COMMON_THREAD_POOL_H_

#include <functional>

namespace joinest {

// Thread budget for the process: JOINEST_THREADS when set to a positive
// integer (deterministic CI), otherwise hardware_concurrency(); always at
// least 1. Read on every call.
int NumPoolThreads();

void ParallelFor(int n, const std::function<void(int)>& fn);

}  // namespace joinest

#endif  // JOINEST_COMMON_THREAD_POOL_H_
