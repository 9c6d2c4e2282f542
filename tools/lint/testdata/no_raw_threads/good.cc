// Fixture: every allowed use of the token "std::thread" — sizing queries,
// this_thread, thread::id, comments. The no-raw-threads checker must stay
// silent.
#include <thread>

// A comment mentioning std::thread construction is fine.

unsigned PoolSize() {
  return std::thread::hardware_concurrency();
}

void YieldOnce() {
  std::this_thread::yield();
}

std::thread::id SelfId() {
  return std::this_thread::get_id();
}
