#!/usr/bin/env bash
# Builds and runs the test suite under sanitizers, one out-of-tree build per
# configuration:
#
#   * asan_ubsan — AddressSanitizer + UndefinedBehaviorSanitizer over the
#     full ctest suite (obs_test destroys a trace session right after each
#     pool task group, so a task span outliving its session shows up as a
#     heap-use-after-free);
#   * tsan — ThreadSanitizer over the tests that exercise concurrency: the
#     shared work-stealing pool (thread_pool_test hammers stealing, nested
#     submission, and shutdown-with-pending-tasks directly),
#     the partitioned sketch ANALYZE path (pool tasks per row-range
#     partition), the process-wide string dictionary (storage_test's
#     builder threads intern overlapping strings while another thread
#     counts a string join), the executor and parity suites (executor_test,
#     parity_test, kept as a guard), and the estimation service (service_test
#     races sessions against concurrent ANALYZE snapshot republishes and
#     hammers the sharded result cache and its per-table reclaim, and runs
#     ExplainAnalyze with trace capture on two threads while a third
#     prepares queries: a per-call trace session once activated
#     process-wide let the preparer's query::parse span record into a
#     session its owner had freed), the query flight recorder
#     (flight_recorder_test drives N writers into the mutex-sharded ring),
#     and the cardinality feedback store (feedback_test races ingestion
#     against concurrent consultation and ANALYZE aging).
#
# Usage: tools/run_sanitizers.sh [build-root]   (default: build-sanitize)

set -euo pipefail

cd "$(dirname "$0")/.."
root="${1:-build-sanitize}"

# $3: a ctest -R regex naming the suites to run; empty runs them all.
run_job() {
  local name="$1" sanitizers="$2" test_regex="$3"
  local dir="${root}/${name}"
  echo "== ${name}: -fsanitize=${sanitizers} =="
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DJOINEST_SANITIZE="${sanitizers}" >/dev/null
  cmake --build "${dir}" -j "$(nproc)" >/dev/null
  ctest --test-dir "${dir}" --output-on-failure ${test_regex:+-R "${test_regex}"}
}

# UBSan: abort on the first report so ctest fails loudly.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export TSAN_OPTIONS="halt_on_error=1"

run_job asan_ubsan "address,undefined" ""
run_job tsan "thread" "sketch_test|storage_test|parity_test|executor_test|service_test|pt_test|feedback_test|thread_pool_test|flight_recorder_test"

echo "All sanitizer jobs passed."
