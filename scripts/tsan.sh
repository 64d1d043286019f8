#!/usr/bin/env bash
# Build the concurrency suite under ThreadSanitizer and run the
# `tsan`-labelled tests (thread pool, library stress, plan service, C API,
# message-board accounting, executors and their episode handles).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-tsan -S . -DOPTIBAR_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j "$(nproc)" --target \
  test_thread_pool test_library_stress test_plan_service test_capi \
  test_compiled_predict test_board_accounting \
  test_collective_simmpi test_fault_plan test_resilience test_rma \
  test_runtime_scaling test_nonblocking test_netsim_parity test_simmpi
ctest --test-dir build-tsan -L tsan --output-on-failure
