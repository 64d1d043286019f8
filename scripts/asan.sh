#!/usr/bin/env bash
# Build the memory suite under AddressSanitizer and run the
# `asan`-labelled tests (fault model, resilient executors, validator,
# format scanner, hardening, oracle and mutation fuzzer, library
# quarantine, plan service, collective dataflow verifier, netsim event
# heap, compiled kernel rows, the hierarchical tuner, and the edge-list
# Schedule with its dense-oracle parity suite, text format, generators
# and composer).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-asan -S . -DOPTIBAR_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j "$(nproc)" --target \
  test_fault_plan test_resilience test_rma test_validate \
  test_format_hardening test_scanner test_format_oracle test_format_fuzz \
  test_library test_plan_service test_failure_injection \
  test_runtime_scaling test_nonblocking test_netsim_parity \
  test_collective_schedule test_event_queue test_compiled_predict \
  test_compiled_layout test_hierarchical \
  test_schedule_parity test_schedule test_schedule_io test_algorithms \
  test_composer
ctest --test-dir build-asan -L asan --output-on-failure
