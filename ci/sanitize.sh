#!/usr/bin/env bash
# Builds the tree with ASan+UBSan and runs the full test suite under the
# sanitizers, so the fault-injection and mutation robustness tests also
# exercise memory safety. Mirrors the "asan-ubsan" CMake preset for CI
# runners whose cmake predates presets.
#
# The heap-graph hash-consing/memoization paths (open-addressing cons
# table, rekeying, taint/s-expr caches, interned environments, shared
# solver query cache) are covered by the same suite; stack-use-after-
# return detection stays on to catch dangling references into rehashed
# or resized cache storage.
#
# With --tsan the tree is instead built with ThreadSanitizer (the "tsan"
# preset) and the concurrency-sensitive suites run: scan_many_test
# (parallel fleet driver, shared solver query cache),
# telemetry_test (metrics registry and trace recording under concurrent
# scans), service_test (scand worker pool, watchdog, durable cache
# flushes under concurrent requests, and the scand/scanctl binaries of
# the same build driven over the corpus), observability_test (lock-free
# flight-recorder ring racing snapshot against a writer, concurrent
# trace/metrics export), parse_pool_test (parallel per-file parsing:
# work-stealing claim counter, per-file arenas/sinks, deadline expiry
# mid-pool), property_fuzz_test (serial-vs-parallel parse identity
# over generated multi-file apps, end to end through the detector) and
# summaries_test (the inter-procedural summary store's memoized
# instantiation cache exercised under scans the fleet driver may run
# concurrently; the store itself is per-scan, so this pins that no
# state leaks into shared registries) and profile_test (the path-
# explosion profiler's snapshot() racing a writer thread driving
# begin_root/enter_site/sample/end_root, the scand `profile` op's
# access pattern).
# ASan and TSan cannot share a build, hence the separate mode and build
# directory.
#
#   $ ci/sanitize.sh [ctest-args...]
#   $ ci/sanitize.sh --tsan [ctest-args...]
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=asan
if [[ "${1:-}" == "--tsan" ]]; then
  MODE=tsan
  shift
fi

if [[ "$MODE" == "tsan" ]]; then
  BUILD_DIR=build-tsan
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DUCHECKER_TSAN=ON
  cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target scan_many_test telemetry_test service_test observability_test \
             parse_pool_test property_fuzz_test summaries_test profile_test

  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:suppressions=$PWD/ci/tsan.supp"
  ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R '^(scan_many_test|telemetry_test|service_test|observability_test|parse_pool_test|property_fuzz_test|summaries_test|profile_test)$' "$@"
  exit 0
fi

BUILD_DIR=build-asan

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DUCHECKER_SANITIZE=ON
cmake --build "$BUILD_DIR" -j"$(nproc)"

export ASAN_OPTIONS="detect_leaks=0:abort_on_error=1:detect_stack_use_after_return=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)" "$@"
