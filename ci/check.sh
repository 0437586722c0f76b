#!/usr/bin/env bash
# The full CI gate, in dependency order:
#
#   1. configure + build the default tree, run the tier-1 test suite at
#      -j$(nproc), then again pinned to one core (taskset -c 0, -j1).
#      ctest is the one place an invariant is checked. Besides the unit
#      suites it holds the result oracle (corpus_verdicts --suite all
#      must print tests/data/corpus_verdicts.golden byte for byte with
#      each result-neutral toggle), the SARIF, trace and metrics sweep
#      over the dumped corpus (sarif_sweep), and the scand/scanctl
#      binaries driven over the whole corpus with a SIGKILL and restart
#      (service_test ScandProcess.*)
#   2. clang-tidy over src/ with the repo .clang-tidy profile (skipped
#      with a note when clang-tidy is not installed)
#   3. sanitizers: the ASan+UBSan build runs the whole test suite
#      (ci/sanitize.sh), golden rows included; the ThreadSanitizer build
#      runs the concurrency suites (ci/sanitize.sh --tsan)
#   4. telemetry overhead: the same-run attached/unattached end-to-end
#      micro ratio (bench_micro BM_EndToEndTelemetry / BM_EndToEnd
#      medians) must stay within OVERHEAD_TOLERANCE. It is the one
#      timing gate here, because both sides run on the same machine in
#      the same process (python3 reads the benchmark JSON)
#
# Wall time across commits is not gated here: scanbench/ (see
# BENCHMARK.json) compares paired runs of the parent and the change.
#
#   $ ci/check.sh            # everything
#   $ SKIP_SANITIZE=1 ci/check.sh
#   $ SKIP_BENCH=1 ci/check.sh
#   $ SKIP_TIDY=1 ci/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build
OVERHEAD_TOLERANCE=${OVERHEAD_TOLERANCE:-1.05}   # 5% attached-telemetry budget

echo "== [1/4] build + tier-1 tests =="
cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"
# Tier-1 must not depend on the host's width: run it again pinned to a
# single core, where every test's worker threads share one CPU and
# interleave differently from the parallel run above.
if command -v taskset >/dev/null; then
  taskset -c 0 ctest --test-dir "$BUILD_DIR" --output-on-failure -j1
else
  echo "taskset not found; single-core tier-1 run skipped"
fi

echo "== [2/4] clang-tidy =="
if [[ "${SKIP_TIDY:-0}" == "1" ]]; then
  echo "skipped (SKIP_TIDY=1)"
elif ! command -v clang-tidy >/dev/null; then
  echo "clang-tidy not found; lint step skipped"
else
  # Lint every translation unit under src/ against the repo profile.
  # run-clang-tidy parallelizes when available; otherwise iterate.
  mapfile -t TIDY_SOURCES < <(find src -name '*.cc' | sort)
  if command -v run-clang-tidy >/dev/null; then
    run-clang-tidy -p "$BUILD_DIR" -quiet "${TIDY_SOURCES[@]}"
  else
    clang-tidy -p "$BUILD_DIR" --quiet "${TIDY_SOURCES[@]}"
  fi
fi

echo "== [3/4] sanitizers =="
if [[ "${SKIP_SANITIZE:-0}" == "1" ]]; then
  echo "skipped (SKIP_SANITIZE=1)"
else
  ci/sanitize.sh
  ci/sanitize.sh --tsan
fi

echo "== [4/4] telemetry overhead ratio =="
if [[ "${SKIP_BENCH:-0}" == "1" ]]; then
  echo "skipped (SKIP_BENCH=1)"
else
  BENCH_JSON=$(mktemp)
  trap 'rm -f "$BENCH_JSON"' EXIT
  "$BUILD_DIR/bench/bench_micro" \
    --benchmark_filter='BM_EndToEnd$|BM_EndToEndTelemetry$' \
    --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
    --benchmark_format=json > "$BENCH_JSON"
  python3 - "$BENCH_JSON" "$OVERHEAD_TOLERANCE" <<'PY'
import json, sys
medians = {}
for b in json.load(open(sys.argv[1]))["benchmarks"]:
    if b["name"].endswith("_median"):
        medians[b["name"].removesuffix("_median")] = b["real_time"]
plain = medians["BM_EndToEnd"]
attached = medians["BM_EndToEndTelemetry"]
tolerance = float(sys.argv[2])
ratio = attached / plain if plain > 0 else 1.0
print(f"attached {attached:.2f} ms vs unattached {plain:.2f} ms: "
      f"ratio {ratio:.3f} (limit {tolerance})")
if ratio > tolerance:
    sys.exit(f"FAIL: telemetry-attached scan > "
             f"{(tolerance - 1) * 100:.0f}% over unattached")
PY
fi

echo "== all checks passed =="
