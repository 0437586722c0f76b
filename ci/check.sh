#!/usr/bin/env bash
# The full CI gate, in dependency order:
#
#   1. configure + build the default tree, run the tier-1 test suite at
#      -j$(nproc), then again pinned to one core (taskset -c 0, -j1).
#      Tier-1 includes the result oracle: corpus_verdicts --suite all
#      must print tests/data/corpus_verdicts.golden byte for byte with
#      each result-neutral toggle (plain, --explain, --parse-threads 4,
#      --no-summaries, --no-prefilter, --crosscheck, --observe),
#      corpus_test pins the helper suite, the static-pass prune floor
#      and a budget post-mortem, and the sarif_sweep row validates the
#      SARIF of every dumped corpus app
#   2. clang-tidy over src/ with the repo .clang-tidy profile (skipped
#      with a note when clang-tidy is not installed, like the python3
#      checks below)
#   3. sanitizers: the ASan+UBSan build runs the whole test suite
#      (ci/sanitize.sh), golden rows included; the ThreadSanitizer build
#      runs the concurrency suites (ci/sanitize.sh --tsan)
#   4. telemetry smoke: scan a known-vulnerable sample with
#      --trace-out/--metrics-out and validate that both outputs are
#      well-formed JSON with the expected pipeline phases
#   5. scand service gate: dump the corpus as PHP trees, start the
#      daemon against a fresh state dir, scan the whole dumped corpus
#      through scanctl and require every verdict to match single-shot
#      scan_directory; scan it all again and require warm cache hits
#      with reports byte-identical to the first pass; then kill -9 the
#      daemon mid-scan, restart it on the same state dir, and require it
#      to recover and re-serve from the durable caches. (The
#      durable-store and service suites also run under ASan/TSan via
#      step 3.)
#   6. observability gate: a daemon corpus sweep with caller-supplied
#      trace IDs asserting every ID lands in the response envelope, the
#      report, the structured log, the Prometheus exemplars and the
#      shutdown Chrome trace; every log line validates against the JSON
#      schema; the Prometheus exposition passes a lint (TYPE coverage,
#      counter naming, cumulative buckets, +Inf == _count); a SIGTERM
#      drain must leave per-worker flight-recorder dumps; and the
#      same-run attached/unattached telemetry micro ratio must stay
#      within OVERHEAD_TOLERANCE
#   7. engine introspection gate: a full-corpus --profile-out sweep must
#      produce schema-valid profile JSON on every app, and every report
#      must be byte-identical with profiling off (after dropping the
#      profile object and normalizing wall times)
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

echo "== [1/7] build + tier-1 tests =="
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

echo "== [2/7] clang-tidy =="
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

echo "== [3/7] sanitizers =="
if [[ "${SKIP_SANITIZE:-0}" == "1" ]]; then
  echo "skipped (SKIP_SANITIZE=1)"
else
  ci/sanitize.sh
  ci/sanitize.sh --tsan
fi

echo "== [4/7] telemetry smoke: trace + metrics JSON =="
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
cat > "$SMOKE_DIR/upload.php" <<'PHP'
<?php
move_uploaded_file($_FILES['f']['tmp_name'], '/u/' . $_FILES['f']['name']);
PHP
# Exit 1 = vulnerable (expected for this sample); anything else is a bug.
rc=0
"$BUILD_DIR/examples/scan_directory" "$SMOKE_DIR" --quiet \
  --trace-out="$SMOKE_DIR/trace.json" \
  --metrics-out="$SMOKE_DIR/metrics.json" >/dev/null || rc=$?
if [[ "$rc" != "1" ]]; then
  echo "FAIL: expected vulnerable verdict (exit 1), got exit $rc" >&2
  exit 1
fi
if command -v python3 >/dev/null; then
  python3 - "$SMOKE_DIR/trace.json" "$SMOKE_DIR/metrics.json" <<'PY'
import json, sys
trace = json.load(open(sys.argv[1]))
assert trace["displayTimeUnit"] == "ms", "bad displayTimeUnit"
names = {e["name"] for e in trace["traceEvents"]}
for phase in ("scan", "parse", "locality", "interp", "translate", "solve"):
    assert phase in names, f"trace missing phase span: {phase}"
metrics = json.load(open(sys.argv[2]))
phases = {p["phase"] for p in metrics["phases"]}
for phase in ("scan", "parse", "locality", "interp", "translate", "solve"):
    assert phase in phases, f"metrics missing phase stats: {phase}"
assert metrics["counters"].get("scan.count") == 1, "scan.count != 1"
print("trace + metrics JSON OK "
      f"({len(trace['traceEvents'])} events, {len(phases)} phases)")
PY
else
  echo "python3 not found; JSON structure check skipped"
fi

echo "== [5/7] scand service gate =="
CORPUS_DIR="$SMOKE_DIR/corpus"
mkdir -p "$CORPUS_DIR"
"$BUILD_DIR/examples/corpus_verdicts" --dump "$CORPUS_DIR" >/dev/null
SCAND_DIR="$SMOKE_DIR/scand"
SCAND_SOCK="$SCAND_DIR/scand.sock"
SCAND_STATE="$SCAND_DIR/state"
mkdir -p "$SCAND_STATE"
SCAND_PID=
stop_scand() {
  if [[ -n "$SCAND_PID" ]] && kill -0 "$SCAND_PID" 2>/dev/null; then
    kill -9 "$SCAND_PID" 2>/dev/null || true
    wait "$SCAND_PID" 2>/dev/null || true
  fi
  SCAND_PID=
}
start_scand() {
  "$BUILD_DIR/examples/scand" --socket "$SCAND_SOCK" \
    --state-dir "$SCAND_STATE" --request-timeout-ms 120000 \
    2>> "$SCAND_DIR/scand.log" &
  SCAND_PID=$!
  for _ in $(seq 100); do
    if "$BUILD_DIR/examples/scanctl" --socket "$SCAND_SOCK" ping \
         >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "FAIL: scand did not come up on $SCAND_SOCK" >&2
  cat "$SCAND_DIR/scand.log" >&2 || true
  exit 1
}
trap 'stop_scand; rm -rf "$SMOKE_DIR"' EXIT

start_scand
# Pass 1 (cold): daemon verdicts must match single-shot scan_directory
# on every corpus app. Reports are stashed for the byte-identity check.
mkdir -p "$SCAND_DIR/pass1" "$SCAND_DIR/pass2"
SCAND_APPS=0
while IFS= read -r -d '' appdir; do
  name=$(basename "$appdir"); name=${name// /_}
  rc=0
  "$BUILD_DIR/examples/scanctl" --socket "$SCAND_SOCK" scan "$appdir" \
    > "$SCAND_DIR/pass1/$name.json" || rc=$?
  if [[ "$rc" != "0" && "$rc" != "1" ]]; then
    echo "FAIL: scanctl exited $rc on $name" >&2
    exit 1
  fi
  rc2=0
  "$BUILD_DIR/examples/scan_directory" "$appdir" --quiet --json \
    > "$SCAND_DIR/pass1/$name.batch.json" || rc2=$?
  if [[ "$rc" != "$rc2" ]]; then
    echo "FAIL: scanctl exit $rc != scan_directory exit $rc2 on $name" >&2
    exit 1
  fi
  python3 - "$SCAND_DIR/pass1/$name.json" \
    "$SCAND_DIR/pass1/$name.batch.json" <<'PY'
import json, sys
daemon = json.load(open(sys.argv[1]))
batch = json.load(open(sys.argv[2]))
assert daemon["status"] == "ok", f"daemon status: {daemon['status']}"
assert daemon["verdict"] == batch["verdict"], (
    f"daemon {daemon['verdict']} != batch {batch['verdict']}")
dfp = [f["fingerprint"] for f in daemon["report"]["findings"]]
bfp = [f["fingerprint"] for f in batch["findings"]]
assert dfp == bfp, f"finding fingerprints differ: {dfp} vs {bfp}"
PY
  SCAND_APPS=$((SCAND_APPS + 1))
done < <(find "$CORPUS_DIR" -mindepth 1 -maxdepth 1 -type d -print0)
echo "cold pass: $SCAND_APPS daemon verdicts match scan_directory"

# Pass 2 (warm): every clean report must replay from the durable
# verdict cache byte-identically (degraded reports — e.g. a
# budget-exhausted scan — are deliberately never cached and only
# need to reproduce their verdict). At least one app must actually hit.
WARM_HITS=0
CACHED_APP=
while IFS= read -r -d '' appdir; do
  name=$(basename "$appdir"); name=${name// /_}
  rc=0
  "$BUILD_DIR/examples/scanctl" --socket "$SCAND_SOCK" scan "$appdir" \
    > "$SCAND_DIR/pass2/$name.json" || rc=$?
  if [[ "$rc" != "0" && "$rc" != "1" ]]; then
    echo "FAIL: warm scanctl exited $rc on $name" >&2
    exit 1
  fi
  mode=$(python3 - "$SCAND_DIR/pass1/$name.json" \
    "$SCAND_DIR/pass2/$name.json" <<'PY'
import json, sys
cold = json.load(open(sys.argv[1]))
warm = json.load(open(sys.argv[2]))
assert warm["verdict"] == cold["verdict"], (
    f"warm verdict {warm['verdict']} != cold {cold['verdict']}")
report = cold["report"]
degraded = (bool(report["errors"]) or report["stats"]["budget_exhausted"]
            or report["stats"]["deadline_exceeded"])
if degraded:
    assert warm["cached"] is False, "degraded report must not be cached"
    print("recomputed")
else:
    assert warm["cached"] is True, "clean report missed the verdict cache"
    assert json.dumps(cold["report"], sort_keys=True) == \
           json.dumps(warm["report"], sort_keys=True), "warm report drifted"
    print("cached")
PY
)
  if [[ "$mode" == "cached" ]]; then
    WARM_HITS=$((WARM_HITS + 1))
    CACHED_APP="$appdir"
  fi
done < <(find "$CORPUS_DIR" -mindepth 1 -maxdepth 1 -type d -print0)
if [[ "$WARM_HITS" == "0" || -z "$CACHED_APP" ]]; then
  echo "FAIL: no corpus app replayed from the verdict cache" >&2
  exit 1
fi
"$BUILD_DIR/examples/scanctl" --socket "$SCAND_SOCK" status \
  > "$SCAND_DIR/status.json"
python3 - "$SCAND_DIR/status.json" "$WARM_HITS" "$SCAND_APPS" <<'PY'
import json, sys
status = json.load(open(sys.argv[1]))
warm_hits, apps = int(sys.argv[2]), int(sys.argv[3])
hits = status["gauges"]["scand.verdict_cache.hits"]
assert hits >= warm_hits, f"status reports {hits} hits < {warm_hits} replays"
print(f"warm pass: {warm_hits}/{apps} byte-identical cache replays, "
      f"{int(hits)} verdict cache hits")
PY

# Crash recovery: kill -9 mid-scan, restart on the same state dir, and
# the daemon must come back up and re-serve from the durable caches.
# The in-flight scan targets *fresh* content (an edited corpus copy, so
# no cache can answer it) to guarantee the kill lands mid-analysis.
APPDIR="$CACHED_APP"
cp -r "$APPDIR" "$SCAND_DIR/killapp"
printf '<?php /* uncached variant */ $x = 1;\n' >> \
  "$(find "$SCAND_DIR/killapp" -name '*.php' | head -1)"
"$BUILD_DIR/examples/scanctl" --socket "$SCAND_SOCK" scan \
  "$SCAND_DIR/killapp" >/dev/null 2>&1 &
CTL_PID=$!
sleep 0.1
kill -9 "$SCAND_PID"
wait "$SCAND_PID" 2>/dev/null || true
SCAND_PID=
wait "$CTL_PID" 2>/dev/null || true
start_scand
rc=0
"$BUILD_DIR/examples/scanctl" --socket "$SCAND_SOCK" scan "$APPDIR" \
  > "$SCAND_DIR/recovered.json" || rc=$?
if [[ "$rc" != "0" && "$rc" != "1" ]]; then
  echo "FAIL: post-recovery scanctl exited $rc" >&2
  exit 1
fi
name=$(basename "$APPDIR"); name=${name// /_}
python3 - "$SCAND_DIR/pass1/$name.json" "$SCAND_DIR/recovered.json" <<'PY'
import json, sys
cold = json.load(open(sys.argv[1]))
recovered = json.load(open(sys.argv[2]))
assert recovered["status"] == "ok", "daemon did not recover"
assert recovered["cached"] is True, (
    "recovered daemon did not replay from the durable verdict cache")
assert json.dumps(cold["report"], sort_keys=True) == \
       json.dumps(recovered["report"], sort_keys=True), \
    "post-recovery report drifted"
print("kill -9 recovery: restarted daemon replayed the verdict "
      "byte-identically from the durable cache")
PY
"$BUILD_DIR/examples/scanctl" --socket "$SCAND_SOCK" shutdown >/dev/null
wait "$SCAND_PID" || { echo "FAIL: scand drain exited non-zero" >&2; exit 1; }
SCAND_PID=

echo "== [6/7] observability gate =="
if ! command -v python3 >/dev/null; then
  echo "python3 not found; observability gate skipped"
else
  # Daemon sweep with caller-supplied trace IDs over the dumped corpus.
  OBS_DIR="$SMOKE_DIR/obs"
  OBS_SOCK="$OBS_DIR/scand.sock"
  OBS_STATE="$OBS_DIR/state"
  mkdir -p "$OBS_STATE" "$OBS_DIR/out"
  "$BUILD_DIR/examples/scand" --socket "$OBS_SOCK" --state-dir "$OBS_STATE" \
    --request-timeout-ms 120000 \
    --log-file "$OBS_DIR/scand.log" --log-level debug \
    --trace-out "$OBS_DIR/trace.json" 2>> "$OBS_DIR/stderr.log" &
  SCAND_PID=$!
  for _ in $(seq 100); do
    if "$BUILD_DIR/examples/scanctl" --socket "$OBS_SOCK" ping \
         >/dev/null 2>&1; then
      break
    fi
    sleep 0.1
  done
  # Identity: ping must report the engine version scanctl --version prints.
  ENGINE_VERSION=$("$BUILD_DIR/examples/scanctl" --version)
  "$BUILD_DIR/examples/scanctl" --socket "$OBS_SOCK" ping \
    | grep -q "\"version\": \"$ENGINE_VERSION\"" \
    || { echo "FAIL: ping does not report engine version" >&2; exit 1; }

  : > "$OBS_DIR/ids.txt"
  OBS_APPS=0
  while IFS= read -r -d '' appdir; do
    name=$(basename "$appdir"); name=${name// /_}
    tid=$(printf 'c0ffee%010d' "$OBS_APPS")
    rc=0
    "$BUILD_DIR/examples/scanctl" --socket "$OBS_SOCK" scan "$appdir" \
      --trace-id "$tid" > "$OBS_DIR/out/$name.json" || rc=$?
    if [[ "$rc" != "0" && "$rc" != "1" ]]; then
      echo "FAIL: scanctl exited $rc on $name" >&2
      exit 1
    fi
    # The caller's ID must come back in the envelope AND in the report.
    python3 - "$OBS_DIR/out/$name.json" "$tid" <<'PY'
import json, sys
resp = json.load(open(sys.argv[1]))
tid = sys.argv[2]
assert resp["trace_id"] == tid, f"envelope trace_id {resp['trace_id']!r}"
assert resp["report"]["trace_id"] == tid, "report trace_id drifted"
PY
    echo "$tid" >> "$OBS_DIR/ids.txt"
    OBS_APPS=$((OBS_APPS + 1))
  done < <(find "$CORPUS_DIR" -mindepth 1 -maxdepth 1 -type d -print0)
  echo "trace sweep: $OBS_APPS apps, envelope + report carry the caller's ID"

  # Prometheus exposition lint + exemplar correlation.
  "$BUILD_DIR/examples/scanctl" --socket "$OBS_SOCK" metrics \
    > "$OBS_DIR/exposition.prom"
  python3 - "$OBS_DIR/exposition.prom" "$OBS_DIR/ids.txt" <<'PY'
import re, sys
text = open(sys.argv[1]).read()
ids = set(open(sys.argv[2]).read().split())
typed = {}
buckets = {}   # base name -> [(le, value)]
counts = {}    # base name -> _count value
exemplars = set()
sample_re = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+]+|\+Inf|NaN)'
    r'( # \{trace_id="([0-9a-f]+)"\} 1)?$')
for line in text.splitlines():
    if not line:
        continue
    if line.startswith("# TYPE "):
        _, _, name, kind = line.split()
        typed[name] = kind
        continue
    if line.startswith("#"):
        continue
    m = sample_re.match(line)
    assert m, f"unlintable sample line: {line!r}"
    name, labels, value = m.group(1), m.group(2) or "", m.group(3)
    assert name.startswith("uchecker_"), f"unprefixed metric: {name}"
    base = name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in typed:
            base = name[: -len(suffix)]
    assert base in typed, f"sample without a # TYPE line: {name}"
    if m.group(5):
        exemplars.add(m.group(5))
    if name.endswith("_bucket") and typed.get(base) == "histogram":
        le = re.search(r'le="([^"]+)"', labels).group(1)
        buckets.setdefault(base, []).append((le, float(value)))
    if name.endswith("_count") and typed.get(base) == "histogram":
        counts[base] = float(value)
for name, kind in typed.items():
    if kind == "counter":
        assert name.endswith("_total"), f"counter without _total: {name}"
for base, series in buckets.items():
    values = [v for _, v in series]
    assert values == sorted(values), f"non-cumulative buckets: {base}"
    assert series[-1][0] == "+Inf", f"histogram missing +Inf: {base}"
    assert series[-1][1] == counts.get(base), f"+Inf != _count: {base}"
assert exemplars, "no trace-ID exemplars in the exposition"
assert exemplars <= ids, f"exemplar IDs not from this sweep: {exemplars - ids}"
print(f"prometheus lint OK ({len(typed)} metrics, "
      f"{len(buckets)} histograms, {len(exemplars)} exemplar ID(s))")
PY

  # Cost attribution: every `top` row must be one of this sweep's IDs.
  "$BUILD_DIR/examples/scanctl" --socket "$OBS_SOCK" top --n 5 \
    > "$OBS_DIR/top.txt"
  python3 - "$OBS_DIR/top.txt" "$OBS_DIR/ids.txt" <<'PY'
import sys
ids = set(open(sys.argv[2]).read().split())
rows = open(sys.argv[1]).read().splitlines()
assert len(rows) >= 2, "top returned no requests"
seen = [tok for row in rows[1:] for tok in row.split() if tok in ids]
assert seen, "top rows carry no trace ID from this sweep"
print(f"top OK ({len(rows) - 1} rows, most expensive: {rows[1].split()[0]}ms)")
PY

  # SIGTERM drain: must exit 0, leave per-worker flight-recorder dumps,
  # and write the Chrome trace.
  kill -TERM "$SCAND_PID"
  wait "$SCAND_PID" || { echo "FAIL: SIGTERM drain exited non-zero" >&2; exit 1; }
  SCAND_PID=
  ls "$OBS_STATE"/flightrec-worker*.json >/dev/null 2>&1 \
    || { echo "FAIL: no flight-recorder dump after SIGTERM" >&2; exit 1; }
  for dump in "$OBS_STATE"/flightrec-worker*.json; do
    python3 - "$dump" <<'PY'
import json, sys
rec = json.load(open(sys.argv[1]))
for key in ("total_recorded", "dropped", "wedged_phase", "last_progress",
            "events"):
    assert key in rec, f"flight dump missing: {key}"
assert rec["events"], "flight dump has no events"
kinds = {e["kind"] for e in rec["events"]}
assert "queue" in kinds, "flight dump missing queue pickups"
assert rec["wedged_phase"] is None, "drained worker reports a wedged phase"
PY
  done
  echo "flight recorder: SIGTERM dumped $(ls "$OBS_STATE"/flightrec-worker*.json | wc -l) worker ring(s)"

  # Log schema: every line is one JSON object with the required keys;
  # every sweep trace ID appears in the log and in the Chrome trace.
  python3 - "$OBS_DIR/scand.log" "$OBS_DIR/ids.txt" "$OBS_DIR/trace.json" <<'PY'
import json, sys
levels = {"debug", "info", "warn", "error"}
lines = 0
log_ids = set()
for raw in open(sys.argv[1]):
    raw = raw.strip()
    if not raw:
        continue
    line = json.loads(raw)
    assert isinstance(line, dict), "log line is not an object"
    for key in ("ts", "level", "event"):
        assert key in line, f"log line missing {key}: {raw[:120]}"
    assert line["level"] in levels, f"unknown level: {line['level']}"
    assert isinstance(line["event"], str) and line["event"]
    for key, value in line.items():
        assert isinstance(value, (str, int, float, bool)), (
            f"non-scalar log field {key}")
    if "trace_id" in line:
        assert isinstance(line["trace_id"], str) and line["trace_id"]
        log_ids.add(line["trace_id"])
    lines += 1
assert lines > 0, "structured log is empty"
ids = set(open(sys.argv[2]).read().split())
missing = ids - log_ids
assert not missing, f"trace IDs never logged: {sorted(missing)[:3]}"
trace = json.load(open(sys.argv[3]))
trace_ids = {e.get("args", {}).get("trace_id")
             for e in trace["traceEvents"]}
missing = ids - trace_ids
assert not missing, f"trace IDs absent from Chrome trace: {sorted(missing)[:3]}"
print(f"log schema OK ({lines} lines); all {len(ids)} sweep IDs present "
      "in log and Chrome trace")
PY

  # Observability overhead: the attached/unattached micro ratio is
  # same-run and same-machine, so it gates hard at OVERHEAD_TOLERANCE.
  if [[ "${SKIP_BENCH:-0}" == "1" ]]; then
    echo "observability overhead gate skipped (SKIP_BENCH=1)"
  else
    "$BUILD_DIR/bench/bench_micro" \
      --benchmark_filter='BM_EndToEnd$|BM_EndToEndTelemetry$' \
      --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
      --benchmark_format=json > "$OBS_DIR/bench.json"
    python3 - "$OBS_DIR/bench.json" "$OVERHEAD_TOLERANCE" <<'PY'
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
fi

echo "== [7/7] engine introspection gate =="
PROF_DIR="$SMOKE_DIR/profile"
mkdir -p "$PROF_DIR"
if ! command -v python3 >/dev/null; then
  echo "python3 not found; engine introspection gate skipped"
else
  # Fleet sweep with --profile-out: every app's profile JSON must
  # validate against the support/profile.h schema, and the report must
  # be byte-identical with profiling off once the profile object is
  # dropped and wall times are normalized (the zero-overhead contract's
  # behavioral half).
  PROF_APPS=0
  PROF_ROOTS=0
  PROF_INCOMPLETE=0
  while IFS= read -r -d '' appdir; do
    name=$(basename "$appdir"); name=${name// /_}
    rc=0
    "$BUILD_DIR/examples/scan_directory" "$appdir" --quiet --json \
      --profile-out="$PROF_DIR/$name.profile.json" \
      > "$PROF_DIR/$name.on.json" || rc=$?
    if [[ "$rc" != "0" && "$rc" != "1" ]]; then
      echo "FAIL: profiled scan_directory exited $rc on $name" >&2
      exit 1
    fi
    rc2=0
    "$BUILD_DIR/examples/scan_directory" "$appdir" --quiet --json \
      > "$PROF_DIR/$name.off.json" || rc2=$?
    if [[ "$rc" != "$rc2" ]]; then
      echo "FAIL: $name verdict drifted with profiling on ($rc) vs off ($rc2)" >&2
      exit 1
    fi
    counts=$(python3 - "$PROF_DIR/$name.profile.json" <<'PY'
import json, sys
prof = json.load(open(sys.argv[1]))
assert isinstance(prof.get("peak_rss_bytes"), int), "missing peak_rss_bytes"
assert isinstance(prof.get("roots"), list), "missing roots"
kinds = {"conditional", "switch", "loop", "foreach", "try", "call"}
for root in prof["roots"]:
    for key in ("root", "incomplete", "reason", "peak_paths", "fork_sites",
                "solver", "heap_by_depth"):
        assert key in root, f"root missing: {key}"
    spawned = [s["paths_spawned"] for s in root["fork_sites"]]
    assert spawned == sorted(spawned, reverse=True), "fork sites not ranked"
    for s in root["fork_sites"]:
        for key in ("site", "kind", "detail", "visits", "paths_spawned",
                    "self_paths"):
            assert key in s, f"fork site missing: {key}"
        assert s["kind"] in kinds, f"unknown fork kind: {s['kind']}"
        assert s["self_paths"] <= s["paths_spawned"], "self > cumulative"
        assert "#" not in s["site"], f"unresolved site: {s['site']}"
    for s in root["solver"]:
        for key in ("sink", "origin", "queries", "cache_hits", "wall_ms"):
            assert key in s, f"solver site missing: {key}"
    for h in root["heap_by_depth"]:
        for key in ("depth", "objects", "bytes"):
            assert key in h, f"heap bucket missing: {key}"
    if root["incomplete"]:
        pm = root.get("post_mortem")
        assert pm, "incomplete root has no post-mortem"
        for key in ("reason", "peak_paths", "dominant_loop",
                    "top_fork_sites", "live_path_histogram"):
            assert key in pm, f"post-mortem missing: {key}"
        assert len(pm["top_fork_sites"]) <= 10, "post-mortem top sites > 10"
print(len(prof["roots"]),
      sum(1 for r in prof["roots"] if r["incomplete"]))
PY
) || { echo "FAIL: profile schema on $name" >&2; exit 1; }
    PROF_ROOTS=$((PROF_ROOTS + ${counts%% *}))
    PROF_INCOMPLETE=$((PROF_INCOMPLETE + ${counts##* }))
    python3 - "$PROF_DIR/$name.on.json" "$PROF_DIR/$name.off.json" <<'PY'
import json, sys
on = json.load(open(sys.argv[1]))
off = json.load(open(sys.argv[2]))
# Apps where locality finds no analysis root never start the profiler
# (report.profiled stays false); every other profiled scan carries the
# profile object, even when the static pass pruned all its roots before
# the interpreter attributed anything.
assert ("profile" in on) == (on["stats"]["roots"] > 0), (
    "profile object does not match the scan's analysis roots")
assert "profile" not in off, "unprofiled report carries a profile object"
on.pop("profile", None)
def normalize(report):
    report["stats"]["seconds"] = 0.0
    cost = report.get("cost", {})
    for phase in cost.get("phases", {}):
        cost["phases"][phase] = 0.0
    for rc in cost.get("roots", []):
        for key in ("parse_ms", "interp_ms", "solve_ms"):
            if key in rc:
                rc[key] = 0.0
normalize(on)
normalize(off)
assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True), (
    "report differs with profiling on vs off beyond wall times")
PY
    PROF_APPS=$((PROF_APPS + 1))
  done < <(find "$CORPUS_DIR" -mindepth 1 -maxdepth 1 -type d -print0)
  if [[ "$PROF_ROOTS" == "0" ]]; then
    echo "FAIL: profiled sweep attributed no analysis roots" >&2
    exit 1
  fi
  echo "profiled sweep: $PROF_APPS apps, $PROF_ROOTS profiled root(s)," \
       "$PROF_INCOMPLETE incomplete; reports identical with profiling off"
fi

echo "== all checks passed =="
