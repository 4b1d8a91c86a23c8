#!/usr/bin/env bash
# CI gate: configure, build, run the test suite. Exits nonzero on any
# failure. Usage: scripts/check.sh [--sanitize | --tsan] [build-dir]
# (default: build).
#
# --sanitize: build with -fsanitize=address,undefined,float-cast-overflow
# into build-asan/ and run the tier-1 ctest suite under it, then exit (no
# bench goldens: the sanitizer's overhead makes the long campaigns pointless
# there). GCC's "undefined" group leaves out float-cast-overflow, the check
# that catches an out-of-range double cast to an integer.
#
# --tsan: build the suites that run code on several threads (the scheduler's
# record hand-off, the resident campaigns on its worker threads, the campaign
# runner's threads, the tracer's per-thread rings, expression handles read
# after their thread has exited) and pbse-worker with -fsanitize=thread into
# build-tsan/, run them, and fail on any report, including one from a
# pbse-worker child process.
#
# -o pipefail matters here: the test and bench stages pipe through tee so
# the log survives in the build dir, and without pipefail a pipeline's exit
# status is tee's (always 0), silently masking the real failure.
set -euo pipefail
cd "$(dirname "$0")/.."

trap 'echo "check.sh: FAILED at line $LINENO: $BASH_COMMAND" >&2' ERR

SANITIZE=0
TSAN=0
if [[ "${1:-}" == "--sanitize" ]]; then
  SANITIZE=1
  shift
elif [[ "${1:-}" == "--tsan" ]]; then
  TSAN=1
  shift
fi

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

# Prints the five slowest tests of a ctest log from ctest's own timing
# lines, so the suite's long pole shows in every CI log. Informational:
# it checks nothing.
slowest_tests() {
  echo "check.sh: slowest tests in $1:"
  awk 'match($0, /Test +#[0-9]+: /) && / sec$/ {
         name = substr($0, RSTART + RLENGTH)
         sub(/ \.\.\.+.*$/, "", name)
         print $(NF - 1) "\t" name
       }' "$1" | sort -t "$(printf '\t')" -k1,1 -rn |
    awk -F '\t' 'NR <= 5 { printf "  %7.2f s  %s\n", $1, $2 }'
}

if [[ "$SANITIZE" == 1 ]]; then
  ASAN_DIR="${1:-build-asan}"
  GEN=()
  if [[ ! -f "$ASAN_DIR/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
    GEN=(-G Ninja)
  fi
  cmake -S . -B "$ASAN_DIR" "${GEN[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all"
  cmake --build "$ASAN_DIR" -j "$JOBS"
  ASAN_OPTIONS=detect_leaks=0 ctest --test-dir "$ASAN_DIR" -j "$JOBS" \
    --output-on-failure 2>&1 | tee "$ASAN_DIR/ctest.log"
  slowest_tests "$ASAN_DIR/ctest.log"
  echo "check.sh: OK (sanitize)"
  exit 0
fi

if [[ "$TSAN" == 1 ]]; then
  TSAN_DIR="${1:-build-tsan}"
  GEN=()
  if [[ ! -f "$TSAN_DIR/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
    GEN=(-G Ninja)
  fi
  cmake -S . -B "$TSAN_DIR" "${GEN[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread"
  TSAN_TESTS=(server_test parallel_test support_test obs_test trace_determinism_test
              expr_test)
  cmake --build "$TSAN_DIR" -j "$JOBS" --target "${TSAN_TESTS[@]}" pbse-worker
  # Each process writes its reports to its own <prefix>.<pid> file, so a
  # report from a pbse-worker child fails the gate like one from a test.
  # The report files decide (exitcode=0), and a failing test does not end
  # the loop, so every suite runs and every report reaches the log.
  REPORTS="$PWD/$TSAN_DIR/tsan-report"
  rm -f "$REPORTS".*
  STATUS=0
  for test in "${TSAN_TESTS[@]}"; do
    TSAN_OPTIONS="log_path=$REPORTS exitcode=0" "./$TSAN_DIR/tests/$test" \
      2>&1 | tee "$TSAN_DIR/$test.log" || STATUS=1
  done
  if compgen -G "$REPORTS.*" >/dev/null; then
    cat "$REPORTS".* >&2
    echo "check.sh: FAILED: ThreadSanitizer reports in $TSAN_DIR" >&2
    exit 1
  fi
  if [[ "$STATUS" != 0 ]]; then
    echo "check.sh: FAILED: a test failed under ThreadSanitizer" >&2
    exit 1
  fi
  echo "check.sh: OK (tsan)"
  exit 0
fi

# Prefer Ninja, but only on a fresh build dir: forcing a generator onto
# an existing cache makes cmake abort.
GEN=()
if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
  GEN=(-G Ninja)
fi

cmake -S . -B "$BUILD_DIR" "${GEN[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" -j "$JOBS" --output-on-failure 2>&1 \
  | tee "$BUILD_DIR/ctest.log"
slowest_tests "$BUILD_DIR/ctest.log"

# Micro-benchmark smoke: every BM_* body runs once, so a benchmark that
# breaks after a refactor fails the gate. Timings are not checked. The
# min time is a plain number of seconds: older google-benchmark releases
# reject the "1x"/"0.001s" suffix forms.
"./$BUILD_DIR/bench/micro_benchmarks" --benchmark_min_time=0.001 2>&1 \
  | tee "$BUILD_DIR/micro_benchmarks.log"

# Golden bench check: regenerate the small-workload bench and diff its
# deterministic fields (coverage/ticks/bugs/solver hit-class counters;
# wall-clock is ignored) against the committed BENCH_pbse.json.
# --no-share-cache keeps the run bit-exact regardless of worker scheduling.
cp BENCH_pbse.json "$BUILD_DIR/BENCH_golden.json"
"./$BUILD_DIR/bench/table1_readelf_searchers" --quick --jobs=2 --no-share-cache 2>&1 \
  | tee "$BUILD_DIR/bench.log"
# Multi-process smoke (DESIGN.md §13): the same job through in-process
# threads, 2 local worker processes, a TCP remote worker, and a kill -9'd
# worker pool must all produce byte-identical final snapshots. Also merges
# the deterministic multiproc counters (worker_processes / jobs_requeued /
# frame_bytes) into the freshly regenerated BENCH_pbse.json so the diff
# below pins them against the committed golden.
bash scripts/multiproc_smoke.sh "$BUILD_DIR" 2>&1 | tee "$BUILD_DIR/multiproc_smoke.log"
python3 scripts/bench_diff.py "$BUILD_DIR/BENCH_golden.json" BENCH_pbse.json
# Deterministic fields match: restore the committed file so the only diff a
# passing run leaves behind is nothing at all (wall_seconds would churn).
mv "$BUILD_DIR/BENCH_golden.json" BENCH_pbse.json

# Table II golden: the 36 table2-quick campaigns on all four targets
# (readelf, gif2tiff, pngtest, dwarfdump), pinned tick for tick. The gate
# above runs readelf only, so without this one a solver or search change
# that altered a campaign on another target would still pass.
cp BENCH_table2.json "$BUILD_DIR/BENCH_table2_golden.json"
"./$BUILD_DIR/bench/table2_coverage" --quick --jobs=2 --no-share-cache 2>&1 \
  | tee "$BUILD_DIR/table2.log"
python3 scripts/bench_diff.py "$BUILD_DIR/BENCH_table2_golden.json" BENCH_table2.json
mv "$BUILD_DIR/BENCH_table2_golden.json" BENCH_table2.json

# Server smoke (DESIGN.md §11): daemon up, job over the socket, kill -9
# mid-job, restart, and the recovered job's final coverage must match the
# uninterrupted reference run of the same spec.
bash scripts/server_smoke.sh "$BUILD_DIR" 2>&1 | tee "$BUILD_DIR/server_smoke.log"

echo "check.sh: OK"
