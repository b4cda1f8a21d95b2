#!/usr/bin/env bash
# Single verification entry point: build Release and a sanitized Debug
# (-fsanitize=address,undefined) tree, run ctest in both.  This is the
# command CI and pre-merge checks invoke; keep it green.  It ends by
# printing the tracked C++ line counts of src/ and of tests + bench +
# examples + perfbench, and the net src/ lines of the change (a report,
# not a gate).
#
# Usage: scripts/check.sh [extra ctest args...]

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

run_variant() {
  local dir="$1"; shift
  local ctest_filter="$1"; shift
  local cmake_args=("$@")
  echo "==== configure ${dir} (${cmake_args[*]}) ===="
  cmake -B "${dir}" -S . "${cmake_args[@]}" >/dev/null
  echo "==== build ${dir} ===="
  cmake --build "${dir}" -j "${JOBS}"
  echo "==== ctest ${dir} ===="
  local filter_args=()
  [[ -n "${ctest_filter}" ]] && filter_args=(-R "${ctest_filter}")
  # ${arr[@]+...} keeps `set -u` happy on bash 3.2 when no args were given.
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" \
      ${filter_args[@]+"${filter_args[@]}"} \
      ${CTEST_EXTRA[@]+"${CTEST_EXTRA[@]}"})
}

CTEST_EXTRA=("$@")

# The Release variant builds the bench binaries, so its ctest run includes
# the bench_smoke entries (x3_scaling + x6_certify + x7_churn + x8_traffic
# at tiny n with DIRANT_BENCH_SMOKE=1, plus the sharded-certify and audit
# paths with real 4-worker pools) — benches can't silently bit-rot.
# test_bench_json (the BENCH_scaling.json writer's test) needs no
# google-benchmark, so the asan variant runs it too.  The sanitized Debug
# variant skips benches for build time and runs its suite with
# DIRANT_TEST_THREADS=4: the sharded digraph-build tests then spin real
# 4-worker pools, so memory errors in the concurrent paths surface under
# asan/ubsan.  The ThreadSanitizer variant (DIRANT_TSAN) re-runs exactly
# the suites that drive a pool — the thread pool's own slot stress test,
# the grid index (one live instance serves the churn engine's MST repair
# and row patch), the sharded digraph build, the orient_batch fan-out, the probe- and
# trial-parallel audits, the churn engine's sharded recertification (the
# three churn suites: parity, the sub-linear warm-path acceptance tests
# and the witness audit against its Tarjan reference; the row patch and
# its patched transpose at every thread count; the Euler-tour forest the
# MST repair runs on), the stale-scratch differential suite (one session's
# shared workspace under a churn engine at 1/2/4 threads) and the traffic
# engine on top of it — with the same
# 4-worker pools, so data races (not just memory errors) surface too.
# All variants promote the library's -Wall -Wextra diagnostics to errors
# (DIRANT_WERROR).
run_variant build-release "" -DCMAKE_BUILD_TYPE=Release -DDIRANT_WERROR=ON
# The benchmark's own gate: every perfbench workload at tiny n (op gates,
# digest repeat, traced layer coverage).  It builds into .bench_build/.
echo "==== perfbench smoke ===="
python3 perfbench/smoke_test.py
DIRANT_TEST_THREADS=4 \
run_variant build-asan "" -DCMAKE_BUILD_TYPE=Debug -DDIRANT_SANITIZE=ON \
    -DDIRANT_WERROR=ON \
    -DDIRANT_BUILD_BENCHES=OFF -DDIRANT_BUILD_EXAMPLES=OFF
DIRANT_TEST_THREADS=4 \
run_variant build-tsan \
    "test_thread_pool|test_spatial|test_csr_equivalence|test_batch|test_audit_parallel|test_churn|test_churn_sublinear|test_churn_audit|test_row_patch|test_euler_tour|test_traffic|test_event_queue|test_stale_scratch" \
    -DCMAKE_BUILD_TYPE=Debug -DDIRANT_TSAN=ON -DDIRANT_WERROR=ON \
    -DDIRANT_BUILD_BENCHES=OFF -DDIRANT_BUILD_EXAMPLES=OFF

echo "==== all checks passed ===="

# Line counts of the tracked C++ sources, for the per-change growth report.
count_lines() { git ls-files -z -- "$@" | xargs -0 cat | wc -l; }
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  echo "==== line counts ===="
  echo "src: $(count_lines 'src/*.cpp' 'src/*.hpp')"
  echo "tests + bench + examples + perfbench: $(count_lines \
      'tests/*.cpp' 'tests/*.hpp' 'bench/*.cpp' 'bench/*.hpp' \
      'examples/*.cpp' 'examples/*.hpp' 'perfbench/*.cpp' 'perfbench/*.hpp')"
  # Net src/ growth of the change under check: the uncommitted diff when
  # there is one, else the last commit.
  base=HEAD
  if git diff --quiet HEAD -- src; then base=HEAD~1; fi
  echo "src net vs ${base}: $(git diff --numstat "${base}" -- src \
      | awk '{net += $1 - $2} END {printf "%+d", net}')"
fi
