#!/usr/bin/env bash
# Local fallback for .github/workflows/ci.yml: the fast static gate
# first, then the same three hardening configurations sequentially.
#
#   0. lint + analyze (call-graph concurrency certification) + their
#      self-tests + compile-fail harness  (seconds, fail fast)
#   1. Release + -Werror
#   2. Release + -Werror with MAYO_OBS=OFF (instrumentation compiled out)
#   3. Debug + AddressSanitizer + UndefinedBehaviorSanitizer
#   4. Debug + ThreadSanitizer
#
# Each configuration builds into its own build-ci-<name>/ tree (ignored by
# git), runs the full ctest suite (which includes the project lint), and
# stops at the first failure.  Usage: tools/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1"

run_config() {
  local name="$1" build_type="$2" sanitize="$3"
  shift 3  # remaining args are extra cmake flags (e.g. -DMAYO_OBS=OFF)
  echo "=== [$name] configure (${build_type}, sanitize='${sanitize}') ==="
  cmake -B "build-ci-${name}" -S . \
    -DCMAKE_BUILD_TYPE="${build_type}" \
    -DMAYO_WERROR=ON \
    -DMAYO_SANITIZE="${sanitize}" \
    "$@"
  echo "=== [$name] build ==="
  cmake --build "build-ci-${name}" -j"${JOBS}"
  echo "=== [$name] test ==="
  ctest --test-dir "build-ci-${name}" --output-on-failure -j"${JOBS}"
}

echo "=== [static] project lint ==="
python3 tools/lint.py
echo "=== [static] lint self-test ==="
python3 tools/test_lint.py
echo "=== [static] concurrency-purity certification ==="
python3 tools/analyze.py --json analyze-callgraph.json
echo "=== [static] analyze self-test ==="
python3 tools/test_analyze.py
echo "=== [static] compile-fail harness (tagged spaces) ==="
cmake --fresh -S tests/compile_fail -B build-ci-compile-fail >/dev/null

run_config release-werror Release ""

# The netlist_audit CLI must agree with every corpus deck's verdict
# header (error decks exit 1, clean/warn decks exit 0); JSON reports land
# in audit-reports/ like the CI artifact.
echo "=== [release-werror] netlist audit sweep ==="
tools/audit_sweep.sh build-ci-release-werror audit-reports

# Explicit microbenchmark smoke on the optimized build: the bench_* ctest
# entries (batch evaluation, AC session probes, plain-MC verification,
# IS-verifier comparison, slew transient) must run and exit cleanly even
# when a full ctest pass above was filtered or cached.
echo "=== [release-werror] microbenchmark smoke ==="
ctest --test-dir build-ci-release-werror -R '^bench_' --output-on-failure

# MC-vs-IS verification comparison artifact (smoke budgets; the
# checked-in BENCH_is_verify.json carries the full-run numbers).
echo "=== [release-werror] IS-verification comparison artifact ==="
mkdir -p bench-reports
build-ci-release-werror/bench/bm_is_verify --smoke \
  --json bench-reports/BENCH_is_verify.json

# Every paper table/baseline bench at sample seeds 42 and 1-7 and every
# figure bench once: a claim printed as DEVIATES at seed 42 or by a figure
# bench, or a crash, fails the run; the outputs land in paper-verdicts/
# like the CI artifact.
echo "=== [release-werror] paper verdicts ==="
tools/paper_verdicts.sh --seeds "42 1 2 3 4 5 6 7" \
  build-ci-release-werror paper-verdicts

# End-to-end yield-run benchmark at smoke budgets: all four workloads with
# every correctness check on (e2ebench/ builds its own Release tree).
echo "=== [release-werror] end-to-end benchmark smoke ==="
python3 e2ebench/run_benchmark.py --smoke --out bench-reports/e2e_smoke.json

# The obs counters and spans must compile out completely: same tests,
# instrumentation shells only (test_obs pins the no-op behaviour).
run_config obs-off Release "" -DMAYO_OBS=OFF

run_config asan-ubsan Debug "address,undefined"
run_config tsan Debug "thread"

if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== clang-tidy ==="
  # Recursive globs so tests/ and bench/ subdirectories are covered too;
  # tests/compile_fail is excluded -- those files fail to compile by design.
  git ls-files 'src/**/*.cpp' 'tests/**/*.cpp' 'tools/**/*.cpp' \
    'bench/**/*.cpp' 'examples/**/*.cpp' ':!tests/compile_fail/**' \
    | xargs clang-tidy -p build-ci-release-werror --warnings-as-errors='*'
else
  echo "clang-tidy not installed; skipping static analysis pass"
fi

echo "ci: all configurations passed"
