#!/usr/bin/env bash
# Runs every paper reproduction bench (build/bench/table*, fig*,
# ablation_baselines) and fails if any claim line reads DEVIATES or any
# bench exits non-zero.  The benches themselves always exit 0 and print
# "[OK]" or "[DEVIATES]" per paper claim; this harness turns a deviation
# into a failure.  Each bench's output is written to <output-dir>/<bench>.txt
# (CI uploads the directory as an artifact).
#
# Usage: tools/paper_verdicts.sh <build-dir> [output-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:?usage: tools/paper_verdicts.sh <build-dir> [output-dir]}"
OUT_DIR="${2:-paper-verdicts}"
mkdir -p "${OUT_DIR}"

failures=0
checked=0
for bench in "${BUILD_DIR}"/bench/table* "${BUILD_DIR}"/bench/fig* \
             "${BUILD_DIR}/bench/ablation_baselines"; do
  [[ -x "${bench}" ]] || { echo "paper_verdicts: ${bench} not built" >&2
                           exit 2; }
  name="$(basename "${bench}")"
  out="${OUT_DIR}/${name}.txt"
  status=0
  "${bench}" >"${out}" 2>&1 || status=$?
  if [[ "${status}" -ne 0 ]]; then
    echo "paper_verdicts: FAIL ${name}: exit ${status}" >&2
    failures=$((failures + 1))
  elif grep -q "DEVIATES" "${out}"; then
    echo "paper_verdicts: FAIL ${name}:" >&2
    grep "DEVIATES" "${out}" >&2
    failures=$((failures + 1))
  fi
  checked=$((checked + 1))
done

echo "paper_verdicts: ${checked} benches run, ${failures} failure(s)," \
     "outputs in ${OUT_DIR}/"
[[ "${failures}" -eq 0 ]]
