#!/usr/bin/env bash
# Runs every paper reproduction bench (build/bench/table*, fig*,
# ablation_baselines) and prints one line per paper claim.  The benches
# themselves always exit 0 and print "[OK]" or "[DEVIATES]" per claim;
# this harness fails if any bench exits non-zero, or if any claim reads
# DEVIATES at the default seed 42 or in a fig bench.
#
# The table and ablation benches run optimize_yield and take
# --sample-seed S: they run once per seed, each claim's line says at how
# many seeds it holds, and a deviation at a seed other than 42 is reported
# there but does not fail the run.  The fig benches run no optimization
# and take no seed: they run once and their claim lines read OK or
# DEVIATES.  After the claim lines, one line lists table7_effort's
# folded-cascode/Miller simulation counts per seed ("table7 sims: 42
# 2122/371, 1 ...").  Outputs are written to
# <output-dir>/seed-<S>/<bench>.txt and <output-dir>/<fig-bench>.txt (CI
# uploads the directory as an artifact).
#
# Usage: tools/paper_verdicts.sh [--seeds "42 1 2 ..."] <build-dir> [output-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
USAGE='usage: tools/paper_verdicts.sh [--seeds "S ..."] <build-dir> [output-dir]'
SEEDS="42"
if [[ "${1:-}" == "--seeds" ]]; then
  SEEDS="${2:?${USAGE}}"
  shift 2
fi
BUILD_DIR="${1:?${USAGE}}"
OUT_DIR="${2:-paper-verdicts}"
read -r -a seeds <<<"${SEEDS}"
for seed in "${seeds[@]}"; do
  [[ "${seed}" =~ ^[0-9]+$ ]] || { echo "paper_verdicts: bad seed '${seed}'" >&2
                                   exit 2; }
done

failures=0
checked=0
claims="$(mktemp)"
trap 'rm -f "${claims}"' EXIT

# run_bench <bench> <seed or empty> <output file> [bench arguments...]
# Fails on a non-zero exit, and on a DEVIATES line unless the seed is one
# other than 42; appends one "<bench>|<claim>|<verdict>|<seed>" record per
# claim line.
run_bench() {
  local bench="$1" seed="$2" out="$3" name status=0
  shift 3
  [[ -x "${bench}" ]] || { echo "paper_verdicts: ${bench} not built" >&2
                           exit 2; }
  name="$(basename "${bench}")"
  "${bench}" "$@" >"${out}" 2>&1 || status=$?
  if [[ "${status}" -ne 0 ]]; then
    echo "paper_verdicts: FAIL ${name}${seed:+ at seed ${seed}}:" \
         "exit ${status}" >&2
    failures=$((failures + 1))
  elif [[ -z "${seed}" || "${seed}" == 42 ]] && grep -q "DEVIATES" "${out}"; then
    echo "paper_verdicts: FAIL ${name}:" >&2
    grep "DEVIATES" "${out}" >&2
    failures=$((failures + 1))
  fi
  sed -nE "s/^  (.*[^ ]) +paper: .*\[(OK|DEVIATES)\]$/${name}|\1|\2|${seed}/p" \
    "${out}" >>"${claims}"
  checked=$((checked + 1))
}

mkdir -p "${OUT_DIR}"
for bench in "${BUILD_DIR}"/bench/fig*; do
  run_bench "${bench}" "" "${OUT_DIR}/$(basename "${bench}").txt"
done
for seed in "${seeds[@]}"; do
  mkdir -p "${OUT_DIR}/seed-${seed}"
  for bench in "${BUILD_DIR}"/bench/table* \
               "${BUILD_DIR}/bench/ablation_baselines"; do
    run_bench "${bench}" "${seed}" \
      "${OUT_DIR}/seed-${seed}/$(basename "${bench}").txt" \
      --sample-seed "${seed}"
  done
done

# One line per claim, in first-seen order: a seeded claim reads "OK at k
# of K seeds", plus the seeds where it deviates; a fig claim its verdict.
awk -F'|' -v total="${#seeds[@]}" '
  { key = $1 ": " $2
    if (!(key in seen)) { seen[key] = 1; order[++n] = key; seeded[key] = $4 != "" }
    if ($3 == "OK") ok[key]++; else bad[key] = bad[key] " " $4 }
  END { for (i = 1; i <= n; ++i) {
          key = order[i]
          if (!seeded[key]) { print key ": " (ok[key] ? "OK" : "DEVIATES"); continue }
          line = key ": OK at " ok[key] + 0 " of " total " seeds"
          if (bad[key] != "") line = line " (DEVIATES at" bad[key] ")"
          print line } }' "${claims}"

# Table 7's folded-cascode/Miller simulation counts at each seed, so a
# trajectory that moves at any seed shows here, not only in the outputs.
counts=""
for seed in "${seeds[@]}"; do
  sims="$(sed -nE 's/^  optimization needs only .* measured: ([0-9]+) \/ ([0-9]+) .*/\1\/\2/p' \
          "${OUT_DIR}/seed-${seed}/table7_effort.txt" 2>/dev/null || true)"
  counts="${counts:+${counts}, }${seed} ${sims:-n/a}"
done
echo "table7 sims: ${counts}"

echo "paper_verdicts: ${checked} bench runs (fig benches once, the rest at" \
     "seeds ${SEEDS}), ${failures} failure(s), outputs in ${OUT_DIR}/"
[[ "${failures}" -eq 0 ]]
