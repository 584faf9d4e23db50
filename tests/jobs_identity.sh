#!/bin/sh
# Serial ≡ --jobs N: run a table driver at --jobs 1 and at --jobs 4 in two
# scratch directories and require byte-identical stdout, metrics manifest
# and BENCH_<name>.json. The BENCH file records the requested worker count
# in its "jobs" field; that one line is the only one allowed to differ.
#
#   tests/jobs_identity.sh DRIVER WORK_DIR
set -eu

driver="$1"
work="$2"
name="$(basename "${driver}")"

rm -rf "${work}"
for j in 1 4; do
  mkdir -p "${work}/j${j}"
  (cd "${work}/j${j}" &&
    "${driver}" --jobs "${j}" --obs --obs-window 10000000000 > stdout.txt)
  grep -v '^  "jobs": ' "${work}/j${j}/BENCH_${name}.json" > "${work}/j${j}/bench.json"
done

for f in stdout.txt bench.json "MANIFEST_${name}.json"; do
  cmp "${work}/j1/${f}" "${work}/j4/${f}"
done
echo "${name}: stdout, BENCH json and manifest identical at --jobs 1 and --jobs 4"
