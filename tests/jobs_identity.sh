#!/bin/sh
# Serial ≡ --jobs N: run a driver at --jobs 1 and at --jobs 4 in two
# scratch directories and require byte-identical stdout, metrics manifest,
# BENCH_<name>.json and bench_data/. The BENCH file records the requested
# worker count in its "jobs" field; that one line is the only one allowed to
# differ. Table drivers write a BENCH file and export_figdata writes
# bench_data/; a driver that writes neither fails.
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
  if [ -f "${work}/j${j}/BENCH_${name}.json" ]; then
    grep -v '^  "jobs": ' "${work}/j${j}/BENCH_${name}.json" > "${work}/j${j}/bench.json"
  fi
done

for f in stdout.txt "MANIFEST_${name}.json"; do
  cmp "${work}/j1/${f}" "${work}/j4/${f}"
done
compared="stdout, manifest"
if [ -f "${work}/j1/bench.json" ] || [ -f "${work}/j4/bench.json" ]; then
  cmp "${work}/j1/bench.json" "${work}/j4/bench.json"
  compared="${compared}, BENCH json"
fi
if [ -d "${work}/j1/bench_data" ] || [ -d "${work}/j4/bench_data" ]; then
  diff -r -q "${work}/j1/bench_data" "${work}/j4/bench_data"
  compared="${compared}, bench_data/"
fi
if [ "${compared}" = "stdout, manifest" ]; then
  echo "${name}: wrote neither BENCH_${name}.json nor bench_data/" >&2
  exit 1
fi
echo "${name}: ${compared} identical at --jobs 1 and --jobs 4"
