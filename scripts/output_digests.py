#!/usr/bin/env python3
"""Check (or regenerate) the per-driver output digests.

Usage:
    output_digests.py --bench-dir BUILD/bench [--work-dir DIR] [--update]
                      [--golden scripts/output_digests.json]

Runs every evaluation driver of BUILD/bench (table*, fig*, ablation_*,
export_figdata, ext_cluster_gang) at --jobs 4, each in its own empty
directory, and hashes what it produced:

  * stdout;
  * BENCH_<driver>.json, minus its "jobs" line (the one line that records
    the worker count rather than a result);
  * every file under bench_data/, by relative path and content.

The hashes are compared with the checked-in golden. A driver whose digest
moved is named on stdout; so is a driver that is new to the build, gone from
it, or that exits non-zero. A change meant to alter outputs regenerates the
golden with --update and says why; every other change must leave it as is,
which makes the golden a tier-1 proof of byte identity.

Exit status: 0 all digests match (or --update wrote the golden), 1 any
driver moved, failed, appeared or disappeared, 2 usage error.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

JOBS = 4
SCHEMA = "hpcs-output-digests-v1"
DRIVER_RE = re.compile(r"^(table.*|fig.*|ablation_.*|export_figdata|ext_cluster_gang)$")
JOBS_LINE_RE = re.compile(rb'^  "jobs": .*\n', re.MULTILINE)


def drivers_in(bench_dir):
    out = []
    for name in sorted(os.listdir(bench_dir)):
        path = os.path.join(bench_dir, name)
        if DRIVER_RE.match(name) and os.path.isfile(path) and os.access(path, os.X_OK):
            out.append(name)
    return out


def digest_run(driver_path, name, work):
    """Run one driver in the empty directory `work`; return (hexdigest, error)."""
    proc = subprocess.run([driver_path, "--jobs", str(JOBS)], cwd=work,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return None, f"exit status {proc.returncode}" + (f": {tail[0]}" if tail else "")
    h = hashlib.sha256()

    def part(label, data):
        h.update(f"{label}\0{len(data)}\0".encode())
        h.update(data)

    part("stdout", proc.stdout)
    bench_json = os.path.join(work, f"BENCH_{name}.json")
    if os.path.exists(bench_json):
        with open(bench_json, "rb") as f:
            part("bench_json", JOBS_LINE_RE.sub(b"", f.read()))
    data_dir = os.path.join(work, "bench_data")
    for root, dirs, files in os.walk(data_dir):
        dirs.sort()
        for fname in sorted(files):
            path = os.path.join(root, fname)
            with open(path, "rb") as f:
                part("bench_data/" + os.path.relpath(path, data_dir), f.read())
    return h.hexdigest(), None


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench-dir", required=True, help="directory of the built drivers")
    ap.add_argument("--golden", default=os.path.join(here, "output_digests.json"))
    ap.add_argument("--work-dir", help="scratch directory (default: a temporary one)")
    ap.add_argument("--update", action="store_true", help="rewrite the golden")
    args = ap.parse_args()

    names = drivers_in(args.bench_dir)
    if not names:
        print(f"error: no drivers in {args.bench_dir}", file=sys.stderr)
        return 2
    work_root = args.work_dir or tempfile.mkdtemp(prefix="output_digests_")
    shutil.rmtree(work_root, ignore_errors=True)
    os.makedirs(work_root)

    digests, failed = {}, []
    for name in names:
        work = os.path.join(work_root, name)
        os.makedirs(work)
        digest, error = digest_run(os.path.abspath(os.path.join(args.bench_dir, name)),
                                   name, work)
        if error:
            failed.append(f"FAILED {name}: {error}")
        else:
            digests[name] = digest
    if args.work_dir is None:
        shutil.rmtree(work_root, ignore_errors=True)

    if failed:
        print("\n".join(failed))
        return 1
    if args.update:
        with open(args.golden, "w", encoding="utf-8") as f:
            json.dump({"schema": SCHEMA, "jobs": JOBS, "drivers": digests}, f, indent=2,
                      sort_keys=True)
            f.write("\n")
        print(f"wrote {len(digests)} driver digests to {args.golden}")
        return 0

    try:
        with open(args.golden, encoding="utf-8") as f:
            golden = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot load {args.golden}: {e}", file=sys.stderr)
        return 2
    want = golden.get("drivers", {})
    problems = []
    for name in sorted(set(want) | set(digests)):
        if name not in digests:
            problems.append(f"MISSING {name}: in the golden but not built")
        elif name not in want:
            problems.append(f"NEW {name}: built but has no golden digest")
        elif want[name] != digests[name]:
            problems.append(f"MOVED {name}: stdout, BENCH_{name}.json or bench_data/ changed")
    if problems:
        print("\n".join(problems))
        print(f"{len(problems)} of {len(set(want) | set(digests))} drivers differ from "
              f"{os.path.basename(args.golden)}; if the change is meant to alter outputs, "
              "regenerate it with --update and say why")
        return 1
    print(f"output digests: all {len(digests)} drivers match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
