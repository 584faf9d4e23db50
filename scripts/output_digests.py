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

The checked-in figure data (bench_data/ at the repository root, or
--tree-data) must equal what export_figdata just wrote, file for file,
except for TREE_DATA_OMITTED: files too large to check in, which
`export_figdata` writes into ./bench_data/ of the directory it runs in.
--update rewrites the checked-in figure data along with the golden.

Exit status: 0 all digests and figure data match (or --update wrote them),
1 any driver moved, failed, appeared or disappeared, or the figure data is
stale, 2 usage error.
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
FIGDATA_DRIVER = "export_figdata"
# Figure 6(b)'s trace, intervals and iterations (about 6 MB): the only
# export_figdata outputs not checked in.
TREE_DATA_OMITTED = frozenset({
    "fig6b_siesta_uniform.prv",
    "fig6b_siesta_uniform_intervals.csv",
    "fig6b_siesta_uniform_iterations.csv",
})


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


def data_files(root):
    """Relative path -> bytes of every file under `root` (empty if absent)."""
    out = {}
    for base, _, files in os.walk(root):
        for fname in files:
            path = os.path.join(base, fname)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def check_tree_data(fresh_dir, tree_dir, update):
    """Compare (or, with `update`, overwrite) the checked-in figure data with
    export_figdata's fresh output; returns the problems found."""
    fresh = {k: v for k, v in data_files(fresh_dir).items() if k not in TREE_DATA_OMITTED}
    tree = {k: v for k, v in data_files(tree_dir).items() if k not in TREE_DATA_OMITTED}
    if update:
        for name in tree.keys() - fresh.keys():
            os.remove(os.path.join(tree_dir, name))
        for name, data in fresh.items():
            path = os.path.join(tree_dir, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as f:
                f.write(data)
        return []
    problems = []
    for name in sorted(fresh.keys() | tree.keys()):
        if name not in tree:
            problems.append(f"MISSING bench_data/{name}: {FIGDATA_DRIVER} writes it, "
                            "the tree lacks it")
        elif name not in fresh:
            problems.append(f"EXTRA bench_data/{name}: in the tree, {FIGDATA_DRIVER} "
                            "no longer writes it")
        elif tree[name] != fresh[name]:
            problems.append(f"STALE bench_data/{name}: differs from {FIGDATA_DRIVER}'s output")
    return problems


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench-dir", required=True, help="directory of the built drivers")
    ap.add_argument("--golden", default=os.path.join(here, "output_digests.json"))
    ap.add_argument("--tree-data", default=os.path.join(os.path.dirname(here), "bench_data"),
                    help="checked-in figure data to compare with export_figdata's output")
    ap.add_argument("--work-dir", help="scratch directory (default: a temporary one)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden and the checked-in figure data")
    args = ap.parse_args()

    names = drivers_in(args.bench_dir)
    if not names:
        print(f"error: no drivers in {args.bench_dir}", file=sys.stderr)
        return 2
    work_root = args.work_dir or tempfile.mkdtemp(prefix="output_digests_")
    shutil.rmtree(work_root, ignore_errors=True)
    os.makedirs(work_root)

    digests, failed, data_problems = {}, [], []
    for name in names:
        work = os.path.join(work_root, name)
        os.makedirs(work)
        digest, error = digest_run(os.path.abspath(os.path.join(args.bench_dir, name)),
                                   name, work)
        if error:
            failed.append(f"FAILED {name}: {error}")
        else:
            digests[name] = digest
            if name == FIGDATA_DRIVER:
                data_problems = check_tree_data(os.path.join(work, "bench_data"),
                                                args.tree_data, args.update)
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
        print(f"wrote {len(digests)} driver digests to {args.golden}"
              + (f" and {FIGDATA_DRIVER}'s figure data to {args.tree_data}"
                 if FIGDATA_DRIVER in digests else ""))
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
    if data_problems:
        print("\n".join(data_problems))
        print(f"{len(data_problems)} checked-in figure data files differ from "
              f"{FIGDATA_DRIVER}'s output; regenerate them with --update")
    if problems or data_problems:
        return 1
    print(f"output digests: all {len(digests)} drivers match, and so does the checked-in "
          "figure data")
    return 0


if __name__ == "__main__":
    sys.exit(main())
