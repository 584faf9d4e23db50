#!/usr/bin/env python3
"""Build the perfbench driver from this checkout's sources and run it.

    python3 perfbench/run.py --workload siesta --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload paper_eval --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the repository root; build output is sent to stderr so that the last
line of stdout is the benchmark's JSON result. The traced run also writes its
spans to spans-<workload>-seed<N>.json in the build directory.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("siesta", "metbenchvar", "paper_eval")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src; run from a full checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run(binary, args):
    """Run the driver, passing its stdout through; returns (code, stdout)."""
    try:
        p = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
    sys.stdout.write(p.stdout)
    sys.stdout.flush()
    return p.returncode, p.stdout


def self_test(binary):
    """The driver's own self-tests, plus BENCHMARK.json against the driver's
    metric catalogue and the shape of a result line in both modes."""
    code, _ = run(binary, ["--self-test"])
    problems = [] if code == 0 else ["driver self-tests failed"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    code, text = run(binary, ["--list-metrics"])
    catalogue = json.loads(text.strip().splitlines()[-1])
    for key in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        listed = [(m["name"], m["unit"], m["better"]) for m in catalogue[key]]
        if declared != listed:
            problems.append(f"BENCHMARK.json {key} differs from the driver's catalogue")
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        code, text = run(binary, ["--workload", "metbenchvar", "--seed", "1",
                                  "--seconds", "0.1", "--trace", trace])
        result = json.loads(text.strip().splitlines()[-1])
        names = {m["name"] for m in spec[key]}
        if code != 0 or sorted(result) != ["attempted", "correct", "failed", "metrics"] \
                or not result["correct"] or not names <= set(result["metrics"]):
            problems.append(f"--trace {trace} result line is incomplete")
    for p in problems:
        print(f"self-test FAIL: {p}")
    print("self-test " + ("FAIL" if problems else "ok (all)"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    binary = build()
    if a.self_test:
        return self_test(binary)
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace]
    if a.trace == "1":
        args += ["--spans", os.path.join(build_dir(), f"spans-{a.workload}-seed{a.seed}.json")]
    code, _ = run(binary, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
