#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload once.

    python3 perfbench/run.py --workload mc_read --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
program and the perfbench binary into $CARGO_TARGET_DIR (default
.bench_build); later runs rebuild only what changed. Prints the binary's `#`
info lines, then one JSON result line. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 its per-layer metrics. A binary that dies (abort, signal, hang)
is reported once, with every attempted request counted as failed, and the
exit code is 1. A checkout whose program sources are missing fails the build
and exits 2 without a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc_read", "mc_write", "email")
RUN_TIMEOUT_S = 160


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    bdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", bdir],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return None
    r = subprocess.run(["cmake", "--build", bdir, "-j", "4"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        return None
    return os.path.join(bdir, "perfbench")


def gated_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 2
    names = gated_metrics(args.trace)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log(f"perfbench binary hung for {RUN_TIMEOUT_S} s and was killed")
    lines = out.splitlines()
    planned = 1
    for line in lines:
        if line.startswith("# plan attempted="):
            planned = max(1, int(line.split("=", 1)[1]))
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            result = None
    for line in lines:
        print(line)
    if result is None:
        # The process died: the run is reported, not repeated.
        log(f"perfbench binary exited with {proc.returncode}; counting all "
            f"{planned} attempted requests as failed")
        print(json.dumps({"correct": False, "attempted": planned,
                          "failed": planned, "metrics": {}}))
        return 1

    measured = result["metrics"]
    missing = [n for n in names if n not in measured]
    if missing:
        log(f"perfbench binary did not report {missing}")
        result["correct"] = False
    extra = {n: m["value"] for n, m in measured.items() if n not in names}
    if extra:
        print("# ungated " + " ".join(f"{n}={v:.6g}" for n, v in extra.items()))
    result["metrics"] = {n: measured[n] for n in names if n in measured}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
