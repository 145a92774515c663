#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares two sets.

    python3 perfbench/compare.py collect OUT [--workloads mc_read,email]
                                 [--seeds 1-10] [--seconds 10] [--trace 0]
    python3 perfbench/compare.py diff A B [--trace 0]
    python3 perfbench/compare.py show A [--trace 0]

`collect` runs perfbench/run.py once per workload and seed, one at a time,
keeps each run's full output as OUT/<workload>/<seed>.t<trace>.out, and
ends with `show` on OUT: `collect OUT --seeds 1` prints every metric of
every workload by name, with its unit, and fails if a check failed.

`diff` prints, for each workload and metric of BENCHMARK.json, each set's
median and quartiles (statistics.quantiles(values, n=4)), the spread
(third quartile minus first, over the median), and the change of B's median
against A's in the worse direction. A metric agrees when both spreads stay
within the metric's bound and B's median is not worse than A's by more than
the bound; set-up time (setup_s) is held only to the median rule. The exit
code is 1 when any metric disagrees or any run failed its checks.

`show` prints one set's medians, units, quartiles and spreads, with the
share of each bound a spread uses; a steady metric stays under a third of
its bound. With one run per workload there are no quartiles; the value is
printed alone.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    s = spec()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in s["workloads"]]
    seconds = args.seconds or s["run_seconds"]
    for w in workloads:
        os.makedirs(os.path.join(args.out, w), exist_ok=True)
        for seed in seed_list(args.seeds):
            cmd = s["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(seconds),
                                  "--trace", str(args.trace)]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            path = os.path.join(args.out, w, f"{seed}.t{args.trace}.out")
            with open(path, "w") as f:
                f.write(r.stdout)
            last = r.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{w} seed={seed} exit={r.returncode} {last[0][:100]}",
                  flush=True)
    args.a = args.out
    return show(args)


def load(setdir, trace):
    """{workload: [result, ...]} from one collected set."""
    runs = {}
    for w in sorted(os.listdir(setdir)):
        wdir = os.path.join(setdir, w)
        if not os.path.isdir(wdir):
            continue
        for name in sorted(os.listdir(wdir)):
            if not name.endswith(f".t{trace}.out"):
                continue
            with open(os.path.join(wdir, name)) as f:
                lines = f.read().strip().splitlines()
            try:
                runs.setdefault(w, []).append(json.loads(lines[-1]))
            except (IndexError, ValueError):
                runs.setdefault(w, []).append(
                    {"correct": False, "attempted": 1, "failed": 1,
                     "metrics": {}})
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def metrics_of(trace):
    s = spec()
    if trace:
        return [dict(m, bound=None) for m in s["per_layer"]]
    return s["end_to_end"]


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def check_runs(label, runs):
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    if bad:
        print(f"  {label}: {len(bad)} of {len(runs)} runs failed checks")
    return not bad


def show(args):
    ok = True
    for w, runs in load(args.a, args.trace).items():
        print(f"{w} ({len(runs)} runs)")
        ok = check_runs("set", runs) and ok
        for m in metrics_of(args.trace):
            v = values(runs, m["name"])
            if not v:
                print(f"  {m['name']:<30} missing")
                ok = False
                continue
            if len(v) == 1:
                print(f"  {m['name']:<30} {v[0]:12.6g} {m['unit']}")
                continue
            med, q1, q3, spread = summary(v)
            use = ""
            if m["bound"]:
                use = f"  {spread / m['bound']:5.2f} of bound {m['bound']}"
            print(f"  {m['name']:<30} {med:12.6g} {m['unit']:<6} "
                  f"[{q1:.6g}, {q3:.6g}] spread {spread:6.1%}{use}")
    return 0 if ok else 1


def diff(args):
    a, b = load(args.a, args.trace), load(args.b, args.trace)
    ok = True
    for w in sorted(set(a) | set(b)):
        ra, rb = a.get(w, []), b.get(w, [])
        print(f"{w} (A {len(ra)} runs, B {len(rb)} runs)")
        ok = check_runs("A", ra) and ok
        ok = check_runs("B", rb) and ok
        for m in metrics_of(args.trace):
            va, vb = values(ra, m["name"]), values(rb, m["name"])
            if len(va) < 2 or len(vb) < 2:
                print(f"  {m['name']:<30} missing")
                ok = False
                continue
            ma, qa1, qa3, sa = summary(va)
            mb, qb1, qb3, sb = summary(vb)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb - ma) / abs(ma) if ma else float("inf")
            verdict = ""
            if m["bound"] is not None:
                bound = m["bound"]
                agree = worse <= bound and (
                    m["name"] == "setup_s" or (sa <= bound and sb <= bound))
                verdict = "agree" if agree else "DISAGREE"
                ok = ok and agree
            print(f"  {m['name']:<30} {m['unit']:<6} "
                  f"A {ma:10.5g} [{qa1:.5g}, {qa3:.5g}] "
                  f"{sa:6.1%} | B {mb:10.5g} [{qb1:.5g}, {qb3:.5g}] {sb:6.1%}"
                  f" | worse {worse:+6.1%} {verdict}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=float, default=0)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")
    d.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("show")
    s.add_argument("a")
    s.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    return {"collect": collect, "diff": diff, "show": show}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main() or 0)
