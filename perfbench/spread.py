#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,3,4,5]
                                [--seconds S] [--trace 0|1]

For every metric: the median of the runs and the distance between the
first and third quartiles (statistics.quantiles(values, n=4)) as a share
of that median -- the steadiness figure BENCHMARK.json's bounds are
checked against.  Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("seed %d failed (exit %d):\n%s%s" % (seed, out.returncode, out.stdout, out.stderr))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in [int(s) for s in a.seeds.split(",")]:
        r = run_once(a.workload, seed, seconds, a.trace)
        if not r["correct"] or r["failed"]:
            print("seed %d: correct=%s failed=%d" % (seed, r["correct"], r["failed"]))
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in r["metrics"].items())), flush=True)
    print("%-38s %14s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        b = bounds.get(name)
        print("%-38s %14.6g %8.4f %8s" % (name, med, spread, "-" if b is None else b))


if __name__ == "__main__":
    main()
