#!/usr/bin/env python3
"""Smoke test of the benchmark itself (not of the router).

    python3 perfbench/smoke_test.py

Run from the repository root.  Checks, in about a minute:
  * every workload (BENCHMARK.json's and fastpath-sharded, which the
    benchmark supports but does not list) runs for 1.5 s with --trace 0
    and --trace 1, exits 0, reports correct=true and failed=0;
  * every metric BENCHMARK.json names is printed by name with its unit
    (end-to-end metrics untraced, per-layer metrics traced);
  * an injected wrong verdict (--inject-ttl-skip: the checker's input
    claims some packets kept their TTL) is counted as failures;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    command exits non-zero without printing a result.
Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1.5"
# Supported by bench.exe but left out of BENCHMARK.json (see README.md).
UNLISTED = ["fastpath-sharded"]


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(out, what):
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail("%s: exit %d\n%s%s" % (what, out.returncode, out.stdout, out.stderr))
    try:
        r = json.loads(lines[-1])
    except ValueError:
        fail("%s: last line is not JSON: %r" % (what, lines[-1]))
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (what, sorted(r)))
    return r


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for w in [w["name"] for w in bench["workloads"]] + UNLISTED:
        for trace in (0, 1):
            what = "%s --trace %d" % (w, trace)
            r = result_of(run(["--workload", w, "--seed", "1", "--seconds",
                               SECONDS, "--trace", str(trace)]), what)
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                fail("%s: correct=%s failed=%d attempted=%d"
                     % (what, r["correct"], r["failed"], r["attempted"]))
            for m in expected[trace]:
                got = r["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    fail("%s: metric %s missing or unit %r" % (what, m["name"], got))
                if not isinstance(got["value"], (int, float)):
                    fail("%s: metric %s value %r" % (what, m["name"], got["value"]))
            print("ok  %s: %d packets, %d metrics" % (what, r["attempted"], len(r["metrics"])))

    skip = 1000
    r = result_of(run(["--workload", "fastpath-inline", "--seed", "1", "--seconds",
                       SECONDS, "--trace", "0", "--inject-ttl-skip", str(skip)]),
                  "injected TTL skip")
    want = r["attempted"] // skip
    ratio = r["metrics"]["correct_ratio"]["value"]
    if r["correct"] or abs(r["failed"] - want) > 2 or ratio >= 1.0:
        fail("injected TTL skip: correct=%s failed=%d (want ~%d) correct_ratio=%s"
             % (r["correct"], r["failed"], want, ratio))
    print("ok  injected TTL skip: %d failures of %d packets counted" % (r["failed"], r["attempted"]))

    bare = tempfile.mkdtemp(prefix="perfbench-bare-")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = run(["--workload", "fastpath-inline", "--seed", "1", "--seconds",
                   SECONDS, "--trace", "0"], cwd=bare)
        if out.returncode == 0 or out.stdout.strip():
            fail("bare directory: exit %d, stdout %r" % (out.returncode, out.stdout))
    finally:
        shutil.rmtree(bare)
    print("ok  bare directory: exit %d, no result" % out.returncode)


if __name__ == "__main__":
    main()
