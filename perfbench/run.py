#!/usr/bin/env python3
"""Build and run the wall-clock router benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository.  It builds
perfbench/bench.exe from source with dune into .bench_build (release
profile, dune cache off, so nothing is written outside the checkout),
then runs it with the same arguments plus --trace-dir perfbench/out.
The benchmark's last line of standard output is its JSON result.

Exits non-zero without printing a result when the repository sources
are missing or the build fails; otherwise exits with the benchmark's
own status.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
TRACE_DIR = os.path.join(ROOT, "perfbench", "out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe"]
    # Build output goes to stderr: stdout carries only the result.
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: no router sources here (dune-project and lib/ "
              "are missing); run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        status = build()
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if status != 0:
        print("perfbench: build failed (dune exit %d)" % status,
              file=sys.stderr)
        return 2
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [EXE] + sys.argv[1:] + ["--trace-dir", TRACE_DIR]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
