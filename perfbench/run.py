#!/usr/bin/env python3
"""Build and run the setsync benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune into .bench_build/, runs it, and
passes its standard output through; the last line is the JSON result.
Build output goes to standard error. Exits non-zero, without a result
line, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

BUILD = ".bench_build"
EXE = os.path.join(BUILD, "dune", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def build(env):
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", os.path.abspath(os.path.join(BUILD, "dune")),
        "--profile", "release", "./perfbench/perfbench.exe",
    ]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0 and os.path.isfile(EXE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isfile("dune-project"):
        print("run.py: no dune-project here; run from the root of a setsync checkout",
              file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    # Keep dune's cache and config inside the checkout.
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(BUILD, "cache"))
    env["XDG_CONFIG_HOME"] = os.path.abspath(os.path.join(BUILD, "config"))
    if not build(env):
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", os.path.join(BUILD, "perfbench"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write((e.stdout or b"").decode(errors="replace"))
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    out = done.stdout.decode(errors="replace")
    sys.stdout.write(out)
    if done.returncode != 0:
        return done.returncode
    lines = out.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        print("run.py: no result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
