#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs every workload, untraced and traced, each in its own
process, and prints one JSON object per line tagged with "workload" and
"trace" (the --trace argument is then ignored).

The driver and the repository's libraries are built with CMake into
.bench_build/perfbench (configured once, rebuilt incrementally on every run);
build output goes to stderr. The workload then runs in its own process, and
its last stdout line, one JSON object, is printed as this script's last line.
With --trace 1 the traced round's spans are written to
.bench_build/spans/<workload>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("paper-read", "fattree-read", "fs-mixed", "meta-churn")
RUN_TIMEOUT_S = 170


def build():
    """Configures (first time only) and builds the driver; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(DRIVER)


def run_workload(workload, seed, seconds, trace):
    """Runs one workload in its own process; its JSON line, or None."""
    # The fs::Cluster keeps its nameserver KV stores under the temporary
    # directory; point that into the checkout and remove it afterwards.
    tmp = os.path.join(ROOT, ".bench_build", "tmp",
                       "%s-%d" % (workload, os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, workload + ".json")]
    env = dict(os.environ, TMPDIR=tmp)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: %s exited with %d" % (workload, proc.returncode),
              file=sys.stderr)
        return None
    return lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.workload != "all":
        line = run_workload(args.workload, args.seed, args.seconds,
                            args.trace)
        if line is None:
            return 1
        print(line)
        return 0

    # Every workload, untraced then traced: one JSON object per line, tagged
    # with its workload and mode.
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            line = run_workload(workload, args.seed, args.seconds, trace)
            if line is None:
                ok = False
                continue
            result = json.loads(line)
            ok = ok and result["correct"]
            print(json.dumps(dict(workload=workload, trace=trace, **result)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
