#!/usr/bin/env python3
"""Build and run the mixsyn benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload detector|isaac|batch-flow|all \
        --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (sources only, no shared dune cache),
then runs it with the same arguments plus the usable core count.  The
benchmark prints a readable report; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  This script
checks that the metric names are exactly the ones BENCHMARK.json declares
for the mode, and exits non-zero, without a result line, on any failure.
"all" runs every workload BENCHMARK.json lists, one after another.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(workload, args, declared):
    nproc = len(os.sched_getaffinity(0))
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(nproc)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.decode(errors="replace").rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die("benchmark exited with %d" % run.returncode)
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        die("metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(declared.items())))
    sys.stdout.write("\n".join(lines) + "\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        die("not at the root of a mixsyn checkout (no dune-project)")
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in workloads:
        die("unknown workload %r" % args.workload)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        die("build failed")

    for workload in workloads if args.workload == "all" else [args.workload]:
        run_workload(workload, args, declared)


if __name__ == "__main__":
    main()
