#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bin/perfbench.exe with dune, runs it with the given
arguments, and checks that its last line is the result object with exactly
the metrics BENCHMARK.json declares for the mode (end_to_end for --trace 0,
per_layer for --trace 1). Exits non-zero if the build, the run or that
check fails.
"""

import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bin", "perfbench.exe")
SCRATCH = ".perfbench-run"
TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def check_result(line, names):
    try:
        res = json.loads(line)
    except ValueError:
        fail("last line is not a JSON object")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(res))
    if set(res["metrics"]) != set(names):
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(res["metrics"]) ^ set(names)))


def main(args):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    trace = "0"
    for flag, value in zip(args, args[1:]):
        if flag == "--trace":
            trace = value
    names = [m["name"] for m in bench["per_layer" if trace == "1" else "end_to_end"]]
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + EXE[len("_build/default/"):]],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    os.makedirs(SCRATCH, exist_ok=True)
    # The traced run reads GC spans from the runtime's event ring: keep its
    # backing file inside the checkout.
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.abspath(SCRATCH)
    try:
        run = subprocess.run([EXE] + args, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % TIMEOUT_S)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        fail("run failed with exit code %d" % run.returncode)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("no output")
    check_result(lines[-1], names)


if __name__ == "__main__":
    main(sys.argv[1:])
