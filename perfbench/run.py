#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree.  It builds perfbench/main.exe with
dune, runs the workload in a fresh process, checks the result's shape
against BENCHMARK.json, and prints the program's output; the last line is
the result object.  Everything it writes stays under the source tree:
_build/ for the build, .perfbench/ for temporary files and span dumps.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("deref_hot", "query_mix", "churn", "contended")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def clean_env():
    # Engine defaults read FIELDREP_* and the runtime reads OCAMLRUNPARAM;
    # every run must see the same settings, so neither leaks in.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FIELDREP_") and k != "OCAMLRUNPARAM"}
    env["DUNE_CACHE"] = "disabled"
    return env


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive whole number")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, units %s"
             % (missing, extra, wrong))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("run from the root of the source tree (no dune-project or lib/ here)")
    env = clean_env()
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")

    root = os.getcwd()
    out_dir = os.path.join(root, ".perfbench", "out")
    tmp_dir = os.path.join(root, ".perfbench", "tmp-%d" % os.getpid())
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    env["TMPDIR"] = tmp_dir  # the file backend and the WALs live here
    try:
        proc = subprocess.run(
            [os.path.join(root, EXE), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=out_dir, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("%s exited with %d" % (args.workload, proc.returncode))
    lines = proc.stdout.rstrip("\n").split("\n")
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
