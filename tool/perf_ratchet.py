#!/usr/bin/env python3
"""Hold perfbench's deterministic numbers to a committed baseline.

    python3 tool/perf_ratchet.py [--baseline PERF_BASELINE.json] [--dir DIR]
    python3 tool/perf_ratchet.py --update

Run it from the root of a source tree after writing one result file per
workload, as CI's benchmark smoke step does:

    python3 perfbench/run.py --workload W --seed 1 --seconds 3 --trace 0 \\
        > perfbench-W.out

The last line of each perfbench-W.out is the result object.  The check
fails if a workload's pages_per_op, attempts_per_commit or space_amp moved
by more than 0.5% either way, or its words_per_op rose by more than 5%.
All four are counts, not timings: at a fixed seed and length they repeat
exactly on one machine.  A change that improves a number rewrites the
baseline with --update in the same commit.
"""

import argparse
import json
import os
import sys

SETTINGS = {"seed": 1, "seconds": 3, "trace": 0}
# metric -> (largest allowed relative change, whether a fall also fails)
BOUNDS = {
    "pages_per_op": (0.005, True),
    "attempts_per_commit": (0.005, True),
    "space_amp": (0.005, True),
    "words_per_op": (0.05, False),
}


def result(directory, workload):
    path = os.path.join(directory, "perfbench-%s.out" % workload)
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        sys.exit("perf_ratchet: %s is empty" % path)
    res = json.loads(lines[-1])
    if res.get("correct") is not True:
        sys.exit("perf_ratchet: %s is not a correct run" % path)
    return {m: res["metrics"][m]["value"] for m in BOUNDS}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default="PERF_BASELINE.json")
    ap.add_argument("--dir", default=".", help="where the perfbench-*.out files are")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from the result files")
    args = ap.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    if baseline["settings"] != SETTINGS:
        sys.exit("perf_ratchet: baseline settings %s, expected %s"
                 % (baseline["settings"], SETTINGS))
    fresh = {w: result(args.dir, w) for w in baseline["workloads"]}

    if args.update:
        baseline["workloads"] = fresh
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print("perf_ratchet: baseline rewritten")
        return

    failures = []
    for workload, base in sorted(baseline["workloads"].items()):
        for metric, (bound, two_sided) in sorted(BOUNDS.items()):
            old, new = base[metric], fresh[workload][metric]
            change = (new - old) / old if old else 0.0
            bad = abs(change) > bound if two_sided else change > bound
            print("%-10s %-19s %14.4f -> %14.4f  %+7.2f%%%s"
                  % (workload, metric, old, new, 100 * change,
                     "  FAIL" if bad else ""))
            if bad:
                failures.append((workload, metric))
    if failures:
        sys.exit("perf_ratchet: %d number(s) outside their bound: %s"
                 % (len(failures), failures))
    print("perf_ratchet: every number within its bound")


if __name__ == "__main__":
    main()
