#!/usr/bin/env python3
"""Hold perfbench's deterministic numbers to a committed baseline.

    python3 tool/perf_ratchet.py [--baseline PERF_BASELINE.json] [--dir DIR]
    python3 tool/perf_ratchet.py --update

Run it from the root of a source tree after writing one result file per
workload, and one traced run's result per layer-probe workload, as CI's
benchmark smoke step does:

    python3 perfbench/run.py --workload W --seed 1 --seconds 3 --trace 0 \\
        > perfbench-W.out
    python3 perfbench/run.py --workload deref_hot --seed 1 --seconds 1 \\
        --trace 1 > perfbench-layers.out
    python3 perfbench/run.py --workload churn --seed 1 --seconds 1 \\
        --trace 1 > perfbench-layers-churn.out
    python3 perfbench/run.py --workload contended --seed 1 --seconds 1 \\
        --trace 1 > perfbench-layers-contended.out
    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 6 \\
        --trace 1 > perfbench-layers-query_mix.out

The last line of each file is the result object.  The check fails if a
workload's pages_per_op, attempts_per_commit or space_amp moved by more
than 0.5% either way, or its words_per_op rose by more than 5%, or if one
of the layer probe's *_words (allocated words per call of a layer's entry
point) rose by more than 5% in any probe run.  The probe draws its inputs
from the workload's own database, so the runs price the same layers
differently: deref_hot's pool holds all its data, query_mix's a tenth of
it on the file backend, so its reads miss, churn's is durable with an
ack-mode replica, so its writes log and ship, and contended's is shared by
eight interleaved transactional clients, so its writes lock and its
replicated updates fan out to four objects each.  All of these are
counts, not timings: at a fixed seed and length they repeat exactly on one
machine, and the probe's words do not depend on the run's length.  The
query_mix probe run is 6 s long only because a shorter traced query_mix
run has too few latency samples for a p99 and so is not a correct run.
A change that improves a number rewrites the baseline with --update in
the same commit.
"""

import argparse
import json
import os
import sys

SETTINGS = {"seed": 1, "seconds": 3, "trace": 0}
# layer-probe workload -> the file its traced run is written to
LAYER_FILES = {
    "deref_hot": "perfbench-layers.out",
    "query_mix": "perfbench-layers-query_mix.out",
    "churn": "perfbench-layers-churn.out",
    "contended": "perfbench-layers-contended.out",
}
LAYER_SETTINGS = {
    "deref_hot": {"seed": 1, "seconds": 1, "trace": 1},
    "query_mix": {"seed": 1, "seconds": 6, "trace": 1},
    "churn": {"seed": 1, "seconds": 1, "trace": 1},
    "contended": {"seed": 1, "seconds": 1, "trace": 1},
}
# metric -> (largest allowed relative change, whether a fall also fails)
BOUNDS = {
    "pages_per_op": (0.005, True),
    "attempts_per_commit": (0.005, True),
    "space_amp": (0.005, True),
    "words_per_op": (0.05, False),
}
LAYER_BOUND = 0.05  # largest allowed rise of a layer's words per call


def metrics(path):
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        sys.exit("perf_ratchet: %s is empty" % path)
    res = json.loads(lines[-1])
    if res.get("correct") is not True:
        sys.exit("perf_ratchet: %s is not a correct run" % path)
    return {m: v["value"] for m, v in res["metrics"].items()}


def result(directory, workload):
    found = metrics(os.path.join(directory, "perfbench-%s.out" % workload))
    return {m: found[m] for m in BOUNDS}


def layer_words(directory, workload):
    found = metrics(os.path.join(directory, LAYER_FILES[workload]))
    return {m: v for m, v in found.items() if m.endswith("_words")}


def compare(label, metric, old, new, bound, two_sided):
    """Print one row; return whether it is outside its bound."""
    if old:
        change = (new - old) / old
        bad = abs(change) > bound if two_sided else change > bound
    else:
        change = 0.0
        bad = new != old if two_sided else new > old
    print("%-12s %-33s %14.4f -> %14.4f  %+7.2f%%%s"
          % (label, metric, old, new, 100 * change, "  FAIL" if bad else ""))
    return bad


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
    fresh_layers = {w: layer_words(args.dir, w) for w in LAYER_FILES}

    if args.update:
        baseline["workloads"] = fresh
        baseline["layer_settings"] = LAYER_SETTINGS
        baseline["layers"] = fresh_layers
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print("perf_ratchet: baseline rewritten")
        return

    if baseline.get("layer_settings") != LAYER_SETTINGS:
        sys.exit("perf_ratchet: baseline layer settings %s, expected %s; "
                 "write them with --update"
                 % (baseline.get("layer_settings"), LAYER_SETTINGS))
    failures = []
    for workload, base in sorted(baseline["workloads"].items()):
        for metric, (bound, two_sided) in sorted(BOUNDS.items()):
            if compare(workload, metric, base[metric], fresh[workload][metric],
                       bound, two_sided):
                failures.append((workload, metric))
    layers = baseline.get("layers", {})
    if sorted(layers) != sorted(LAYER_FILES):
        sys.exit("perf_ratchet: the baseline's layer words are not those of "
                 "%s; write them with --update" % sorted(LAYER_FILES))
    for workload in sorted(LAYER_FILES):
        for metric, old in sorted(layers[workload].items()):
            if metric not in fresh_layers[workload]:
                sys.exit("perf_ratchet: %s has no %s"
                         % (LAYER_FILES[workload], metric))
            label = "L:" + workload
            if compare(label, metric, old, fresh_layers[workload][metric],
                       LAYER_BOUND, False):
                failures.append((label, metric))
    if failures:
        sys.exit("perf_ratchet: %d number(s) outside their bound: %s"
                 % (len(failures), failures))
    print("perf_ratchet: every number within its bound")


if __name__ == "__main__":
    main()
