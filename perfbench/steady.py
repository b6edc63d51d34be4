#!/usr/bin/env python3
"""Steadiness tool for the benchmark.

    python3 perfbench/steady.py run --seeds 1-10 [--workloads a,b] [--trace 0] OUT.json
    python3 perfbench/steady.py summary RUNS.json
    python3 perfbench/steady.py compare FIRST.json SECOND.json
    python3 perfbench/steady.py selftest

`run` runs every workload once per seed, each in a fresh process through
run.py, and saves every result.  `summary` prints each metric's median,
quartiles and spread: the distance between the first and third quartile
as a share of the median (statistics.quantiles with n=4), next to the
metric's bound from BENCHMARK.json.  A spread above the bound fails; one
above a third of the bound is marked, as the benchmark aims below that.
The spread of setup_s is printed but does not fail: set-up time is
compared between sets of runs, not within one.  `compare` checks that
the two sets' medians differ by no more than the bound, in either
direction, setup_s included.  `summary` also fails when any run's
result says correct: false.  Exit status is 1 when a check fails.  Run
from the root of the source tree.
"""

import json
import statistics
import subprocess
import sys
import time


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(args):
    opts = dict(zip(args[:-1:2], args[1:-1:2]))
    out = args[-1]
    s = spec()
    workloads = opts.get("--workloads", ",".join(w["name"] for w in s["workloads"])).split(",")
    seeds = parse_seeds(opts.get("--seeds", "1-10"))
    trace = opts.get("--trace", "0")
    results = []
    for w in workloads:
        for seed in seeds:
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(s["run_seconds"]), "--trace", trace],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit("steady: %s seed %d exited with %d" % (w, seed, proc.returncode))
            lines = proc.stdout.rstrip("\n").split("\n")
            result = json.loads(lines[-1])
            bases = json.loads(lines[-2]) if len(lines) > 1 else None
            results.append({"workload": w, "seed": seed, "wall_s": time.time() - t0,
                            "result": result, "bases": bases})
            print("%s seed %d: %.1f s, correct=%s failed=%d" % (
                w, seed, time.time() - t0, result["correct"], result["failed"]), flush=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=1)


def incorrect(path):
    """(workload, seed) of every run whose result says correct: false."""
    with open(path) as f:
        return [(r["workload"], r["seed"]) for r in json.load(f)
                if not r["result"]["correct"]]


def load(path):
    with open(path) as f:
        runs = json.load(f)
    table = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            table.setdefault((r["workload"], name), []).append(m["value"])
    return table


def spread(values):
    """(median, q1, q3, (q3 - q1) / median); 0 spread for a zero median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(first, second, better):
    """Share by which median `second` is worse than median `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def moved_by(first, second):
    """Share by which median `second` differs from median `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    return abs(second - first) / first


def bounds():
    return {m["name"]: m for m in spec()["end_to_end"]}


def summary(path):
    b = bounds()
    ok = True
    print("%-10s %-20s %5s %14s %14s %14s %8s %6s" % (
        "workload", "metric", "runs", "median", "q1", "q3", "spread", "bound"))
    for (w, name), values in sorted(load(path).items()):
        med, q1, q3, sp = spread(values)
        bound = b.get(name, {}).get("bound")
        flag = ""
        if bound is None:
            pass
        elif name == "setup_s":
            flag = "  (not gated)"
        elif sp > bound:
            flag = "  <-- above the bound"
            ok = False
        elif sp >= bound / 3:
            flag = "  <-- above a third of the bound"
        print("%-10s %-20s %5d %14.6g %14.6g %14.6g %7.2f%% %6s%s" % (
            w, name, len(values), med, q1, q3, 100 * sp,
            "" if bound is None else "%g" % bound, flag))
    for w, seed in incorrect(path):
        print("%s seed %d: correct is false" % (w, seed))
        ok = False
    return ok


def compare(first, second):
    b = bounds()
    a, c = load(first), load(second)
    ok = True
    for key in sorted(set(a) & set(c)):
        w, name = key
        if name not in b:
            continue
        m1, m2 = statistics.median(a[key]), statistics.median(c[key])
        moved = moved_by(m1, m2)
        worse = worse_by(m1, m2, b[name]["better"])
        flag = ""
        if moved > b[name]["bound"]:
            flag = "  <-- moved more than the bound"
            ok = False
        print("%-10s %-20s %14.6g -> %14.6g  moved %7.2f%% (%s, bound %g)%s" % (
            w, name, m1, m2, 100 * moved, "worse" if worse > 0 else "better",
            b[name]["bound"], flag))
    return ok


def selftest():
    med, q1, q3, sp = spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert med == 5.5, med
    assert (q1, q3) == tuple(statistics.quantiles(list(range(1, 11)), n=4)[::2])
    assert abs(sp - (q3 - q1) / 5.5) < 1e-12
    assert spread([4.0, 4.0, 4.0])[3] == 0.0
    assert spread([0.0, 0.0])[3] == 0.0
    assert abs(worse_by(100.0, 110.0, "lower") - 0.10) < 1e-12
    assert abs(worse_by(100.0, 90.0, "higher") - 0.10) < 1e-12
    assert worse_by(100.0, 120.0, "higher") < 0
    assert worse_by(0.0, 0.0, "lower") == 0.0
    # agreement is symmetric: a 30% gain is as much a disagreement as a loss
    assert abs(moved_by(100.0, 130.0) - 0.30) < 1e-12
    assert abs(moved_by(100.0, 70.0) - 0.30) < 1e-12
    assert moved_by(0.0, 0.0) == 0.0
    print("steady self-tests: ok")
    return True


def main(argv):
    if not argv:
        sys.exit(__doc__)
    cmd, rest = argv[0], argv[1:]
    if cmd == "run" and rest:
        run(rest)
        ok = True
    elif cmd == "summary" and len(rest) == 1:
        ok = summary(rest[0])
    elif cmd == "compare" and len(rest) == 2:
        ok = compare(rest[0], rest[1])
    elif cmd == "selftest":
        ok = selftest()
    else:
        sys.exit(__doc__)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main(sys.argv[1:])
