#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]

Runs perfbench/run.py --trace 0 once per seed, one after another, and
prints for each end-to-end metric the median and the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to the metric's bound from BENCHMARK.json. Every metric,
setup_s included, is checked against its bound; the exit code is 1 when a
spread exceeds it or a run is not correct. Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        a, b = text.split("-", 1)
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    """(median, (q3 - q1) / median) of `values`."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med if med else float("inf"))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])

    values = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print("seed %d: exit %d\n%s" % (seed, proc.returncode, proc.stderr[-2000:]))
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    print("%-34s %14s %10s %8s" % ("metric", "median", "iqr/med", "bound"))
    for k, vs in values.items():
        if len(vs) < 2:
            continue
        med, rel = spread(vs)
        b = bounds.get(k)
        flag = ""
        if b is not None and rel > b:
            flag = "  OVER BOUND"
            ok = False
        elif b is not None and rel > b / 3:
            flag = "  over bound/3"
        print("%-34s %14.6g %10.4f %8s%s" % (k, med, rel, "" if b is None else b, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
