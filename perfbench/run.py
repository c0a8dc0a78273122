#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Builds the simulator library and the
benchmark binary (perfbench_bin) from source into $CARGO_TARGET_DIR
(default .bench_build), runs one workload and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ledger (the Chrome
trace and ledger files go to .bench_out/). Every result is stamped with the
host and build it came from; see perfbench/README.md for the workloads.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(targets):
    """Configures (once) and builds; returns False when the build fails."""
    bdir = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", bdir, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (no git metadata in this checkout)"


def host_stamp(build_line):
    stamp = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "git_commit": git_commit(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    # "build: type=X ndebug=Y optimized=Z compiler=..." from perfbench_bin.
    fields = build_line[len("build:"):].strip()
    head, _, compiler = fields.partition(" compiler=")
    for kv in head.split():
        k, _, v = kv.partition("=")
        stamp["build_" + k] = v
    stamp["compiler"] = compiler
    return stamp


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec.get(key, [])}


def run(args):
    if not build(["perfbench_bin"]):
        log("perfbench: build failed")
        return 1
    binary = os.path.join(build_dir(), "perfbench_bin")
    out_dir = os.path.join(ROOT, ".bench_out")  # perfbench_bin writes here too
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: perfbench_bin exited with %d" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: perfbench_bin printed no result line")
        return 1

    build_line = next((l for l in lines if l.startswith("build:")), "build:")
    stamp = host_stamp(build_line)
    if stamp.get("build_optimized") != "yes":
        lines.insert(0, "WARNING: non-optimised build; not a performance result")

    declared = declared_metrics(args.trace)
    if declared is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != declared:
            log("perfbench: metrics differ from BENCHMARK.json: missing %s, extra %s, "
                "unit mismatch %s" % (
                    sorted(set(declared) - set(got)), sorted(set(got) - set(declared)),
                    sorted(k for k in got if k in declared and got[k] != declared[k])))
            result["correct"] = False

    os.makedirs(out_dir, exist_ok=True)
    name = "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump({"host": stamp, "args": vars(args), "result": result}, f, indent=1)

    for line in lines[:-1]:
        print(line)
    print("host: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0


def selftest():
    if not build(["perfbench_test"]):
        return 1
    return subprocess.run([os.path.join(build_dir(), "perfbench_test")]).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own unit tests")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
