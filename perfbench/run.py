#!/usr/bin/env python3
"""End-to-end serve benchmark of prpart (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 25 --trace 0

builds `prpart` and the perfbench binary from source into .bench_build/,
runs the workload against a real `prpart serve` child, checks every answer
and prints the metrics; the last stdout line is the JSON result.

Steadiness mode:
    python3 perfbench/run.py --steadiness 10 [--sets 2]

runs each workload on K seeds (per set) and prints every end-to-end metric's
median and quartiles beside its bound from BENCHMARK.json, and for a second
set how far its median moved from the first set's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ["cold_sweep", "warm_hits", "placement_sim"]


def build():
    """Configures and builds prpart plus perfbench; exits 1 on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      cwd=ROOT).returncode
            except OSError as e:
                code = 1
                log.write("cannot run %s: %s\n" % (cmd[0], e))
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                sys.exit(1)
    return (os.path.join(BUILD, "perfbench"),
            os.path.join(BUILD, "prpart", "cli", "prpart"))


def run_once(binaries, workload, seed, seconds, trace, capture=False):
    bench, prpart = binaries
    cmd = [bench, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--prpart", prpart,
           "--workdir", os.path.join(BUILD_ROOT, "runs")]
    if not capture:
        return subprocess.run(cmd, cwd=ROOT).returncode
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout)
        raise SystemExit("perfbench: %s seed %d failed" % (workload, seed))
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steadiness(binaries, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in WORKLOADS:
        medians = []
        for s in range(args.sets):
            values = {}
            for i in range(args.steadiness):
                seed = 1000 * (s + 1) + i
                result = run_once(binaries, workload, seed, args.seconds, 0,
                                  capture=True)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print("  %s set %d seed %d: %s" % (
                    workload, s + 1, seed,
                    " ".join("%s=%.4g" % (k, v["value"])
                             for k, v in result["metrics"].items())),
                    flush=True)
            print("%s, set %d, %d seeds:" % (workload, s + 1, args.steadiness))
            print("  %-24s %12s %12s %12s %8s %6s" % (
                "metric", "q1", "median", "q3", "spread", "bound"))
            set_medians = {}
            for name, vals in values.items():
                q1, med, q3 = quartiles(vals)
                set_medians[name] = med
                spread = (q3 - q1) / med if med else float("inf")
                bound = bounds.get(name, float("nan"))
                print("  %-24s %12.6g %12.6g %12.6g %8.4f %6.3f%s" % (
                    name, q1, med, q3, spread, bound,
                    "" if spread <= bound / 3 else "  <-- spread above bound/3"))
            medians.append(set_medians)
        for s in range(1, len(medians)):
            print("%s, set %d median vs set 1 median:" % (workload, s + 1))
            for name, med in medians[s].items():
                base = medians[0][name]
                better = next(m["better"] for m in spec["end_to_end"]
                              if m["name"] == name)
                worse = (med - base) / base if better == "lower" \
                    else (base - med) / base
                print("  %-24s %+8.4f (bound %.3f)%s" % (
                    name, worse, bounds[name],
                    "  <-- worse than bound" if worse > bounds[name] else ""))
        sys.stdout.flush()


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="K")
    p.add_argument("--sets", type=int, default=1)
    args = p.parse_args()
    if not args.steadiness and not args.workload:
        p.error("--workload or --steadiness is required")
    binaries = build()
    if args.steadiness:
        steadiness(binaries, args)
        return 0
    return run_once(binaries, args.workload, args.seed, args.seconds,
                    args.trace)


if __name__ == "__main__":
    sys.exit(main())
