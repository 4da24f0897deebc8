#!/usr/bin/env python3
"""Compare a freshly generated bench JSON against the committed baseline.

Usage:
    check_bench.py BASELINE CURRENT [--tolerance 0.25]

Walks both documents and compares every numeric leaf present in the
baseline within a relative tolerance (default +-25%). Wall-clock keys
(anything containing "seconds", "speedup", "ms_per", "hit_rate" or
"per_second") are skipped: they depend on the host, while the remaining
counters are deterministic outputs of the search and simulator and must
not drift silently. The keys the EXACT registry names (per baseline file)
must equal the baseline exactly: the search and device-walk answers and
counters, and the simulator's trace and replay counters, that are
thread-count- and host-invariant by contract, where even a 1% drift is an
answer change, not noise (a Markov sampler that is not draw-for-draw
identical moves the markov and prefetch counters by well under 25%).

Some baselines additionally carry acceptance floors: BENCH_search.json
requires the full-evaluation reduction of the bounded search over the
exhaustive one to stay >= 5x and the evaluation kernel's serve-scale
wall-clock speedup over the scalar reference to stay >= 10x;
BENCH_simulate.json requires the uniform-trace ranking agreement with
Eq. 10 and the replay identity with the reference replay to be exactly
1.0; BENCH_floorplan.json requires every legal
floorplan to cover its Eq. 10 estimate, the placement-true re-ranking
to be identical across search thread counts, and every candidate's
placement ladder output to equal the reference ladder's (all exactly
1.0); BENCH_sweep.json requires every design's device walk to equal the
reference walk (walk_identity_agreement exactly 1.0). Floors
are exempt from the wall-clock skip
(ratio floors compare runs on the same host), and a floor key missing
from the current run is itself a failure.

Exit status: 0 clean, 1 on any regression, 2 on usage/IO errors.
"""

import argparse
import fnmatch
import json
import os
import sys

SKIP_SUBSTRINGS = ("seconds", "speedup", "ms_per", "hit_rate", "per_second")

# (path-suffix, floor): hard minimums the current run must clear regardless
# of what the baseline says.
FLOORS = {
    "full_evaluation_reduction": 5.0,
    # BENCH_search.json: serve-scale wall ratio of the evaluation kernel.
    # kernel_wall_speedup is the scalar *reference* evaluator vs the word
    # kernel; on the deeply adaptive serve population (hundreds of
    # configurations) the measured value is ~40x, so 10x is a conservative
    # floor with ample headroom for slower CI hosts.
    "kernel_wall_speedup": 10.0,
    # BENCH_simulate.json: the fraction of candidate-scheme pairs whose
    # simulated uniform-trace cost orders exactly like their Eq. 10 frame
    # sums (ties included). The simulator's headline contract — anything
    # below 1.0 is a correctness bug, not a perf regression.
    "uniform_ranking_agreement": 1.0,
    # BENCH_simulate.json: fraction of the bench's uniform, Markov and
    # prefetch replays whose result equals the step-by-step reference replay
    # in oracle/ field by field. Counting transition pairs must never change
    # a result.
    "replay_identity_agreement": 1.0,
    # BENCH_floorplan.json: fraction of legal floorplans whose placed frame
    # total covers the Eq. 10 estimate (tiles round up, never down), and the
    # fraction of designs whose placement-true re-ranking is identical at
    # search thread counts {1, 4, 16}. Both are correctness contracts of the
    # floorplan subsystem, not perf metrics.
    "placement_dominates_agreement": 1.0,
    "thread_identity_agreement": 1.0,
    # BENCH_floorplan.json: fraction of candidates whose production
    # floorplan_scheme output (stage, rectangles, verdict, diagnostics,
    # fix-it) equals the reference ladder's in oracle/. The prefix-sum
    # geometry must never change a result.
    "ladder_identity_agreement": 1.0,
    # BENCH_sweep.json: fraction of sweep designs whose device walk
    # (partition_on_smallest_device, which skips devices it can decide
    # without a search) equals the reference walk in oracle/ field by field.
    # The skips must never change a result.
    "walk_identity_agreement": 1.0,
}

# Host-dependent keys that are *deliberately* neither drift-checked nor
# floored: raw wall clocks and the ratios derived from them (their inputs
# are drift-checked counters, so a real regression still surfaces there).
# check_invariants.py cross-checks this registry against the committed
# baselines: a new BENCH key must either drift-check, carry a floor, or be
# declared here — nothing bypasses gating silently. Keyed by baseline file.
INFORMATIONAL = {
    "BENCH_search.json": {
        "bounded.wall_seconds",
        "exhaustive.wall_seconds",
        "wall_speedup_vs_exhaustive",
        "fig7_eval_speedup",
        "kernel.fig7_reference_seconds",
        "kernel.fig7_kernel_seconds",
        "kernel.serve_reference_seconds",
        "kernel.serve_kernel_seconds",
        "kernel.serve_batch_seconds",
    },
    "BENCH_sweep.json": {
        "wall_seconds",
        "ms_per_design",
        "speedup.total_vs_modular",
        "speedup.total_vs_single",
        "speedup.worst_vs_modular",
        "speedup.worst_vs_single",
    },
    "BENCH_simulate.json": {
        "uniform.wall_seconds",
        "markov.wall_seconds",
        "markov.transitions_per_second",
        "prefetch.wall_seconds",
        "prefetch.prefetch_hit_rate",
    },
    "BENCH_floorplan.json": {
        "rerank_wall_seconds",
        "identity_wall_seconds",
        "ladder_speedup",
    },
    "BENCH_serve.json": {
        "epoll.warm_c64.wall_seconds",
        "epoll.warm_c64.designs_per_second",
        "epoll.warm_c256.wall_seconds",
        "epoll.warm_c256.designs_per_second",
        "epoll.warm_c1024.wall_seconds",
        "epoll.warm_c1024.designs_per_second",
        "epoll.cold_c64.wall_seconds",
        "epoll.cold_c64.designs_per_second",
        "epoll.p50_latency_seconds",
        "epoll.p99_latency_seconds",
    },
}


# Deterministic keys that must match the baseline exactly, as fnmatch
# patterns keyed by baseline file. check_invariants.py rejects a pattern that
# matches no key of its committed baseline. full_evaluations and
# moves_rescored stay at the tolerance: they split by scheduling.
EXACT = {
    "BENCH_sweep.json": {
        "escalated",
        "smaller_than_modular",
        "total_frames.*",
        "worst_frames.*",
        "search.*",
        "walk.*",
    },
    "BENCH_search.json": {
        "bounded.move_evaluations",
        "bounded.states_recorded",
        "bounded.units",
        "bounded.units_pruned",
        "exhaustive.move_evaluations",
        "exhaustive.states_recorded",
        "exhaustive.units",
        "exhaustive.units_pruned",
        "kernel.kernel_evaluations",
        "kernel.signature_collapsed_configs",
    },
    "BENCH_simulate.json": {
        "uniform.transitions",
        "uniform.frames_loaded",
        "uniform.pairs_checked",
        "uniform.frames_identities",
        "markov.transitions",
        "markov.frames_loaded",
        "markov.region_loads",
        "markov.total_latency_ns",
        "prefetch.frames_loaded",
        "prefetch.prefetched_frames",
        "prefetch.useful_prefetches",
        "prefetch.wasted_prefetches",
    },
}


def is_exact(baseline_name, path):
    return any(fnmatch.fnmatchcase(path, pattern)
               for pattern in EXACT.get(baseline_name, ()))


def flatten(doc):
    out = {}
    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, path + (key,))
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out[".".join(path)] = float(node)
    walk(doc, ())
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.25)
    args = parser.parse_args()

    try:
        with open(args.baseline) as f:
            baseline = flatten(json.load(f))
        with open(args.current) as f:
            current = flatten(json.load(f))
    except (OSError, ValueError) as err:
        print(f"check_bench: {err}", file=sys.stderr)
        return 2

    baseline_name = os.path.basename(args.baseline)
    failures = []
    exact = 0
    for path, base in sorted(baseline.items()):
        if any(s in path for s in SKIP_SUBSTRINGS):
            continue
        if path not in current:
            failures.append(f"{path}: missing from current run (baseline {base:g})")
            continue
        cur = current[path]
        if is_exact(baseline_name, path):
            exact += 1
            if cur != base:
                failures.append(
                    f"{path}: {cur:.17g} differs from baseline {base:.17g} "
                    "(exact key)")
            continue
        limit = abs(base) * args.tolerance
        if abs(cur - base) > limit:
            failures.append(
                f"{path}: {cur:g} deviates from baseline {base:g} "
                f"by more than {args.tolerance:.0%}")

    floored = {suffix: False for suffix in FLOORS}
    for suffix, floor in FLOORS.items():
        for path, cur in current.items():
            if not path.endswith(suffix):
                continue
            floored[suffix] = True
            if cur < floor:
                failures.append(f"{path}: {cur:g} below the hard floor {floor:g}")
    # A floor can only vouch for what it measured: if the current run does
    # not report the key at all (stale binary, renamed field), fail loudly
    # instead of silently passing. Baselines without the key (e.g.
    # BENCH_search for the agreement floors) are fine -- floors only bind
    # documents that carry the metric in the committed baseline.
    for suffix, seen in floored.items():
        if not seen and any(p.endswith(suffix) for p in baseline):
            failures.append(f"{suffix}: floored key missing from current run")

    checked = sum(
        1 for p in baseline if not any(s in p for s in SKIP_SUBSTRINGS))
    if failures:
        print(f"check_bench: {len(failures)} regression(s) vs {args.baseline}:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"check_bench: {checked} counters match {args.baseline} "
          f"({exact} exactly, the rest within {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
