#!/usr/bin/env python3
"""Cross-check project invariants that span code, docs and CI gating.

Usage:
    check_invariants.py [--repo PATH]

Four families of drift this linter makes impossible to land silently:

  1. Diagnostics: every diagnostic code constructed in src/analysis,
     src/design (the reader's structural codes), src/sim or src/floorplan
     must be catalogued in docs/diagnostics.md *and* exercised by at least
     one test under tests/.
  2. Stats counters: every key the serving protocol emits -- the stats
     snapshot in src/server/stats.cpp and the per-job stats blocks in
     src/server/protocol.cpp -- must appear in docs/protocol.md.
  3. Bench gating: every numeric key in the committed BENCH_*.json
     baselines must be covered by tools/check_bench.py -- drift-checked,
     held to a hard floor, or explicitly declared informational. Stale
     registry entries (declared but absent from the baseline) also fail,
     and so does an EXACT pattern that matches no drift-checked key of its
     baseline.
  4. Lock levels: every lock_order::Level enumerator in
     src/util/lock_order.hpp must be constructed by some Mutex under src/
     and have a row (by its level number) in DESIGN.md's lock hierarchy
     table, and every row must name an enumerator, so a level whose mutex
     is deleted cannot linger.

Exit status: 0 clean, 1 on any violation, 2 on usage/IO errors.
"""

import argparse
import fnmatch
import importlib.util
import json
import pathlib
import re
import sys

# How diagnostics are constructed in the checked subsystems. Every code is
# a lowercase dashed literal next to its severity / error helper / .code
# assignment, so these three shapes cover all construction sites.
DIAG_PATTERNS = (
    re.compile(r'Severity::\w+\s*,\s*"([a-z][a-z0-9-]*)"'),
    re.compile(r'\berror\(\s*"([a-z][a-z0-9-]*)"'),
    re.compile(r'\.code\s*=\s*"([a-z][a-z0-9-]*)"'),
)
DIAG_DIRS = ("src/analysis", "src/design", "src/sim", "src/floorplan")

LOCK_LEVEL_ENUM = re.compile(r"^\s*(k\w+)\s*=\s*(\d+)\s*,", re.MULTILINE)
MUTEX_LEVEL = re.compile(r"\bMutex\s+\w+\s*[{(]\s*lock_order::Level::(k\w+)")
LOCK_TABLE_ROW = re.compile(r"^\|\s*(\d+)\s*\|", re.MULTILINE)

STATS_SOURCES = ("src/server/stats.cpp", "src/server/protocol.cpp")
SET_KEY = re.compile(r'\.set\("([a-z][a-z0-9_]*)"')
# Presentation-only envelope keys of protocol.cpp that are not counters;
# still required to be documented, so no exemption list is needed.


def find_diagnostic_codes(repo):
    """{code: first 'file:line' that constructs it} over the checked dirs."""
    codes = {}
    for rel in DIAG_DIRS:
        for path in sorted((repo / rel).rglob("*.cpp")):
            for lineno, line in enumerate(
                    path.read_text().splitlines(), start=1):
                for pattern in DIAG_PATTERNS:
                    for code in pattern.findall(line):
                        where = f"{path.relative_to(repo)}:{lineno}"
                        codes.setdefault(code, where)
    return codes


def check_diagnostics(repo, failures):
    codes = find_diagnostic_codes(repo)
    if not codes:
        failures.append(
            "diagnostics: no codes found under "
            f"{', '.join(DIAG_DIRS)} -- the extraction patterns in "
            "tools/check_invariants.py no longer match the code; update "
            "DIAG_PATTERNS rather than letting the check rot")
        return
    catalogue = (repo / "docs/diagnostics.md").read_text()
    tests = "\n".join(
        p.read_text() for p in sorted((repo / "tests").rglob("*.cpp")))
    for code, where in sorted(codes.items()):
        if f"`{code}`" not in catalogue:
            failures.append(
                f"diagnostics: `{code}` (constructed at {where}) is not "
                "catalogued in docs/diagnostics.md -- add a row to the "
                "diagnostic catalogue table")
        if f'"{code}"' not in tests:
            failures.append(
                f"diagnostics: `{code}` (constructed at {where}) has no "
                "test under tests/ asserting on it -- add a fixture that "
                "triggers the diagnostic and checks its code")


def check_lock_levels(repo, failures):
    levels = LOCK_LEVEL_ENUM.findall(
        (repo / "src/util/lock_order.hpp").read_text())
    if not levels:
        failures.append(
            "locks: no enumerators found in src/util/lock_order.hpp -- "
            "update LOCK_LEVEL_ENUM in tools/check_invariants.py")
        return
    constructed = set()
    for path in sorted((repo / "src").rglob("*.[ch]pp")):
        constructed.update(MUTEX_LEVEL.findall(path.read_text()))
    design = (repo / "DESIGN.md").read_text()
    heading = design.find("### The lock hierarchy")
    if heading < 0:
        failures.append("locks: DESIGN.md has no \"### The lock hierarchy\" "
                        "section -- did the heading move?")
        return
    # The table runs from its first row to the blank line that ends it.
    table = design[heading:design.find("\n\n", design.find("|", heading))]
    rows = set(LOCK_TABLE_ROW.findall(table))
    for value in sorted(rows - {v for _, v in levels}, key=int):
        failures.append(
            f"locks: DESIGN.md's lock hierarchy table has a row for level "
            f"{value}, which no lock_order::Level enumerator has -- delete "
            "the stale row")
    for name, value in levels:
        if name not in constructed:
            failures.append(
                f"locks: lock_order::Level::{name} ({value}) is constructed "
                "by no Mutex under src/ -- delete the level with its mutex")
        if value not in rows:
            failures.append(
                f"locks: lock_order::Level::{name} ({value}) has no row in "
                "DESIGN.md's lock hierarchy table -- document the lock")


def check_stats_docs(repo, failures):
    protocol_md = (repo / "docs/protocol.md").read_text()
    for rel in STATS_SOURCES:
        source = repo / rel
        for lineno, line in enumerate(
                source.read_text().splitlines(), start=1):
            for key in SET_KEY.findall(line):
                if not re.search(rf"\b{re.escape(key)}\b", protocol_md):
                    failures.append(
                        f"stats: wire key \"{key}\" ({rel}:{lineno}) is not "
                        "documented in docs/protocol.md -- every counter "
                        "the protocol emits must be described there")


def load_check_bench(repo):
    spec = importlib.util.spec_from_file_location(
        "check_bench", repo / "tools/check_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_bench_coverage(repo, failures):
    bench = load_check_bench(repo)
    baselines = sorted(repo.glob("BENCH_*.json"))
    if not baselines:
        failures.append("bench: no BENCH_*.json baselines found at the "
                        "repo root -- did the layout move?")
        return
    floor_suffix_used = {suffix: False for suffix in bench.FLOORS}
    for path in baselines:
        flat = bench.flatten(json.loads(path.read_text()))
        informational = bench.INFORMATIONAL.get(path.name, set())
        for key in sorted(flat):
            floored = any(key.endswith(s) for s in bench.FLOORS)
            for suffix in bench.FLOORS:
                if key.endswith(suffix):
                    floor_suffix_used[suffix] = True
            drift_checked = not any(
                s in key for s in bench.SKIP_SUBSTRINGS)
            if floored or drift_checked:
                continue
            if key not in informational:
                failures.append(
                    f"bench: {path.name} key \"{key}\" is neither "
                    "drift-checked (matches a SKIP_SUBSTRINGS pattern), "
                    "floored (FLOORS), nor declared in INFORMATIONAL in "
                    "tools/check_bench.py -- pick one so the metric "
                    "cannot regress silently")
        for key in sorted(informational - set(flat)):
            failures.append(
                f"bench: INFORMATIONAL[\"{path.name}\"] declares \"{key}\" "
                "but the committed baseline has no such key -- remove the "
                "stale entry from tools/check_bench.py")
        drift_keys = [k for k in flat
                      if not any(s in k for s in bench.SKIP_SUBSTRINGS)]
        for pattern in sorted(bench.EXACT.get(path.name, ())):
            if not any(fnmatch.fnmatchcase(k, pattern) for k in drift_keys):
                failures.append(
                    f"bench: EXACT[\"{path.name}\"] declares \"{pattern}\" "
                    "but it matches no drift-checked key of the committed "
                    "baseline -- remove the stale entry from "
                    "tools/check_bench.py")
    for name in sorted((set(bench.INFORMATIONAL) | set(bench.EXACT)) -
                       {p.name for p in baselines}):
        failures.append(
            f"bench: INFORMATIONAL or EXACT names baseline \"{name}\" "
            "which does "
            "not exist -- remove the stale file entry from "
            "tools/check_bench.py")
    for suffix, used in sorted(floor_suffix_used.items()):
        if not used:
            failures.append(
                f"bench: FLOORS suffix \"{suffix}\" matches no key in any "
                "committed baseline -- the floor gates nothing; fix the "
                "suffix or drop it from tools/check_bench.py")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repo", default=pathlib.Path(__file__).resolve().parent.parent,
        type=pathlib.Path, help="repository root (default: ../ of this file)")
    args = parser.parse_args()
    repo = args.repo.resolve()
    if not (repo / "docs/protocol.md").is_file():
        print(f"check_invariants: {repo} does not look like the repo root",
              file=sys.stderr)
        return 2

    failures = []
    check_diagnostics(repo, failures)
    check_stats_docs(repo, failures)
    check_bench_coverage(repo, failures)
    check_lock_levels(repo, failures)

    if failures:
        print(f"check_invariants: {len(failures)} violation(s):")
        for line in failures:
            print(f"  {line}")
        return 1
    print("check_invariants: diagnostics, stats docs, bench gating and "
          "lock levels are consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
