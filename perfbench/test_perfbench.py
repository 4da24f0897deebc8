#!/usr/bin/env python3
"""Tests of the benchmark itself: seeded request streams, metric names and
units, and the result line. Run with `python3 perfbench/test_perfbench.py`
(builds into .bench_build/ first; takes about a minute once built)."""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench, cls.prpart = run.build()
        cls.spec = load_spec()

    def gen(self, workload, seed, count=200):
        return subprocess.run(
            [self.bench, "gen", "--workload", workload, "--seed", str(seed),
             "--count", str(count)],
            check=True, stdout=subprocess.PIPE).stdout

    def test_same_seed_gives_identical_streams(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(self.gen(w, 7), self.gen(w, 7))

    def test_different_seeds_give_different_streams(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(self.gen(w, 7), self.gen(w, 8))

    def test_requests_never_name_the_workload(self):
        for w in run.WORKLOADS:
            stream = self.gen(w, 3, count=600).decode()
            for line in stream.splitlines():
                json.loads(line)  # every request is one JSON line
            for name in run.WORKLOADS:
                with self.subTest(workload=w, name=name):
                    self.assertNotIn(name, stream)

    def test_placement_alternates_floorplan_and_simulate(self):
        lines = self.gen("placement_sim", 5, count=100).decode().splitlines()
        kinds = [json.loads(l)["type"] for l in lines]
        self.assertEqual(kinds[0::2], ["floorplan"] * 50)
        self.assertEqual(kinds[1::2], ["simulate"] * 50)

    def test_cold_requests_are_distinct_past_the_pool(self):
        # 1000 requests pass over the 384-design pool more than twice; every
        # request must still be a distinct design (so a distinct cache key)
        # and carry a fresh id.
        lines = self.gen("cold_sweep", 5, count=1000).decode().splitlines()
        docs = [json.loads(l) for l in lines]
        self.assertEqual(len({d["design_xml"] for d in docs}), len(docs))
        self.assertEqual(len({d["id"] for d in docs}), len(docs))

    def test_metric_names_and_units(self):
        names = [m["name"] for m in self.spec["end_to_end"] +
                 self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertTrue(m["unit"])
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         run.WORKLOADS)

    def check_result(self, workload, trace, wanted):
        cmd = [self.bench, "run", "--workload", workload, "--seed", "11",
               "--seconds", "1", "--trace", str(trace), "--prpart",
               self.prpart, "--workdir",
               os.path.join(run.BUILD_ROOT, "runs")]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        self.assertEqual(out.returncode, 0, out.stdout)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertRegex(m["name"], NAME)
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        return result

    def test_untraced_result_line(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                result = self.check_result(w, 0, self.spec["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_result_line(self):
        cold = self.check_result("cold_sweep", 1, self.spec["per_layer"])
        m = {k: v["value"] for k, v in cold["metrics"].items()}
        self.assertGreater(m["core.calls"], 0)
        self.assertEqual(m["floorplan.calls"], 0)
        self.assertEqual(m["sim.calls"], 0)
        warm = self.check_result("warm_hits", 1, self.spec["per_layer"])
        m = {k: v["value"] for k, v in warm["metrics"].items()}
        self.assertEqual(m["core.calls"], 0)
        self.assertEqual(m["core.search.move_evaluations"], 0)
        self.assertEqual(m["server.cache_hit_ratio"], 1)


if __name__ == "__main__":
    unittest.main()
