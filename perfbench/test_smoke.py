#!/usr/bin/env python3
"""Smoke test of the benchmark itself (not of timings).

    python3 perfbench/test_smoke.py

Runs every workload on a tiny graph, untraced and traced, and checks the
output schema against BENCHMARK.json: exactly the declared metric names
with their units, end-to-end values non-zero, every answer correct. Also
checks that the benchmark refuses to run without the repository sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    spec = load_spec()

    def check(self, workload, trace):
        result = run(workload, trace)
        self.assertEqual(result.returncode, 0, result.stderr[-2000:])
        last = json.loads(result.stdout.strip().split("\n")[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"], result.stdout[-2000:])
        self.assertEqual(last["failed"], 0)
        self.assertGreaterEqual(last["attempted"], 1)
        declared = self.spec["per_layer" if trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in last["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in last["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)
        if trace:
            self.assertEqual(last["metrics"]["trace.dropped_events"]["value"], 0)
            self.assertIn('{"ledger": ', result.stdout)
        self.assertIn('{"provenance": ', result.stdout)

    def test_workloads(self):
        for w in self.spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_refuses_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_work")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            result = run(self.spec["workloads"][0]["name"], 0, cwd=tmp)
            self.assertNotEqual(result.returncode, 0)
            self.assertNotIn('"correct"', result.stdout)


if __name__ == "__main__":
    unittest.main()
