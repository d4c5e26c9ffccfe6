#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/check_bench.py

Runs every workload of the program (tenants too, which BENCHMARK.json
does not list) at a small op count and checks that
  * the metric names and units printed match BENCHMARK.json, untraced and
    traced;
  * every traced copy of a runner loop reproduces sim::run_* (the program
    fails its output check otherwise) and the traced work counts repeat
    exactly between two invocations at one seed;
  * a deliberately corrupted reference drives fail_frac above 0 and gives a
    non-zero exit;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["fig4", "tenants", "drain", "serve"]
SMALL = ["--seconds", "0.3", "--scale", "0.1"]


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args, cwd=ROOT, runner=RUN):
    proc = subprocess.run([sys.executable, runner, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = bench_spec()
        cls.workloads = [w["name"] for w in spec["workloads"]]
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    def test_spec_workloads_are_run(self):
        self.assertTrue(self.workloads)
        self.assertLessEqual(set(self.workloads), set(WORKLOADS))

    def check_run(self, workload, trace, want):
        proc, result = run("--workload", workload, "--trace", str(trace),
                           "--seed", "3", *SMALL)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr)
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        return result

    def test_end_to_end_names_and_values(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result = self.check_run(w, 0, self.end_to_end)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_copies_match_and_counts_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = self.check_run(w, 1, self.per_layer)["metrics"]
                b = self.check_run(w, 1, self.per_layer)["metrics"]
                for name in a:
                    if name.endswith(".calls_per_op"):
                        self.assertEqual(a[name]["value"], b[name]["value"],
                                         name)

    def test_corrupted_reference_fails(self):
        for w in WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=w, trace=trace):
                    proc, result = run("--workload", w, "--trace", trace,
                                       "--corrupt-reference", *SMALL)
                    self.assertNotEqual(proc.returncode, 0)
                    self.assertIsNotNone(result)
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)
                    self.assertIn("# output check failed", proc.stdout)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, result = run("--workload", "fig4", "--seconds", "1",
                               cwd=bare,
                               runner=os.path.join(bare, "perfbench",
                                                   "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
