#!/usr/bin/env python3
"""The benchmark's own tests, at tiny sizes; they finish in well under a minute.

    python3 -m unittest discover -s perfbench/tests -v

They build the runner through perfbench/run.py (as the benchmark does) and
check that every metric prints with its name and unit, that the traced and
untraced runs report the same deterministic counts, that a corrupted
expected value fails the correctness gate, and that a checkout without the
dynreg sources exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = run.WORKLOADS
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def runner(workload, trace, *extra):
    proc = subprocess.run(
        [str(run.build()), "--workload", workload, "--seed", "1", "--trace", str(trace),
         "--size", "tiny", *extra],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Metrics(unittest.TestCase):
    def test_every_metric_prints_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    result = bench(w, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()}, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                        if trace == 0:
                            self.assertGreater(m["value"], 0, name)


class TracedRun(unittest.TestCase):
    def test_traced_counts_equal_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                plain = runner(w, 0)
                traced = runner(w, 1)
                self.assertEqual(plain["failures"], [])
                self.assertEqual(traced["failures"], [])
                self.assertEqual(traced["outputs"], plain["outputs"])
                self.assertEqual(traced["attempted"], plain["attempted"])
                self.assertEqual(traced["failed"], plain["failed"])
                out, m = plain["outputs"], traced["metrics"]
                if w == "fault_search":
                    self.assertEqual(m["replay.variants"], out["search.executed"])
                    self.assertEqual(m["consistency.violations"], out["search.violating"])
                    continue
                self.assertEqual(m["client.ops_completed"],
                                 out["ops.reads_completed"] + out["ops.writes_completed"])
                self.assertEqual(m["churn.joins_completed"], out["joins.completed"])
                self.assertEqual(m["consistency.reads_checked"], out["consistency.reads_checked"])
                for name, value in out.items():
                    if name.startswith("msgs."):
                        self.assertEqual(m["net.delivered." + name[5:]], value, name)

    def test_composed_variants_equal_run_experiment_with_hooks(self):
        # At the tiny size each traced variant world is also run through
        # run_experiment with the same replay hook; the runner reports any
        # difference.
        traced = runner("fault_search", 1)
        self.assertEqual(traced["failures"], [])

    def test_trace_file_holds_spans_and_metrics(self):
        runner("quorum_scale", 1, "--trace-out", str(run.build_dir() / "test-trace.json"))
        doc = json.loads((run.build_dir() / "test-trace.json").read_text())
        names = {s["name"] for s in doc["spans"]}
        self.assertTrue({"harness.build", "churn.bootstrap", "sim.run",
                         "harness.report", "consistency.check"} <= names)
        self.assertIn("sim.events", doc["metrics"])


class CorrectnessGate(unittest.TestCase):
    def test_corrupted_expected_value_fails_the_run(self):
        expected = json.loads((BENCH / "expected.json").read_text())
        outputs = expected["tiny"]["churn_sessions"]["outputs"]
        outputs["joins.completed"] += 1
        corrupt = run.build_dir() / "expected-corrupt.json"
        corrupt.write_text(json.dumps(expected))
        result = bench("churn_sessions", 0, "--expected", str(corrupt))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_stored_expected_values_pass(self):
        self.assertTrue(bench("fault_search", 0)["correct"])

    def test_checkout_without_sources_exits_nonzero(self):
        bare = run.build_dir() / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "quorum_scale", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
