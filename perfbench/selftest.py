"""Self-test of the benchmark at tiny sizes (the determinism-test configs).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, in
both modes, and that the output check fails a run with a tampered output, a
wrong value, a non-zero exit or missing program sources.  Takes about a minute.
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run
from workloads import WORKLOADS, read_values, reference_errors, sanity_errors

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


class MetricNames(unittest.TestCase):
    def check_mode(self, trace: str, declared: list[dict]) -> dict:
        proc = bench("--workload", "all", "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--size", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 2 * len(WORKLOADS))
        expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in declared}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(emitted, expected)
        for name, metric in result["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)
        self.assertIn("fail_rate 0 ratio", proc.stdout)
        return result["metrics"]

    def test_end_to_end_metrics(self):
        self.check_mode("0", SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        metrics = self.check_mode("1", SPEC["per_layer"])
        for workload in WORKLOADS:
            spans = sum(m["value"] for name, m in metrics.items()
                        if name.startswith(f"{workload}.") and name.endswith(".self_s"))
            self.assertAlmostEqual(spans, metrics[f"{workload}.trace.wall_s"]["value"],
                                   places=9)


class OutputCheck(unittest.TestCase):
    def setUp(self):
        run.RUNS_DIR.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=run.RUNS_DIR))
        self.addCleanup(shutil.rmtree, self.tmp)

    def rep(self, workload: str, expected=None, tag: str = "a") -> run.Rep:
        return run.run_rep(workload, 5, "tiny", 1, False, self.tmp / tag,
                           time.perf_counter() + 120, expected)

    def test_reference_tolerance(self):
        first = self.rep("heatmap")
        self.assertEqual(first.errors, [])
        case = WORKLOADS["heatmap"][0]
        values = read_values(case, self.tmp / "a" / "case0" / "out")
        ulp_moved = [v * (1 + 1e-12) for v in values]
        self.assertEqual(self.rep("heatmap", [ulp_moved], "b").errors, [])
        wrong = list(values)
        wrong[-1] *= 1.001
        self.assertTrue(self.rep("heatmap", [wrong], "c").errors)
        self.assertTrue(reference_errors(case, values[:-1], values))

    def test_tampered_output_file(self):
        first, second = self.rep("verify"), self.rep("verify", tag="b")
        name = sorted(second.outputs)[0]
        second.outputs[name] = second.outputs[name].replace(b"\n", b"\n0", 1)
        run.check_identity([first, second])
        self.assertEqual(first.errors, [])
        self.assertTrue(any("differs between runs" in e for e in second.errors))

    def test_sanity(self):
        case = WORKLOADS["rates"][0]
        self.assertEqual(sanity_errors(case, [0.1, 0.05]), [])
        for bad in ([], [math.nan], [0.0], [-1.0], [math.inf]):
            self.assertTrue(sanity_errors(case, bad), bad)
        verify = WORKLOADS["verify"][0]
        self.assertEqual(sanity_errors(verify, [0.0, 2.0, 0.1, 0.3]), [])
        self.assertTrue(sanity_errors(verify, [0.5, 2.0, 0.1, 0.3]))
        self.assertTrue(sanity_errors(verify, [0.0, 2.0, 0.0, 0.3]))

    def test_nonzero_exit(self):
        broken = dataclasses.replace(WORKLOADS["verify"][0], tiny_config={"no_such_key": 1})
        WORKLOADS["broken"] = (broken,)
        self.addCleanup(WORKLOADS.pop, "broken")
        self.assertTrue(any("exited 3" in e for e in self.rep("broken").errors))

    def test_missing_sources(self):
        shutil.copytree(run.HERE, self.tmp / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", self.tmp)
        proc = bench("--workload", "rates", "--seed", "0", "--seconds", "1", cwd=self.tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
