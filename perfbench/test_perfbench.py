#!/usr/bin/env python3
"""The benchmark's own test, on the smoke scale (seconds per run).

    python3 perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is printed with its unit on
both workloads, that the traced run's replay reproduces Session, attributes
at least 90% of its time and writes its Chrome trace, that a deliberately
wrong reference is caught, and that the benchmark refuses to run without
the source tree.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    out = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return out


def parse(out):
    lines = out.stdout.splitlines()
    rows = [json.loads(line) for line in lines]
    return rows[-1], {r.get("row"): r for r in rows[:-1] if "row" in r}, rows


class PerfbenchTest(unittest.TestCase):
    def check_metrics(self, result, names):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in names}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], want[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics(self):
        for workload in ("table3", "bulk"):
            with self.subTest(workload=workload):
                out = run(workload, 0)
                self.assertEqual(out.returncode, 0, out.stderr)
                result, records, rows = parse(out)
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                for name in ("setup_s", "migrate_records_per_s", "migrate_p50_ms"):
                    self.assertGreater(result["metrics"][name]["value"], 0, name)
                self.assertEqual(len([r for r in rows if r.get("row") == "scenario"]), 28)
                self.assertIn("effective_parallelism", records["host"])
                # Timings are scaled to the reference speed; the record keeps
                # them unscaled.
                record = records["run"]
                self.assertGreater(record["probes"], 0)
                self.assertGreater(record["speed_scale"], 0)
                unscaled = record["unscaled"]["migrate_p50_ms"]["value"]
                self.assertAlmostEqual(result["metrics"]["migrate_p50_ms"]["value"],
                                       unscaled * record["speed_scale"], delta=1e-9 * unscaled)

    def test_traced_replay_agrees(self):
        for workload in ("table3", "bulk"):
            with self.subTest(workload=workload):
                out = run(workload, 1)
                self.assertEqual(out.returncode, 0, out.stderr)
                result, records, _ = parse(out)
                self.check_metrics(result, SPEC["per_layer"])
                self.assertTrue(result["correct"])
                self.assertTrue(records["run"]["replay_agrees"], records["run"])
                metrics = result["metrics"]
                self.assertLess(metrics["api.unattributed_ratio"]["value"], 0.10)
                self.assertGreater(metrics["synth.iterations"]["value"], 0)
                self.assertEqual(metrics["solver.solves"]["value"],
                                 metrics["synth.iterations"]["value"])
                # The replay's layer spans and the program's own spans.
                with open(records["run"]["trace_file"]) as f:
                    names = {e.get("name") for e in json.load(f)["traceEvents"]}
                self.assertIn("perfbench.migrate.to_facts", names)
                self.assertIn("engine.eval", names)

    def test_wrong_reference_is_caught(self):
        for workload in ("table3", "bulk"):
            with self.subTest(workload=workload):
                out = run(workload, 0, "--corrupt-reference")
                self.assertEqual(out.returncode, 0, out.stderr)
                result, _, _ = parse(out)
                self.assertFalse(result["correct"])

    def test_refuses_without_source_tree(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run("bulk", 0, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
