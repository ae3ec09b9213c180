"""Tests of the benchmark itself, at the tiny scale.

    python3 -m unittest discover -s perfbench/tests

Run from the repository root. The first test builds the program.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    assert len(keys) == len(set(keys)), f"duplicate keys: {keys}"
    return dict(pairs)


class BenchmarkTest(unittest.TestCase):
    def test_declared_names_are_unique(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        # `flood` runs by hand but is not declared: see perfbench/README.md.
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, {"sweep", "testnet"})

    def check_output(self, workload, trace):
        out = run(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1], object_pairs_hook=no_duplicates)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        lines = out.stdout.splitlines()
        for m in declared:
            printed = result["metrics"][m["name"]]
            self.assertEqual(printed["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed["value"], (int, float))
            if not trace:
                self.assertGreater(printed["value"], 0, m["name"])
            # The readable line, when the workload measures the metric,
            # carries the same unit.
            readable = [l for l in lines if l.startswith(f"metric {m['name']} = ")]
            self.assertLessEqual(len(readable), 1, m["name"])
            for line in readable:
                self.assertEqual(line.split()[4], m["unit"], line)
        return out.stdout

    def test_sweep(self):
        for trace in (0, 1):
            self.check_output("sweep", trace)

    def test_flood(self):
        for trace in (0, 1):
            self.check_output("flood", trace)

    def test_testnet(self):
        for trace in (0, 1):
            self.check_output("testnet", trace)

    def test_untraced_run_prints_the_per_arm_figures(self):
        stdout = self.check_output("flood", 0)
        for name, unit in [("failed_frac", "ratio"), ("flood_threaded_ms", "ms"),
                           ("flood_sim_ms", "ms")]:
            lines = [l for l in stdout.splitlines() if l.startswith(f"metric {name} = ")]
            self.assertEqual(len(lines), 1, name)
            self.assertIn(f" {unit} (", lines[0])

    def test_fails_without_the_program(self):
        alone = os.path.join(ROOT, ".bench_out", f"standalone-{os.getpid()}")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(alone, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run("sweep", 0, cwd=alone, script=os.path.join(alone, "perfbench", "run.py"))
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
