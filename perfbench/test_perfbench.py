#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build the benchmark against this checkout (as run.py does), check that
every workload passes its correctness gate and emits every metric
BENCHMARK.json names in both modes, that the pinned instruction counts still
hold, and that it refuses to report anything when the cicmon sources are
missing. About half a minute on four cores once built.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def bench(*args, cwd=run.ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=300)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class BenchmarkContract(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(BENCHMARK), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual(BENCHMARK["paths"], ["perfbench"])
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))
        names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in BENCHMARK["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
            self.assertEqual(run.E2E_UNITS[metric["name"]], metric["unit"])
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in BENCHMARK["end_to_end"]))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    def test_end_to_end_emits_every_metric(self):
        # Every workload at the default seed, so a stale pin in expected.json
        # shows up as a failed operation.
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, stdout, stderr = bench("--workload", workload, "--seed",
                                             str(run.DEFAULT_SEED), "--seconds", "1",
                                             "--trace", "0")
                self.assertEqual(code, 0, stderr)
                result = last_json(stdout)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], stderr)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in BENCHMARK["end_to_end"]})
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                self.assertIn("fail_frac = 0 ratio", stdout)
                self.assertIn("timed passes = %d of %d" % (run.MIN_PASSES, run.MIN_PASSES),
                              stdout)

    def test_reference_interpreter_gate_at_another_seed(self):
        code, stdout, stderr = bench("--workload", "fleet-dispatch", "--seed", "11",
                                     "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 0, stderr)
        result = last_json(stdout)
        self.assertTrue(result["correct"], stderr)
        self.assertEqual(result["failed"], 0)

    def test_traced_run_emits_every_per_layer_metric(self):
        code, stdout, stderr = bench("--workload", "campaign-restore", "--seed", "5",
                                     "--seconds", "1", "--trace", "1")
        self.assertEqual(code, 0, stderr)
        result = last_json(stdout)
        self.assertTrue(result["correct"], stderr)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in BENCHMARK["per_layer"]})
        units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
        self.assertNotIn("absent:", stdout)
        spans_path = os.path.join(run.ROOT, re.search(r"^spans: (\S+)$", stdout, re.M).group(1))
        with open(spans_path) as f:
            records = [json.loads(line) for line in f]
        spans = [r for r in records if r["type"] == "span"]
        ids = {s["id"] for s in spans}
        self.assertEqual(len({s["run"] for s in spans}), 1)
        self.assertTrue(all(s["parent"] == 0 or s["parent"] in ids for s in spans))
        self.assertTrue(all(s["end_ns"] >= s["start_ns"] for s in spans))
        self.assertTrue(any(r["type"] == "self" and r["name"] == "fault.trial" for r in records))

    def test_pinned_instruction_counts_hold(self):
        _, layers = run.build()
        pinned = run.load_expected()
        proc = subprocess.run([layers, "instructions", "--scale", run.PAPER_SCALE],
                              stdout=subprocess.PIPE, check=True)
        self.assertEqual(json.loads(proc.stdout)["instructions_per_kernel_pass"],
                         pinned["instructions_per_kernel_pass"])
        campaign_workloads = [w for w, spec in run.WORKLOADS.items() if "campaigns" in spec]
        self.assertEqual(sorted(pinned["executed_instructions"]), sorted(campaign_workloads))
        for workload in campaign_workloads:
            self.assertEqual(run.executed_instructions(layers, workload, run.DEFAULT_SEED),
                             pinned["executed_instructions"][workload], workload)

    def test_refuses_without_sources(self):
        bare = os.path.join(run.OUT_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        try:
            code, stdout, _ = bench("--workload", "paper-sweeps", "--seed", "1", "--seconds", "1",
                                    "--trace", "0", cwd=bare,
                                    script=os.path.join(bare, "perfbench", "run.py"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertNotIn('"metrics"', stdout)


if __name__ == "__main__":
    unittest.main()
