#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Runs the small, fast mode (--quick) of every workload, with tracing off and
on, through run.py, so the correctness checks and the metric plumbing are
exercised without a full-length run:

    python3 perfbench/test_perfbench.py
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900)


def quick(workload, trace, seed=7):
    result = run("--workload", workload, "--seed", str(seed), "--seconds",
                 "1", "--trace", trace, "--quick")
    return result, json.loads(result.stdout.strip().splitlines()[-1])


class QuickWorkloadTest(unittest.TestCase):

    def test_every_workload_runs_clean_and_reports_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    process, result = quick(workload, trace)
                    self.assertEqual(process.returncode, 0, process.stderr)
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], process.stderr)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics),
                                     {m["name"] for m in SPEC[key]})
                    for m in SPEC[key]:
                        value = metrics[m["name"]]
                        self.assertEqual(value["unit"], m["unit"])
                        self.assertTrue(math.isfinite(value["value"]))
                        # End-to-end metrics are never 0.
                        if trace == "0":
                            self.assertGreater(value["value"], 0, m["name"])
                        elif m["name"] != "unattributed_pct":
                            # A difference of two timings; it may dip
                            # below 0 on a short run.
                            self.assertGreaterEqual(value["value"], 0,
                                                    m["name"])

    def test_same_seed_gives_same_inputs(self):
        _, first = quick("stream_serve", "0", seed=11)
        _, again = quick("stream_serve", "0", seed=11)
        _, other = quick("stream_serve", "0", seed=12)
        sizes = lambda r: (r["attempted"], r["metrics"]["rkb_bytes"]["value"])
        self.assertEqual(sizes(first), sizes(again))
        self.assertNotEqual(sizes(first), sizes(other))

    def test_rejects_unknown_workload_without_a_result(self):
        process = run("--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
        self.assertNotEqual(process.returncode, 0)
        self.assertEqual(process.stdout, "")


if __name__ == "__main__":
    unittest.main()
