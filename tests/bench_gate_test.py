#!/usr/bin/env python3
"""Tests for tools/bench_gate.py, the bench baseline gate.

Coverage:

  * metrics derived from wall-clock rates (speedups, big-D scaling ratios)
    classify as `wall`, like the rates themselves;
  * the scheduler counters `events_executed` and `max_backlog` classify as
    `exact`, so `check` gates the number of events a run schedules;
  * every metric in the committed BENCH_baseline.json classifies as
    non-wall, so the baseline names no host-dependent number;
  * `rebaseline` of a small fresh report leaves every wall metric out and
    keeps the rest, and `check` of that report against the result passes.

CTest runs this via `python3 tests/bench_gate_test.py` (see CMakeLists.txt,
test name `bench_gate`); it needs only the stdlib.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_gate.py")
sys.path.insert(0, os.path.join(ROOT, "tools"))

from bench_gate import classify  # noqa: E402

WALL_NAMES = ["wall_ms", "deals_per_sec", "speedup", "bigd_scaling_ratio",
              "crypto_batch_speedup"]
KEPT_NAMES = ["committed", "commit_latency_p99", "bigd_goodput_per_ktick",
              "events_executed"]


class ClassifyTest(unittest.TestCase):
    def test_wall_rate_ratios_are_wall(self):
        self.assertEqual(classify("bigd_scaling_ratio"), "wall")
        self.assertEqual(classify("crypto_batch_speedup"), "wall")

    def test_scheduler_counters_are_exact(self):
        self.assertEqual(classify("events_executed"), "exact")
        self.assertEqual(classify("max_backlog"), "exact")

    def test_committed_baseline_has_no_wall_metric(self):
        with open(os.path.join(ROOT, "BENCH_baseline.json")) as f:
            baseline = json.load(f)
        wall = sorted({m["name"] for m in baseline["metrics"]
                       if classify(m["name"]) == "wall"})
        self.assertEqual(wall, [])


class RebaselineTest(unittest.TestCase):
    def test_rebaseline_leaves_wall_metrics_out(self):
        names = WALL_NAMES + KEPT_NAMES
        report = {"bench": "bench_fixture", "git_rev": "unknown",
                  "config": {},
                  "metrics": [{"name": name, "value": float(i + 1),
                               "labels": {"deals": "10"}}
                              for i, name in enumerate(names)]}
        with tempfile.TemporaryDirectory() as tmp:
            fresh = os.path.join(tmp, "BENCH_fixture.json")
            out = os.path.join(tmp, "baseline.json")
            with open(fresh, "w") as f:
                json.dump(report, f)
            subprocess.run([sys.executable, TOOL, "rebaseline", "--out", out,
                            fresh], check=True, capture_output=True)
            with open(out) as f:
                baseline = json.load(f)
            self.assertEqual(sorted(m["name"] for m in baseline["metrics"]),
                             sorted(KEPT_NAMES))
            check = subprocess.run([sys.executable, TOOL, "check",
                                    "--baseline", out, fresh],
                                   capture_output=True, text=True)
            self.assertEqual(check.returncode, 0, check.stdout)


if __name__ == "__main__":
    unittest.main()
