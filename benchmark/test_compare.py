#!/usr/bin/env python3
"""Unit tests of compare.py on synthetic reports.

  python3 benchmark/test_compare.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "deals_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
        {"name": "call_ms_p50", "unit": "ms", "better": "lower",
         "bound": 0.1},
    ],
    "per_layer": [
        {"name": "crypto.sign.calls", "unit": "count", "better": "lower"},
        {"name": "crypto.sign.us", "unit": "us", "better": "lower"},
    ],
}

# Ten runs whose values wobble by about +-1% around the median.
WOBBLE = [0.99, 1.01, 1.0, 0.995, 1.005, 0.992, 1.008, 1.003, 0.997, 1.0]


def write_runs(directory, workload, trace, metrics_per_seed):
    for seed, metrics in enumerate(metrics_per_seed, start=1):
        report = {"workload": workload, "seed": seed, "trace": trace,
                  "result": {"metrics": {
                      name: {"value": value, "unit": "x"}
                      for name, value in metrics.items()}}}
        path = os.path.join(directory, "%s-seed%d-trace%d.json" % (
            workload, seed, trace))
        with open(path, "w") as f:
            json.dump(report, f)


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.base = os.path.join(self.tmp.name, "base")
        self.new = os.path.join(self.tmp.name, "new")
        os.makedirs(self.base)
        os.makedirs(self.new)
        self.spec = os.path.join(self.tmp.name, "spec.json")
        with open(self.spec, "w") as f:
            json.dump(SPEC, f)

    def tearDown(self):
        self.tmp.cleanup()

    def run_compare(self):
        """Returns (exit code, {(workload, metric): verdict})."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = compare.main([self.base, self.new, "--spec", self.spec])
        verdicts = {}
        for line in out.getvalue().splitlines()[1:]:
            fields = line.split()
            verdicts[(fields[0], fields[1])] = fields[-1]
        return code, verdicts

    def write_e2e(self, directory, rate, latency):
        write_runs(directory, "bigd", 0, [
            {"deals_per_s": rate * w, "call_ms_p50": latency * w}
            for w in WOBBLE])

    def test_gain(self):
        self.write_e2e(self.base, 100.0, 50.0)
        self.write_e2e(self.new, 120.0, 40.0)
        code, verdicts = self.run_compare()
        self.assertEqual(code, 0)
        self.assertEqual(verdicts[("bigd", "deals_per_s")], "better")
        self.assertEqual(verdicts[("bigd", "call_ms_p50")], "better")

    def test_same(self):
        self.write_e2e(self.base, 100.0, 50.0)
        self.write_e2e(self.new, 100.5, 50.2)
        code, verdicts = self.run_compare()
        self.assertEqual(code, 0)
        self.assertEqual(verdicts[("bigd", "deals_per_s")], "same")
        self.assertEqual(verdicts[("bigd", "call_ms_p50")], "same")

    def test_regression(self):
        self.write_e2e(self.base, 100.0, 50.0)
        self.write_e2e(self.new, 80.0, 50.0)
        code, verdicts = self.run_compare()
        self.assertEqual(code, 1)
        self.assertEqual(verdicts[("bigd", "deals_per_s")], "worse")
        self.assertEqual(verdicts[("bigd", "call_ms_p50")], "same")

    def test_unresolved_by_spread(self):
        # BASE's runs spread +-30%, wider than the 10% bound, so a 5% drop in
        # the median can neither be called a regression nor no change.
        noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
        write_runs(self.base, "bigd", 0, [
            {"deals_per_s": 100.0 * w, "call_ms_p50": 50.0} for w in noisy])
        write_runs(self.new, "bigd", 0, [
            {"deals_per_s": 95.0 * w, "call_ms_p50": 50.0} for w in noisy])
        code, verdicts = self.run_compare()
        self.assertEqual(code, 0)
        self.assertEqual(verdicts[("bigd", "deals_per_s")], "unresolved")

    def test_exact_count_change(self):
        write_runs(self.base, "bigd", 1, [
            {"crypto.sign.calls": 1000.0 + seed, "crypto.sign.us": 70.0}
            for seed in range(10)])
        changed = [{"crypto.sign.calls": 1000.0 + seed, "crypto.sign.us": 35.0}
                   for seed in range(10)]
        changed[3]["crypto.sign.calls"] += 1
        write_runs(self.new, "bigd", 1, changed)
        code, verdicts = self.run_compare()
        self.assertEqual(code, 1)
        self.assertEqual(verdicts[("bigd", "crypto.sign.calls")], "changed")
        self.assertEqual(verdicts[("bigd", "crypto.sign.us")], "-")

    def test_missing_reports(self):
        self.write_e2e(self.base, 100.0, 50.0)
        with contextlib.redirect_stderr(io.StringIO()):
            code, _ = self.run_compare()
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
