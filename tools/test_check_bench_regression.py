#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py — the regret gate.

Pytest-style test functions wrapped in a unittest.TestCase so the same
file runs under `pytest` and under `python3 -m unittest` (what the
ctest entry uses; the CI image does not guarantee pytest). Each test
builds baseline/current artifacts in a temp dir and asserts the exit
status of main(), i.e. exactly what CI observes.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_bench_regression as gate  # noqa: E402


def run_gate(tmp, baseline, current, tolerance=0.15):
    """Write the two artifacts, run main(), return its exit status."""
    base_path = os.path.join(tmp, "baseline.json")
    cur_path = os.path.join(tmp, "current.json")
    with open(base_path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh)
    with open(cur_path, "w", encoding="utf-8") as fh:
        json.dump(current, fh)
    argv = ["check_bench_regression.py", base_path, cur_path,
            "--tolerance", str(tolerance)]
    with mock.patch.object(sys, "argv", argv):
        try:
            return gate.main()
        except SystemExit as err:  # load_counters exits directly on IO error
            return err.code


def regret_row(scenario, policy, cumulative, mean=0.0):
    """One bench_regret row."""
    return {"scenario": scenario, "policy": policy, "epochs": 28,
            "cumulative_regret_s": cumulative, "mean_regret_s": mean,
            "mean_zeta_s": 30.0, "opt_mean_zeta_s": 50.0}


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = self._tmp.name
        self.addCleanup(self._tmp.cleanup)

    # --- rows pair by (scenario, policy, epochs) ---

    def test_rows_pair_by_identity_despite_reordering(self):
        base = {"rows": [regret_row("roadside", "naive", 100.0),
                         regret_row("roadside", "ucb", 900.0)]}
        cur = {"rows": [regret_row("roadside", "ucb", 910.0),
                        regret_row("roadside", "naive", 101.0)]}
        self.assertEqual(run_gate(self.tmp, base, cur), 0)

    def test_missing_row_in_current_fails(self):
        base = {"rows": [regret_row("roadside", "naive", 100.0),
                         regret_row("roadside", "ucb", 100.0)]}
        cur = {"rows": [regret_row("roadside", "naive", 100.0)]}
        self.assertEqual(run_gate(self.tmp, base, cur), 1)

    # --- empty / broken artifacts exit 2, never pass vacuously ---

    def test_empty_baseline_exits_2(self):
        base = {"rows": []}
        cur = {"rows": [regret_row("roadside", "ucb", 1.0)]}
        self.assertEqual(run_gate(self.tmp, base, cur), 2)

    def test_baseline_without_regret_counters_exits_2(self):
        # Rows exist but no field is a regret counter.
        base = {"rows": [{"scenario": "roadside", "mean_zeta_s": 3.5}]}
        cur = {"rows": [{"scenario": "roadside", "mean_zeta_s": 3.5}]}
        self.assertEqual(run_gate(self.tmp, base, cur), 2)

    def test_empty_current_exits_2(self):
        base = {"rows": [regret_row("roadside", "ucb", 1.0)]}
        cur = {"rows": []}
        self.assertEqual(run_gate(self.tmp, base, cur), 2)

    def test_unreadable_baseline_exits_2(self):
        cur_path = os.path.join(self.tmp, "cur.json")
        with open(cur_path, "w", encoding="utf-8") as fh:
            json.dump({"rows": [regret_row("roadside", "ucb", 1.0)]}, fh)
        argv = ["check_bench_regression.py",
                os.path.join(self.tmp, "does_not_exist.json"), cur_path]
        with mock.patch.object(sys, "argv", argv):
            with self.assertRaises(SystemExit) as ctx:
                gate.main()
        self.assertEqual(ctx.exception.code, 2)

    def test_missing_baseline_file_exits_2_from_the_command_line(self):
        # What a CI gate step sees when its baseline was never committed:
        # the process itself exits 2 and names the file, so the job fails
        # instead of passing vacuously.
        cur_path = os.path.join(self.tmp, "cur.json")
        with open(cur_path, "w", encoding="utf-8") as fh:
            json.dump({"rows": [{"scenario": "s", "policy": "p",
                                 "zeta_regret_s": 1.0}]}, fh)
        missing = os.path.join(self.tmp, "BENCH_resilience.json")
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "check_bench_regression.py")
        proc = subprocess.run(
            [sys.executable, script, missing, cur_path, "--tolerance", "0.10"],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 2)
        self.assertIn(missing, proc.stderr)

    def test_every_baseline_ci_gates_on_is_committed(self):
        # A gate whose baseline file is absent exits 2 on every run; this
        # pins that each baseline the workflow names exists in the tree.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        workflow = os.path.join(root, ".github", "workflows", "ci.yml")
        if not os.path.exists(workflow):
            self.skipTest("no CI workflow in this checkout")
        with open(workflow, encoding="utf-8") as fh:
            baselines = set(re.findall(r"bench/baselines/BENCH_\w+\.json",
                                       fh.read()))
        self.assertIn("bench/baselines/BENCH_resilience.json", baselines)
        for rel in sorted(baselines):
            self.assertTrue(os.path.exists(os.path.join(root, rel)), rel)

    # --- *regret* counters fail upward on an absolute-or-relative slack ---

    def test_regret_growth_beyond_tolerance_fails(self):
        base = {"rows": [regret_row("migrating-peaks", "ucb",
                                         1000.0, 35.7)]}
        cur = {"rows": [regret_row("migrating-peaks", "ucb",
                                        1200.0, 42.9)]}
        self.assertEqual(run_gate(self.tmp, base, cur, tolerance=0.10), 1)

    def test_regret_drop_is_an_improvement_not_a_failure(self):
        base = {"rows": [regret_row("migrating-peaks", "ucb",
                                         1200.0, 42.9)]}
        cur = {"rows": [regret_row("migrating-peaks", "ucb",
                                        600.0, 21.4)]}
        self.assertEqual(run_gate(self.tmp, base, cur, tolerance=0.10), 0)

    def test_regret_rows_pair_by_scenario_and_policy(self):
        # Same counters, swapped across policies: the ucb row regressed
        # even though the artifact-wide totals are unchanged.
        base = {"rows": [regret_row("roadside", "naive", 800.0, 33.0),
                         regret_row("roadside", "ucb", 500.0, 21.0)]}
        cur = {"rows": [regret_row("roadside", "ucb", 800.0, 33.0),
                        regret_row("roadside", "naive", 500.0, 21.0)]}
        self.assertEqual(run_gate(self.tmp, base, cur, tolerance=0.10), 1)

    def test_regret_near_zero_baseline_uses_absolute_slack(self):
        # 0.1 s -> 0.9 s is a 9x ratio but well under the 1 s absolute
        # slack — simulator noise on an already-near-clairvoyant policy.
        base = {"rows": [regret_row("roadside", "ucb", 0.1, 0.004)]}
        cur = {"rows": [regret_row("roadside", "ucb", 0.9, 0.032)]}
        self.assertEqual(run_gate(self.tmp, base, cur, tolerance=0.10), 0)

    def test_regret_negative_baseline_gates_without_ratio(self):
        base = {"rows": [regret_row("roadside", "ucb", -5.0, -0.2)]}
        cur = {"rows": [regret_row("roadside", "ucb", 20.0, 0.7)]}
        self.assertEqual(run_gate(self.tmp, base, cur, tolerance=0.10), 1)


if __name__ == "__main__":
    unittest.main()
