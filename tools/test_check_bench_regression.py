#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py — the ±15% bench gate.

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


def gb(name, **counters):
    """One google-benchmark iteration entry."""
    entry = {"name": name, "run_type": "iteration"}
    entry.update(counters)
    return entry


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = self._tmp.name
        self.addCleanup(self._tmp.cleanup)

    # --- google-benchmark ("benchmarks") schema ---

    def test_rate_within_tolerance_passes(self):
        base = {"benchmarks": [gb("BM_Loop", events_per_sec=1000.0)]}
        cur = {"benchmarks": [gb("BM_Loop", events_per_sec=900.0)]}
        self.assertEqual(run_gate(self.tmp, base, cur), 0)

    def test_rate_drop_beyond_tolerance_fails(self):
        base = {"benchmarks": [gb("BM_Loop", events_per_sec=1000.0)]}
        cur = {"benchmarks": [gb("BM_Loop", events_per_sec=700.0)]}
        self.assertEqual(run_gate(self.tmp, base, cur), 1)

    def test_rate_improvement_never_fails(self):
        base = {"benchmarks": [gb("BM_Loop", events_per_sec=1000.0)]}
        cur = {"benchmarks": [gb("BM_Loop", events_per_sec=5000.0)]}
        self.assertEqual(run_gate(self.tmp, base, cur), 0)

    def test_repetitions_are_averaged_not_last_wins(self):
        # Mean of (700, 1100) = 900 is within 15% of 1000; the last
        # repetition alone (1100) and the first alone (700) are not both.
        base = {"benchmarks": [gb("BM_Loop", events_per_sec=1000.0)]}
        cur = {"benchmarks": [gb("BM_Loop", events_per_sec=700.0),
                              gb("BM_Loop", events_per_sec=1100.0)]}
        self.assertEqual(run_gate(self.tmp, base, cur), 0)

    def test_aggregate_entries_are_ignored(self):
        base = {"benchmarks": [gb("BM_Loop", events_per_sec=1000.0)]}
        cur = {"benchmarks": [
            gb("BM_Loop", events_per_sec=1000.0),
            {"name": "BM_Loop", "run_type": "aggregate",
             "events_per_sec": 1.0}]}
        self.assertEqual(run_gate(self.tmp, base, cur), 0)

    # --- rows/mega sweep schema ---

    def test_rows_pair_by_identity_despite_reordering(self):
        base = {"rows": [
            {"nodes": 1, "events_per_sec": 100.0},
            {"nodes": 1024, "events_per_sec": 900.0}]}
        cur = {"rows": [
            {"nodes": 1024, "events_per_sec": 910.0},
            {"nodes": 1, "events_per_sec": 101.0}]}
        self.assertEqual(run_gate(self.tmp, base, cur), 0)

    def test_rows_regression_is_attributed_to_the_right_row(self):
        base = {"rows": [
            {"nodes": 1, "events_per_sec": 100.0},
            {"nodes": 1024, "events_per_sec": 900.0}]}
        cur = {"rows": [
            {"nodes": 1024, "events_per_sec": 900.0},
            {"nodes": 1, "events_per_sec": 10.0}]}
        self.assertEqual(run_gate(self.tmp, base, cur), 1)

    def test_mega_object_is_compared(self):
        base = {"rows": [{"nodes": 1, "events_per_sec": 100.0}],
                "mega": {"nodes": 50000, "epochs": 52,
                         "events_per_sec": 1000.0}}
        cur = {"rows": [{"nodes": 1, "events_per_sec": 100.0}],
               "mega": {"nodes": 50000, "epochs": 52,
                        "events_per_sec": 100.0}}
        self.assertEqual(run_gate(self.tmp, base, cur), 1)

    def test_missing_row_in_current_fails(self):
        base = {"rows": [{"nodes": 1, "events_per_sec": 100.0},
                         {"nodes": 2, "events_per_sec": 100.0}]}
        cur = {"rows": [{"nodes": 1, "events_per_sec": 100.0}]}
        self.assertEqual(run_gate(self.tmp, base, cur), 1)

    # --- empty / broken artifacts exit 2, never pass vacuously ---

    def test_empty_baseline_exits_2(self):
        base = {"benchmarks": []}
        cur = {"benchmarks": [gb("BM_Loop", events_per_sec=1.0)]}
        self.assertEqual(run_gate(self.tmp, base, cur), 2)

    def test_baseline_without_counter_suffixes_exits_2(self):
        # Fields exist but none carry a _per_sec/_per_event/_mib suffix:
        # the rows-schema regression the PR 7 rework fixed.
        base = {"rows": [{"nodes": 1, "wall_s": 3.5}]}
        cur = {"rows": [{"nodes": 1, "wall_s": 3.5}]}
        self.assertEqual(run_gate(self.tmp, base, cur), 2)

    def test_empty_current_exits_2(self):
        base = {"benchmarks": [gb("BM_Loop", events_per_sec=1.0)]}
        cur = {"benchmarks": []}
        self.assertEqual(run_gate(self.tmp, base, cur), 2)

    def test_unreadable_baseline_exits_2(self):
        cur_path = os.path.join(self.tmp, "cur.json")
        with open(cur_path, "w", encoding="utf-8") as fh:
            json.dump({"benchmarks": [gb("B", x_per_sec=1.0)]}, fh)
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

    # --- _mib memory counters fail upward only ---

    def test_mib_growth_beyond_tolerance_fails(self):
        base = {"mega": {"nodes": 5, "rss_peak_mib": 40.0}}
        cur = {"mega": {"nodes": 5, "rss_peak_mib": 60.0}}
        self.assertEqual(run_gate(self.tmp, base, cur), 1)

    def test_mib_shrink_is_an_improvement_not_a_failure(self):
        base = {"mega": {"nodes": 5, "rss_peak_mib": 40.0}}
        cur = {"mega": {"nodes": 5, "rss_peak_mib": 10.0}}
        self.assertEqual(run_gate(self.tmp, base, cur), 0)

    # --- _per_event alloc counters: zero is a contract, not a number ---

    def test_alloc_zero_to_nonzero_fails(self):
        base = {"benchmarks": [gb("BM_Loop", allocs_per_event=0.0)]}
        cur = {"benchmarks": [gb("BM_Loop", allocs_per_event=0.001)]}
        self.assertEqual(run_gate(self.tmp, base, cur), 1)

    def test_alloc_zero_stays_zero_passes(self):
        base = {"benchmarks": [gb("BM_Loop", allocs_per_event=0.0)]}
        cur = {"benchmarks": [gb("BM_Loop", allocs_per_event=0.0)]}
        self.assertEqual(run_gate(self.tmp, base, cur), 0)

    # --- *regret* counters fail upward on an absolute-or-relative slack ---

    @staticmethod
    def regret_row(scenario, policy, cumulative, mean):
        return {"scenario": scenario, "policy": policy, "epochs": 28,
                "cumulative_regret_s": cumulative, "mean_regret_s": mean,
                "mean_zeta_s": 30.0, "opt_mean_zeta_s": 50.0}

    def test_regret_growth_beyond_tolerance_fails(self):
        base = {"rows": [self.regret_row("migrating-peaks", "ucb",
                                         1000.0, 35.7)]}
        cur = {"rows": [self.regret_row("migrating-peaks", "ucb",
                                        1200.0, 42.9)]}
        self.assertEqual(run_gate(self.tmp, base, cur, tolerance=0.10), 1)

    def test_regret_drop_is_an_improvement_not_a_failure(self):
        base = {"rows": [self.regret_row("migrating-peaks", "ucb",
                                         1200.0, 42.9)]}
        cur = {"rows": [self.regret_row("migrating-peaks", "ucb",
                                        600.0, 21.4)]}
        self.assertEqual(run_gate(self.tmp, base, cur, tolerance=0.10), 0)

    def test_regret_rows_pair_by_scenario_and_policy(self):
        # Same counters, swapped across policies: the ucb row regressed
        # even though the artifact-wide totals are unchanged.
        base = {"rows": [self.regret_row("roadside", "naive", 800.0, 33.0),
                         self.regret_row("roadside", "ucb", 500.0, 21.0)]}
        cur = {"rows": [self.regret_row("roadside", "ucb", 800.0, 33.0),
                        self.regret_row("roadside", "naive", 500.0, 21.0)]}
        self.assertEqual(run_gate(self.tmp, base, cur, tolerance=0.10), 1)

    def test_regret_near_zero_baseline_uses_absolute_slack(self):
        # 0.1 s -> 0.9 s is a 9x ratio but well under the 1 s absolute
        # slack — simulator noise on an already-near-clairvoyant policy.
        base = {"rows": [self.regret_row("roadside", "ucb", 0.1, 0.004)]}
        cur = {"rows": [self.regret_row("roadside", "ucb", 0.9, 0.032)]}
        self.assertEqual(run_gate(self.tmp, base, cur, tolerance=0.10), 0)

    def test_regret_negative_baseline_gates_without_ratio(self):
        base = {"rows": [self.regret_row("roadside", "ucb", -5.0, -0.2)]}
        cur = {"rows": [self.regret_row("roadside", "ucb", 20.0, 0.7)]}
        self.assertEqual(run_gate(self.tmp, base, cur, tolerance=0.10), 1)

    def test_alloc_nonzero_baseline_tolerates_drift(self):
        # A baseline that already allocates is not the zero-alloc
        # contract; drift there is the rate gate's business, not this one.
        base = {"benchmarks": [gb("BM_Old", allocs_per_event=2.0)]}
        cur = {"benchmarks": [gb("BM_Old", allocs_per_event=3.0)]}
        self.assertEqual(run_gate(self.tmp, base, cur), 0)


if __name__ == "__main__":
    unittest.main()
