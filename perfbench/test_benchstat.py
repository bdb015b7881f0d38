"""Tests of the benchmark's statistics, verdict and failure rules.

    python3 -m unittest discover -s perfbench
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstat  # noqa: E402


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(benchstat.quartiles(values), (q[0], q[2]))
        self.assertEqual(benchstat.median(values), 5.5)

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(benchstat.quartiles([2.5]), (2.5, 2.5))
        self.assertEqual(benchstat.spread([2.5]), 0.0)

    def test_spread_is_share_of_median(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, q3 = benchstat.quartiles(values)
        self.assertAlmostEqual(benchstat.spread(values), (q3 - q1) / 10.0)


class VerdictTest(unittest.TestCase):
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]

    def test_clear_gain_is_improved(self):
        child = [v * 0.8 for v in self.parent]
        self.assertEqual(benchstat.verdict(self.parent, child, "lower", 0.1),
                         "improved")

    def test_gain_direction_follows_better(self):
        child = [v * 1.2 for v in self.parent]
        self.assertEqual(benchstat.verdict(self.parent, child, "higher", 0.1),
                         "improved")
        self.assertEqual(benchstat.verdict(self.parent, child, "lower", 0.1),
                         "regressed")

    def test_worse_by_more_than_bound_is_regressed(self):
        child = [v * 1.15 for v in self.parent]
        self.assertEqual(benchstat.verdict(self.parent, child, "lower", 0.1),
                         "regressed")

    def test_worse_within_bound_is_unchanged(self):
        child = [v * 1.05 for v in self.parent]
        self.assertEqual(benchstat.verdict(self.parent, child, "lower", 0.1),
                         "unchanged")

    def test_too_few_wins_is_not_improved(self):
        # The child's median is lower, but it wins only 8 of 10 pairs.
        child = [v * 0.8 for v in self.parent[:8]] + [11.0, 11.0]
        self.assertNotEqual(
            benchstat.verdict(self.parent, child, "lower", 0.1), "improved")

    def test_gap_inside_parent_spread_is_not_improved(self):
        parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
        child = [v - 0.3 for v in parent]
        self.assertEqual(benchstat.verdict(parent, child, "lower", 0.25),
                         "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
        child = list(reversed(parent))
        self.assertEqual(benchstat.verdict(parent, child, "lower", 0.1),
                         "unresolved")

    def test_wide_spread_but_every_child_run_better_is_not_unresolved(self):
        parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
        child = [v - 5.0 for v in parent]
        self.assertEqual(benchstat.verdict(parent, child, "lower", 0.1),
                         "improved")

    def test_rejects_unknown_direction(self):
        with self.assertRaises(ValueError):
            benchstat.verdict([1.0], [1.0], "smaller", 0.1)


class AlternatedTest(unittest.TestCase):
    def test_taking_turns_is_alternated(self):
        self.assertTrue(benchstat.alternated([1.0, 3.0, 5.0], [2.0, 4.0, 6.0]))
        self.assertTrue(benchstat.alternated([2.0, 4.0], [1.0, 3.0]))

    def test_one_block_after_the_other_is_not(self):
        self.assertFalse(benchstat.alternated([1.0, 2.0], [3.0, 4.0]))

    def test_missing_start_time_is_not(self):
        self.assertFalse(benchstat.alternated([1.0, None], [2.0, 3.0]))


def make_pass(fps, traced=False, ok=None):
    ok = ok or [True] * len(fps)
    return {"traced": traced,
            "cells": [{"key": f"cell{i}", "fp": fp, "ok": good}
                      for i, (fp, good) in enumerate(zip(fps, ok))]}


class CountFailedTest(unittest.TestCase):
    def test_identical_passes_fail_nothing(self):
        passes = [make_pass(["a", "b"]), make_pass(["a", "b"], traced=True)]
        self.assertEqual(benchstat.count_failed(passes)[:2], (4, 0))

    def test_fingerprint_mismatch_means_failed(self):
        passes = [make_pass(["a", "b"]), make_pass(["a", "x"], traced=True),
                  make_pass(["a", "b"])]
        attempted, failed, messages = benchstat.count_failed(passes)
        self.assertEqual((attempted, failed), (6, 1))
        self.assertIn("pass 1 cell cell1", messages[0])

    def test_cell_marked_failed_by_driver_counts(self):
        passes = [make_pass(["a", "b"], ok=[True, False])]
        self.assertEqual(benchstat.count_failed(passes)[:2], (2, 1))

    def test_cell_missing_from_reference_counts(self):
        passes = [make_pass(["a"]), make_pass(["a", "b"])]
        self.assertEqual(benchstat.count_failed(passes)[:2], (3, 1))


if __name__ == "__main__":
    unittest.main()
