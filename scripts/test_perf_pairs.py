#!/usr/bin/env python3
"""Unit tests of perf_pairs.verdict, the paired-run gain rule.

Run from anywhere: python3 scripts/test_perf_pairs.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from perf_pairs import verdict  # noqa: E402

# Ten parent runs: median 100, quartiles 98.25 and 101.75 (IQR 3.5).
PARENT = [96.0, 97.0, 98.0, 99.0, 100.0, 100.0, 101.0, 102.0, 103.0, 104.0]


class VerdictTest(unittest.TestCase):
    def test_nine_of_ten_wins_passes(self):
        change = [80.0] * 9 + [110.0]
        v = verdict(PARENT, change, "lower")
        self.assertEqual((v["change_wins"], v["base_wins"], v["ties"]),
                         (9, 1, 0))
        self.assertTrue(v["gain_holds"])
        self.assertTrue(v["gap_exceeds_iqr"])

    def test_eight_of_ten_wins_fails(self):
        change = [80.0] * 8 + [110.0, 110.0]
        v = verdict(PARENT, change, "lower")
        self.assertEqual(v["change_wins"], 8)
        self.assertFalse(v["gain_holds"])

    def test_ties_count_for_neither_side(self):
        # A tie is no win: 9 wins and a tie pass, 8 wins and two ties
        # do not.
        change = [80.0] * 9 + [PARENT[9]]
        v = verdict(PARENT, change, "lower")
        self.assertEqual((v["change_wins"], v["base_wins"], v["ties"]),
                         (9, 0, 1))
        self.assertTrue(v["gain_holds"])
        change = [80.0] * 8 + PARENT[8:]
        v = verdict(PARENT, change, "lower")
        self.assertEqual((v["change_wins"], v["base_wins"], v["ties"]),
                         (8, 0, 2))
        self.assertFalse(v["gain_holds"])

    def test_gap_inside_the_iqr_fails(self):
        # Every pair won, but the median moved by 2, inside the IQR of 3.5.
        change = [x - 2.0 for x in PARENT]
        v = verdict(PARENT, change, "lower")
        self.assertEqual(v["change_wins"], 10)
        self.assertAlmostEqual(v["base_iqr"], 3.5)
        self.assertAlmostEqual(v["median_gain"], 2.0)
        self.assertFalse(v["gap_exceeds_iqr"])
        self.assertFalse(v["gain_holds"])

    def test_higher_is_better(self):
        change = [x + 20.0 for x in PARENT]
        v = verdict(PARENT, change, "higher")
        self.assertEqual(v["change_wins"], 10)
        self.assertTrue(v["gain_holds"])
        # The same numbers are a loss where lower is better.
        v = verdict(PARENT, change, "lower")
        self.assertEqual(v["base_wins"], 10)
        self.assertFalse(v["gain_holds"])
        self.assertTrue(v["gap_exceeds_iqr"])

    def test_bound_and_unresolved(self):
        # Median +10 % against a 25 % bound: within, and the parent's
        # spread (3.5 %) is narrower than the bound.
        v = verdict(PARENT, [x * 1.1 for x in PARENT], "lower", 0.25)
        self.assertTrue(v["within_bound"])
        self.assertFalse(v["unresolved"])
        # Median +10 % against a 5 % bound is out of bound.
        v = verdict(PARENT, [x * 1.1 for x in PARENT], "lower", 0.05)
        self.assertFalse(v["within_bound"])
        # Higher is better: -10 % is within a 25 % bound.
        v = verdict(PARENT, [x * 0.9 for x in PARENT], "higher", 0.25)
        self.assertTrue(v["within_bound"])
        # A parent spread wider than the bound is unresolved unless
        # every change run beats every parent run.
        v = verdict(PARENT, PARENT, "lower", 0.01)
        self.assertTrue(v["unresolved"])
        v = verdict(PARENT, [50.0] * 10, "lower", 0.01)
        self.assertFalse(v["unresolved"])
        self.assertIsNone(verdict(PARENT, PARENT, "lower")["within_bound"])

    def test_fewer_than_ten_pairs_never_claim_a_gain(self):
        v = verdict(PARENT[:9], [50.0] * 9, "lower")
        self.assertEqual(v["change_wins"], 9)
        self.assertTrue(v["gap_exceeds_iqr"])
        self.assertFalse(v["gain_holds"])

    def test_sides_must_pair(self):
        with self.assertRaises(ValueError):
            verdict(PARENT, PARENT[:9], "lower")


if __name__ == "__main__":
    unittest.main()
