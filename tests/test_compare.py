#!/usr/bin/env python3
"""bench/compare.py's paired statistics on fixed inputs.

    python3 tests/test_compare.py
"""
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "bench"))
import compare  # noqa: E402


class SignTest(unittest.TestCase):
    def test_ten_of_ten_is_two_in_1024(self):
        self.assertAlmostEqual(compare.sign_test_p(10, 0), 2 / 1024)
        self.assertAlmostEqual(compare.sign_test_p(0, 10), 2 / 1024)

    def test_nine_of_ten(self):
        self.assertAlmostEqual(compare.sign_test_p(9, 1), 22 / 1024)

    def test_even_split_and_no_pairs_are_one(self):
        self.assertEqual(compare.sign_test_p(5, 5), 1.0)
        self.assertEqual(compare.sign_test_p(0, 0), 1.0)


class Summarize(unittest.TestCase):
    def test_lower_is_better(self):
        pairs = [(88.0, 150.0), (90.0, 152.0), (89.0, 149.0), (160.0, 151.0)]
        s = compare.summarize(pairs, "lower")
        self.assertEqual((s["wins"], s["losses"]), (3, 1))
        self.assertAlmostEqual(s["p"], 10 / 16)
        ratios = sorted([88 / 150, 90 / 152, 89 / 149, 160 / 151])
        self.assertAlmostEqual(s["median_ratio"], (ratios[1] + ratios[2]) / 2)
        self.assertEqual((s["new"], s["old"]), (89.5, 150.5))
        self.assertAlmostEqual(s["q1"], ratios[0] + 0.75 * (ratios[1] -
                                                            ratios[0]))
        self.assertAlmostEqual(s["q3"], ratios[2] + 0.25 * (ratios[3] -
                                                            ratios[2]))

    def test_higher_is_better_and_ties_count_for_neither(self):
        s = compare.summarize([(2.0, 1.0), (1.0, 1.0), (3.0, 1.0)], "higher")
        self.assertEqual((s["wins"], s["losses"]), (2, 0))
        self.assertAlmostEqual(s["p"], 0.5)
        self.assertEqual(s["median_ratio"], 2.0)
        one = compare.summarize([(3.0, 2.0)], "higher")
        self.assertEqual((one["q1"], one["median_ratio"], one["q3"]),
                         (1.5, 1.5, 1.5))

    def test_zero_parent_value(self):
        self.assertEqual(compare.ratio(0, 0), 1.0)
        self.assertTrue(math.isinf(compare.ratio(1, 0)))


if __name__ == "__main__":
    unittest.main()
