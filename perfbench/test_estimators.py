"""Tests for the benchmark's percentile estimator and failure accounting.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import estimators


class NearestRankTest(unittest.TestCase):
    def test_ranks_are_observed_samples(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(estimators.nearest_rank(values, 500), (50, 50))
        self.assertEqual(estimators.nearest_rank(values, 990), (99, 1))
        self.assertEqual(estimators.nearest_rank(values, 999), (100, 0))

    def test_rank_rounds_up(self):
        # ceil(0.9 * 15) = 14: the 14th smallest, one sample beyond.
        values = list(range(15))
        self.assertEqual(estimators.nearest_rank(values, 900), (13, 1))

    def test_tiny_percentile_never_ranks_below_one(self):
        self.assertEqual(estimators.nearest_rank([7.0], 500), (7.0, 0))


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        values = [float(v) for v in range(1000)]
        pct, value, beyond = estimators.tail(values)
        self.assertEqual((pct, value, beyond), (99.0, 989.0, 10))

    def test_ladder_tops_out_at_p99(self):
        pct, _, beyond = estimators.tail(list(range(100000)))
        self.assertEqual((pct, beyond), (99.0, 1000))

    def test_just_under_a_thousand_falls_to_p95(self):
        pct, _, beyond = estimators.tail(list(range(999)))
        self.assertEqual((pct, beyond), (95.0, 49))

    def test_few_samples_fall_back_down_the_ladder(self):
        # 120 samples: p95 leaves 6 beyond, p90 leaves 12.
        pct, value, beyond = estimators.tail(list(range(120)))
        self.assertEqual((pct, value, beyond), (90.0, 107, 12))

    def test_order_of_input_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0] * 50
        self.assertEqual(estimators.tail(values),
                         estimators.tail(sorted(values)))

    def test_unresolved_tail_reports_its_true_count(self):
        pct, value, beyond = estimators.tail([1.0, 2.0, 3.0])
        self.assertEqual((pct, value), (50.0, 2.0))
        self.assertLess(beyond, estimators.MIN_BEYOND)


class AccountingTest(unittest.TestCase):
    def test_failed_ops_count_against_attempted(self):
        self.assertEqual(estimators.accounting([True, False, True, False]),
                         (4, 2))

    def test_all_ok(self):
        self.assertEqual(estimators.accounting([True] * 7), (7, 0))

    def test_nothing_attempted(self):
        self.assertEqual(estimators.accounting([]), (0, 0))


class SpreadTest(unittest.TestCase):
    def test_constant_values_have_no_spread(self):
        self.assertEqual(estimators.spread([2.0] * 10), 0.0)

    def test_matches_statistics_quantiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        # quantiles(n=4), exclusive method: q1 = 11.75, q3 = 17.25.
        self.assertAlmostEqual(estimators.spread(values),
                               (17.25 - 11.75) / 14.5)


if __name__ == "__main__":
    unittest.main()
