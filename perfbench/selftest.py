"""Unit tests for the benchmark's own arithmetic (``stats.py``).

Run with ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import unittest

from stats import (
    Step,
    knee,
    percentile,
    self_time,
    spread,
    step_meets,
    window_rates,
    windowed,
)

LIMIT = 5000.0
LAG = 0.2


def step(rate, p99, lag=100.0, backlog=1, failed=0) -> Step:
    return Step(rate=rate, p99_us=p99, lag_p99_us=lag, backlog=backlog,
                failed=failed)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(percentile(values, 0.5), 500)
        self.assertEqual(percentile(values, 0.99), 990)

    def test_needs_ten_samples_beyond(self):
        self.assertEqual(percentile(list(range(1000)), 0.99), 989)
        with self.assertRaises(ValueError):
            percentile(list(range(999)), 0.99)
        with self.assertRaises(ValueError):
            percentile(list(range(99)), 0.9)
        self.assertEqual(percentile(list(range(100)), 0.9), 89)

    def test_median_of_few_samples_is_allowed(self):
        self.assertEqual(percentile([3.0, 1.0, 2.0], 0.5), 2.0)

    def test_windowed_ignores_one_slow_window(self):
        values = [100.0] * 3000 + [10_000.0] * 1000 + [100.0] * 1000
        self.assertEqual(windowed(values, 0.99, 1000), 100.0)
        self.assertEqual(percentile(values, 0.99), 10_000.0)

    def test_windowed_drops_partial_window_and_falls_back(self):
        values = [1.0] * 1000 + [50.0] * 500
        self.assertEqual(windowed(values, 0.5, 1000), 1.0)
        self.assertEqual(windowed([2.0] * 20, 0.5, 1000), 2.0)

    def test_window_rates_count_whole_windows_only(self):
        times = [0.1] * 10 + [1.5] * 20 + [2.5] * 30 + [3.2]
        self.assertEqual(window_rates(times, 0.0, 3.0, 1.0),
                         [10.0, 20.0, 30.0])
        self.assertEqual(window_rates([0.1, 0.2], 0.0, 0.5, 1.0), [4.0])


class KneeTest(unittest.TestCase):
    def test_highest_passing_step(self):
        steps = [step(1000, 900), step(2000, 2500), step(3000, LIMIT * 4)]
        self.assertEqual(knee(steps, LIMIT, LAG), 2000)
        self.assertEqual(knee(steps[:2], LIMIT, LAG), 2000)

    def test_isolated_miss_below_knee_does_not_cap_it(self):
        steps = [step(1000, 900), step(2000, 6000), step(3000, 4000),
                 step(4000, 9000), step(5000, 12000)]
        self.assertEqual(knee(steps, LIMIT, LAG), 3000)

    def test_backlog_growth_and_generator_lag_fail_a_step(self):
        self.assertFalse(step_meets(step(2000, 900, backlog=50), LIMIT, LAG))
        self.assertTrue(step_meets(step(2000, 900, backlog=10), LIMIT, LAG))
        self.assertFalse(step_meets(step(2000, 900, lag=1500), LIMIT, LAG))
        self.assertFalse(step_meets(step(2000, 900, failed=1), LIMIT, LAG))

    def test_nothing_passes(self):
        self.assertEqual(knee([step(500, 9000)], LIMIT, LAG), 0.0)


class LedgerArithmeticTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        self.assertEqual(self_time(1000.0, [300.0, 200.0]), 500.0)
        self.assertEqual(self_time(1000.0, []), 1000.0)

    def test_self_time_can_expose_inconsistent_children(self):
        self.assertLess(self_time(100.0, [80.0, 40.0]), 0.0)

    def test_spread_is_iqr_over_median(self):
        q1, median, q3, width = spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(median, 5.5)
        self.assertAlmostEqual(width, (q3 - q1) / 5.5)
        self.assertEqual(spread([4.0])[3], 0.0)


if __name__ == "__main__":
    unittest.main()
