#!/usr/bin/env python3
"""Self-tests of the benchmark's statistics on synthetic inputs.

    python3 perfbench/test_stats.py
"""

import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class QuantileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.quantile(values, 0.5), 50)
        self.assertEqual(stats.quantile(values, 0.9), 90)
        self.assertEqual(stats.quantile(values, 0.99), 99)
        self.assertEqual(stats.quantile(values, 1.0), 100)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.quantile([5, 1, 4, 2, 3], 0.6), 3)

    def test_weights_equal_repeated_samples(self):
        values, weights = [3.0, 1.0, 2.0], [2, 5, 3]
        expanded = [1.0] * 5 + [2.0] * 3 + [3.0] * 2
        for q in (0.1, 0.5, 0.7, 0.8, 0.81, 0.99, 1.0):
            self.assertEqual(stats.quantile(values, q, weights), stats.quantile(expanded, q), q)

    def test_misses_sort_last(self):
        values, weights = [1.0, math.inf], [98, 2]
        self.assertEqual(stats.quantile(values, 0.98, weights), 1.0)
        self.assertEqual(stats.quantile(values, 0.99, weights), math.inf)

    def test_median_of_even_count_averages(self):
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        self.assertEqual(stats.median([1.0, 2.0, 3.0], weights=[1, 1, 1]), 2.0)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.quantile([], 0.5)
        with self.assertRaises(ValueError):
            stats.quantile([1.0], 0.0)


class SlowestTest(unittest.TestCase):
    def test_mean_of_slowest_share(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        self.assertEqual(stats.mean_of_slowest(values, 0.3), 9.0)  # 8, 9, 10

    def test_at_least_one_sample(self):
        self.assertEqual(stats.mean_of_slowest([2.0, 7.0], 0.1), 7.0)

    def test_rounds_up(self):
        self.assertEqual(stats.mean_of_slowest([1.0, 2.0, 3.0, 4.0], 0.3), 3.5)  # ceil(1.2) = 2


class SupportTest(unittest.TestCase):
    def test_ten_beyond(self):
        self.assertTrue(stats.supported(100, 0.90))
        self.assertFalse(stats.supported(99, 0.90))
        self.assertTrue(stats.supported(1000, 0.99))
        self.assertFalse(stats.supported(999, 0.99))
        self.assertTrue(stats.supported(20, 0.5))
        self.assertFalse(stats.supported(3, 0.99))  # the 3-sample "p99"

    def test_weighted_count(self):
        self.assertEqual(stats.count([1.0, 2.0], [320, 640]), 960.0)
        self.assertEqual(stats.count([1.0, 2.0]), 2.0)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.4, 10.1, 9.9, 10.7, 10.2, 9.8, 10.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / med)

    def test_constant_has_no_spread(self):
        self.assertEqual(stats.spread([5.0] * 10), 0.0)


class FailureShareTest(unittest.TestCase):
    def test_share(self):
        self.assertEqual(stats.failure_share(200, 0), 0.0)
        self.assertEqual(stats.failure_share(200, 50), 0.25)

    def test_nothing_attempted(self):
        with self.assertRaises(ValueError):
            stats.failure_share(0, 0)


class SelfTimeTest(unittest.TestCase):
    # root(10) -> a(4) -> c(1); root -> b(3); a second root d(2).
    SPANS = [
        (3, 2, "planner.c", 1.0),
        (2, 1, "planner.a", 4.0),
        (4, 1, "partition.b", 3.0),
        (1, 0, "bench.root", 10.0),
        (5, 0, "service.d", 2.0),
    ]

    def test_self_is_duration_minus_children(self):
        st = stats.self_times(self.SPANS)
        self.assertEqual(st["bench.root"], (1, 10.0, 3.0))
        self.assertEqual(st["planner.a"], (1, 4.0, 3.0))
        self.assertEqual(st["planner.c"], (1, 1.0, 1.0))
        self.assertEqual(st["partition.b"], (1, 3.0, 3.0))

    def test_self_times_sum_to_root_time(self):
        total_self = sum(s for _, _, s in stats.self_times(self.SPANS).values())
        self.assertAlmostEqual(total_self, 12.0)

    def test_repeated_names_accumulate(self):
        spans = [(2, 1, "x.y", 1.0), (3, 1, "x.y", 2.0), (1, 0, "x.root", 5.0)]
        st = stats.self_times(spans)
        self.assertEqual(st["x.y"], (2, 3.0, 3.0))
        self.assertEqual(st["x.root"], (1, 5.0, 2.0))

    def test_ledger_layers_and_coverage(self):
        layers, coverage = stats.ledger(self.SPANS, 16.0)
        self.assertAlmostEqual(coverage, 12.0 / 16.0)
        self.assertAlmostEqual(layers["planner"], 4.0 / 16.0)
        self.assertAlmostEqual(layers["partition"], 3.0 / 16.0)
        self.assertAlmostEqual(layers["bench"], 3.0 / 16.0)
        self.assertAlmostEqual(layers["service"], 2.0 / 16.0)
        self.assertAlmostEqual(sum(layers.values()), coverage)

    def test_layer_of(self):
        self.assertEqual(stats.layer_of("planner.build_full"), "planner")
        self.assertEqual(stats.layer_of("bench"), "bench")


if __name__ == "__main__":
    unittest.main()
