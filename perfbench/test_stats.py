"""Unit tests of the benchmark's statistics helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import statistics
import tempfile
import unittest

import stats


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_raises(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q[0], q[2]))

    def test_spread_is_iqr_over_median(self):
        values = [10.0, 10.0, 11.0, 12.0, 9.0, 10.0, 10.5, 9.5, 10.0, 11.5]
        q1, q3 = stats.quartiles(values)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / statistics.median(values))

    def test_constant_sample_has_no_spread(self):
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


class Percentiles(unittest.TestCase):
    def test_linear_between_ranks(self):
        values = list(range(1, 11))  # 1..10
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile(values, 100), 10)
        self.assertAlmostEqual(stats.percentile(values, 50), 5.5)
        self.assertAlmostEqual(stats.percentile(values, 90), 9.1)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([3, 1, 2], 50), stats.percentile([1, 2, 3], 50))

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(stats.highest_percentile(19))
        self.assertEqual(stats.highest_percentile(20), 50.0)
        self.assertEqual(stats.highest_percentile(99), 50.0)
        self.assertEqual(stats.highest_percentile(100), 90.0)
        self.assertEqual(stats.highest_percentile(199), 90.0)
        self.assertEqual(stats.highest_percentile(200), 95.0)
        self.assertEqual(stats.highest_percentile(1000), 99.0)
        self.assertEqual(stats.highest_percentile(10000), 99.9)


class PoolBusy(unittest.TestCase):
    def test_busy_share_of_capacity(self):
        self.assertAlmostEqual(stats.pool_busy_frac(6.0, 4, 2.0), 0.75)

    def test_rejects_empty_pool_or_wall(self):
        with self.assertRaises(ValueError):
            stats.pool_busy_frac(1.0, 0, 1.0)
        with self.assertRaises(ValueError):
            stats.pool_busy_frac(1.0, 4, 0.0)


class TrajectoryDigest(unittest.TestCase):
    def test_equal_trajectories_share_a_digest(self):
        self.assertEqual(stats.trajectory_digest([0.5, 0.25]), stats.trajectory_digest([0.5, 0.25]))

    def test_one_ulp_changes_the_digest(self):
        x = 0.1
        y = math.nextafter(x, 1.0)
        self.assertNotEqual(stats.trajectory_digest([x]), stats.trajectory_digest([y]))

    def test_order_and_sign_of_zero_matter(self):
        self.assertNotEqual(stats.trajectory_digest([1.0, 2.0]), stats.trajectory_digest([2.0, 1.0]))
        self.assertNotEqual(stats.trajectory_digest([0.0]), stats.trajectory_digest([-0.0]))

    def test_known_value(self):
        self.assertEqual(stats.trajectory_digest([]),
                         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


def iteration(spans, near_sampling=False, wall=0.1):
    return {"event": "iteration_completed", "near_sampling": near_sampling, "wall_seconds": wall,
            "spans": [{"phase": p, "lane": lane, "seconds": s} for p, lane, s in spans]}


class CoreTotals(unittest.TestCase):
    events = [
        {"event": "run_started"},
        {"event": "simulation_completed", "feasible": False, "t": 0.5},
        iteration([("critic-train", -1, 1.0), ("actor-train", 0, 2.0), ("actor-train", 1, 3.0),
                   ("actor-train", 2, 1.0), ("simulate", 0, 0.5), ("elite-update", -1, 0.01)]),
        {"event": "simulation_completed", "feasible": True, "t": 1.5},
        iteration([("near-sample", -1, 0.25), ("elite-update", -1, 0.01)], near_sampling=True,
                  wall=0.3),
    ]

    def test_sums_lanes_and_critical_path(self):
        t = stats.core_totals(self.events)
        self.assertEqual(t["critic_train_s"], 1.0)
        self.assertEqual(t["actor_train_lane_s"], 6.0)
        self.assertEqual(t["actor_train_critical_s"], 3.0)
        self.assertEqual(t["near_sample_s"], 0.25)
        self.assertAlmostEqual(t["elite_update_s"], 0.02)
        self.assertEqual((t["critic_rounds"], t["actor_rounds"]), (1, 3))
        self.assertEqual((t["iterations"], t["ns_iterations"]), (2, 1))
        self.assertEqual(t["iteration_s"], [0.1, 0.3])

    def test_first_feasible_time(self):
        self.assertEqual(stats.first_feasible_t(self.events), 1.5)
        self.assertIsNone(stats.first_feasible_t(self.events[:2]))

    def test_reads_jsonl(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.jsonl")
            with open(path, "w", encoding="utf-8") as out:
                for event in self.events:
                    out.write(json.dumps(event) + "\n")
            self.assertEqual(stats.read_events(path), self.events)


if __name__ == "__main__":
    unittest.main()
