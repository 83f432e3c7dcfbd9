"""Tests of compare.py's verdict rule.

    python3 -m unittest discover -s lifebench -p 'test_*.py'
"""
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402


def runs(values):
    return [(seed, v) for seed, v in enumerate(values)]


class VerdictTest(unittest.TestCase):
    PARENT = runs([100, 101, 99, 102, 98, 100, 101, 99, 100, 100])

    def test_clear_gain_on_a_higher_is_better_metric(self):
        change = runs([v + 10 for _, v in self.PARENT])
        self.assertEqual(compare.verdict(self.PARENT, change, "higher"),
                         (10, 10, "improved"))

    def test_clear_loss_on_a_lower_is_better_metric(self):
        change = runs([v + 10 for _, v in self.PARENT])
        self.assertEqual(compare.verdict(self.PARENT, change, "lower"),
                         (0, 10, "worse"))

    def test_gain_inside_the_parents_spread_is_unresolved(self):
        change = runs([v + 0.5 for _, v in self.PARENT])
        self.assertEqual(compare.verdict(self.PARENT, change, "higher")[2],
                         "unresolved")

    def test_eight_of_ten_pairs_is_unresolved(self):
        change = runs([v + 10 for _, v in self.PARENT[:8]] +
                      [v - 10 for _, v in self.PARENT[8:]])
        self.assertEqual(compare.verdict(self.PARENT, change, "higher"),
                         (8, 10, "unresolved"))

    def test_fewer_than_ten_pairs_is_unresolved(self):
        change = runs([v + 10 for _, v in self.PARENT[:9]])
        self.assertEqual(compare.verdict(self.PARENT, change, "higher")[2],
                         "unresolved")

    def test_gain_with_more_failed_operations_is_unresolved(self):
        change = runs([v + 10 for _, v in self.PARENT])
        self.assertEqual(
            compare.verdict(self.PARENT, change, "higher", more_failures=True),
            (10, 10, "unresolved"))

    def test_load_sums_failed_operations_per_workload(self):
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                         delete=False) as f:
            for seed, failed in ((1, 0), (2, 3), (3, 1)):
                f.write(json.dumps({
                    "meta": {"workload": "lifecycle", "seed": seed},
                    "result": {"correct": failed == 0, "attempted": 10,
                               "failed": failed,
                               "metrics": {"deploy_s": {"value": 0.1 * seed,
                                                        "unit": "s"}}}}) + "\n")
        try:
            runs_by_metric, failed = compare.load(f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual(failed, {"lifecycle": 4})
        self.assertEqual(len(runs_by_metric[("lifecycle", "deploy_s")]), 3)

    def test_ties_count_for_neither(self):
        change = runs([v for _, v in self.PARENT])
        self.assertEqual(compare.verdict(self.PARENT, change, "higher"),
                         (0, 10, "unresolved"))


if __name__ == "__main__":
    unittest.main()
