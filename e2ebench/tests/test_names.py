"""Every workload and metric name the benchmark prints matches BENCHMARK.json,
and every span and count the traced run records has a metric."""

import json
import os
import re
import sys
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from e2elib import metrics  # noqa: E402


def spec():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        return json.load(f)


def replay_source():
    with open(os.path.join(BENCH, "tool", "Replay.cpp")) as f:
        return f.read()


class NamesTest(unittest.TestCase):
    def test_workloads(self):
        self.assertEqual([w["name"] for w in spec()["workloads"]],
                         metrics.WORKLOADS)

    def test_end_to_end(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec()["end_to_end"]],
            metrics.END_TO_END)

    def test_per_layer(self):
        self.assertEqual([(m["name"], m["unit"]) for m in spec()["per_layer"]],
                         metrics.per_layer())

    def test_every_span_has_a_metric(self):
        spans = set(re.findall(r'Scope \w+\([^,]+, "([^"]+)"\)',
                               replay_source()))
        spans.discard("op")
        self.assertTrue(spans)
        self.assertEqual(spans - set(metrics.LAYER_SPANS), set())
        # The per-detector spans are named at run time from the battery.
        self.assertIn('std::string("detectors.")', replay_source())

    def test_every_count_has_a_metric(self):
        counts = set(re.findall(r'Count\("(\w+)"', replay_source()))
        used = {key for _, key, _ in metrics.LAYER_COUNTS}
        used |= {k for _, hits, misses in metrics.LAYER_RATIOS
                 for k in (hits, misses)}
        self.assertEqual(used - counts, set())

    def test_command_names_only_the_benchmark(self):
        s = spec()
        self.assertEqual(s["paths"], ["e2ebench"])
        self.assertEqual(s["command"], ["python3", "e2ebench/run.py"])
        for m in s["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in s["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
