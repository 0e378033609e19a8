#!/usr/bin/env python3
"""Unit tests for the end-to-end benchmark driver on small fixtures.

  python3 -m unittest discover -s bench/e2e -p 'test_*.py'
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def span(name, tid, begin, end):
    return [{"name": name, "ph": "B", "ts": begin, "pid": 0, "tid": tid},
            {"name": name, "ph": "E", "ts": end, "pid": 0, "tid": tid}]


def nested(tid, outer, inner):
    """outer = (name, begin, end) enclosing inner = (name, begin, end)."""
    (o_name, o_begin, o_end), (i_name, i_begin, i_end) = outer, inner
    return ([{"name": o_name, "ph": "B", "ts": o_begin, "pid": 0, "tid": tid}]
            + span(i_name, tid, i_begin, i_end)
            + [{"name": o_name, "ph": "E", "ts": o_end, "pid": 0, "tid": tid}])


def trainer_round(begin):
    """One decentralized round on tid 0 (microseconds): grad 10, attack 2,
    agreement 60 holding an inbox build of 1 and a build of 20, sgd 1,
    evaluate 5; 2 us of the round sit outside its children."""
    return ([{"name": "round", "ph": "B", "ts": begin, "pid": 0, "tid": 0}]
            + span("grad.compute", 0, begin, begin + 10)
            + span("attack.corrupt", 0, begin + 10, begin + 12)
            + [{"name": "agreement", "ph": "B", "ts": begin + 12, "pid": 0,
                "tid": 0}]
            + span("agreement.inbox_build", 0, begin + 12, begin + 13)
            + span("agreement.gram_build", 0, begin + 13, begin + 33)
            + [{"name": "agreement", "ph": "E", "ts": begin + 72, "pid": 0,
                "tid": 0}]
            + span("sgd.apply", 0, begin + 72, begin + 73)
            + span("evaluate", 0, begin + 73, begin + 78)
            + [{"name": "round", "ph": "E", "ts": begin + 80, "pid": 0,
                "tid": 0}])


def artifact(accuracies, seconds=0.01):
    rounds = [{"round": i, "accuracy": a, "loss": 1.0, "seconds": seconds,
               "sim_seconds": 0.5, "bytes": 100} for i, a in
              enumerate(accuracies)]
    return {"error": "", "best_accuracy": max(accuracies),
            "sim_seconds": 0.5 * len(rounds), "bytes": 100 * len(rounds),
            "rounds": rounds,
            "metrics": {
                "counters": {"agreement.gram_builds": 3,
                             "agreement.shared_hits": 24,
                             "agreement.subrounds": 3,
                             "net.rounds": 3,
                             "net.messages_delivered": 270,
                             "net.messages_late": 27,
                             "net.timeouts_fired": 0},
                "histograms": {"round.wall_seconds":
                               {"sum": seconds * len(rounds)}}}}


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(list(range(99)), 0.9))
        self.assertAlmostEqual(run.percentile(list(range(100)), 0.9), 89.1)

    def test_median_needs_twenty_samples(self):
        self.assertIsNone(run.percentile([1.0] * 19, 0.5))
        self.assertEqual(run.percentile([3.0] * 10 + [5.0] * 10, 0.5), 4.0)


class SpanTimesTest(unittest.TestCase):
    def test_pairs_nested_spans_per_thread(self):
        # Workers 1 and 2 interleave in the file; worker 1 nests a step
        # inside a build and a build inside a build (only the outermost
        # build counts toward its name's total).
        events = (trainer_round(0)
                  + nested(1, ("agreement.gram_build", 20, 50),
                           ("agreement.step", 25, 35))
                  + nested(2, ("agreement.gram_build", 21, 41),
                           ("agreement.gram_build", 22, 30))
                  + nested(1, ("agreement.gram_build", 60, 70),
                           ("agreement.gram_build", 61, 69)))
        events.sort(key=lambda e: e["ts"])
        totals, children = run.span_times(events)
        self.assertEqual(totals[(1, "agreement.gram_build")], 40)
        self.assertEqual(totals[(1, "agreement.step")], 10)
        self.assertEqual(totals[(2, "agreement.gram_build")], 20)
        self.assertEqual(totals[(0, "round")], 80)
        self.assertEqual(children[0], 78)
        self.assertEqual(children[1], 0)

    def test_rejects_misnested_and_unclosed_spans(self):
        crossed = [{"name": "a", "ph": "B", "ts": 0, "pid": 0, "tid": 0},
                   {"name": "b", "ph": "B", "ts": 1, "pid": 0, "tid": 0},
                   {"name": "a", "ph": "E", "ts": 2, "pid": 0, "tid": 0}]
        with self.assertRaises(ValueError):
            run.span_times(crossed)
        with self.assertRaises(ValueError):
            run.span_times(crossed[:2])


class MetricsTest(unittest.TestCase):
    def test_rounds_to_target_never_reached(self):
        self.assertEqual(run.rounds_to_target([0.1, 0.5, 0.9], 0.5), 1)
        self.assertIsNone(run.rounds_to_target([0.1, 0.5, 0.9], 0.95))
        workload = run.Workload("rounds=20", cells=1, target=0.95, floor=0.0)
        cell = {"seed": 1, "wall_s": 0.5, "maxrss_kb": 2048,
                "artifact": artifact([0.1 + 0.01 * i for i in range(20)])}
        metrics = run.end_to_end_metrics([cell], workload)
        self.assertIsNone(metrics["time_to_target_s"])
        self.assertIsNone(metrics["round_ms_p90"])
        self.assertAlmostEqual(metrics["setup_s"], 0.3)
        self.assertAlmostEqual(metrics["rounds_per_s"], 100.0)
        self.assertEqual(metrics["peak_rss_mb"], 2.0)

    def test_layer_metrics_from_trace_and_counters(self):
        traced = {"wall_s": 1.1, "events": trainer_round(0)
                  + span("agreement.gram_build", 1, 40, 70),
                  "artifact": artifact([0.5])}
        layers = run.layer_metrics([traced], [{"wall_s": 1.0}])
        self.assertAlmostEqual(layers["agreement.share_ratio"], 24 / 27)
        self.assertAlmostEqual(layers["agreement.builds_per_subround"], 1.0)
        self.assertAlmostEqual(layers["agreement.build_busy_ms"], 0.05)
        self.assertAlmostEqual(layers["agreement.build_parallelism"], 50 / 60)
        # agreement 60 us on the trainer minus its inbox build and build.
        self.assertAlmostEqual(layers["agreement.engine_wait_ms"], 0.039)
        self.assertAlmostEqual(layers["learning.scaffold_ms"], 0.002)
        self.assertAlmostEqual(layers["network.late_ratio"], 0.1)
        self.assertAlmostEqual(layers["network.messages_per_subround"], 90)
        self.assertAlmostEqual(layers["obs.trace_overhead"], 0.1)


class CompareTest(unittest.TestCase):
    parent = [10.0, 10.1, 9.9, 10.0, 10.05]

    def test_verdicts(self):
        faster = [v * 0.8 for v in self.parent]
        slower = [v * 1.2 for v in self.parent]
        noisy = [5.0, 15.0, 10.0, 7.0, 13.0]
        self.assertEqual(run.verdict(self.parent, faster, "lower", 0.1),
                         "better")
        self.assertEqual(run.verdict(self.parent, slower, "lower", 0.1),
                         "worse")
        self.assertEqual(run.verdict(self.parent, noisy, "lower", 0.1),
                         "unresolved")
        self.assertEqual(run.verdict(self.parent, list(self.parent),
                                     "lower", 0.1), "same")
        self.assertEqual(run.verdict(self.parent, faster, "higher", 0.1),
                         "worse")

    def test_compare_exit_code(self):
        bench = {"workloads": [{"name": "w"}],
                 "end_to_end": [{"name": "round_ms_p50", "better": "lower",
                                 "bound": 0.1}]}
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for tag, values in (("parent", self.parent),
                                ("same", self.parent),
                                ("slower", [v * 1.5 for v in self.parent])):
                paths[tag] = Path(tmp) / f"{tag}.json"
                paths[tag].write_text(json.dumps({"workloads": {"w": {
                    "runs": [{"round_ms_p50": v} for v in values]}}}))
            self.assertEqual(
                run.compare(bench, paths["parent"], paths["same"]), 0)
            self.assertEqual(
                run.compare(bench, paths["parent"], paths["slower"]), 1)


if __name__ == "__main__":
    unittest.main()
