"""Unit tests of the benchmark's metric helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import metrics


def tally(queries=0, query_failures=0, wrong=0, appends=0, append_failures=0):
    return {"queries_attempted": queries, "queries_failed": query_failures,
            "wrong_answers": wrong, "appends_attempted": appends,
            "appends_failed": append_failures}


def span(span_id, name, start, end, parent=0, request=1, **attrs):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "request": request, "attrs": attrs}


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        record = metrics.percentile([4, 1, 3, 2], 0.5, min_beyond=1)
        self.assertAlmostEqual(record["value"], 2.5)
        self.assertEqual(record["q"], 0.5)
        self.assertEqual(record["n"], 4)

    def test_keeps_q_when_floor_holds(self):
        values = list(range(1, 201))  # 200 samples: 10 beyond p95
        record = metrics.percentile(values, 0.95)
        self.assertEqual(record["q"], 0.95)
        self.assertTrue(record["floor_met"])
        self.assertAlmostEqual(record["value"], 1 + 0.95 * 199)

    def test_lowers_q_to_the_highest_with_the_floor(self):
        values = list(range(100))  # only 5 samples beyond p95
        record = metrics.percentile(values, 0.95)
        self.assertAlmostEqual(record["q"], 0.90)
        self.assertTrue(record["floor_met"])
        self.assertAlmostEqual(record["value"], 0.90 * 99)

    def test_never_drops_below_the_median(self):
        record = metrics.percentile([1, 2, 3], 0.95)
        self.assertEqual(record["q"], 0.5)
        self.assertFalse(record["floor_met"])
        self.assertEqual(record["value"], 2)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 0.5)


class RatioTest(unittest.TestCase):
    def test_keeps_its_base(self):
        self.assertEqual(metrics.ratio(3, 4),
                         {"value": 0.75, "numerator": 3, "denominator": 4})

    def test_empty_base_reads_zero(self):
        self.assertEqual(metrics.ratio(5, 0)["value"], 0.0)

    def test_rate_removes_answer_checking(self):
        window = {"window_s": 10.0, "check_s": 4.0, "query_ms": [1.0] * 80}
        # 4 s of checking over 2 clients takes 2 s out of the window.
        self.assertAlmostEqual(metrics.rate(window, 2), 10.0)


class FailureCountTest(unittest.TestCase):
    def test_counts_queries_and_appends(self):
        count = metrics.FailureCount()
        count.add_tally(tally(queries=90, query_failures=2, appends=10,
                              append_failures=1))
        self.assertEqual(count.attempted, 100)
        self.assertEqual(count.failed, 3)
        self.assertAlmostEqual(count.failed_ratio, 0.03)
        self.assertTrue(count.correct)  # failures, but no wrong answer

    def test_wrong_answer_is_a_failure_and_incorrect(self):
        count = metrics.FailureCount()
        count.add_tally(tally(queries=10, query_failures=1, wrong=1))
        self.assertEqual(count.failed, 1)
        self.assertFalse(count.correct)

    def test_failed_check_counts(self):
        count = metrics.FailureCount()
        count.add_tally(tally(queries=9))
        count.add_check(False)
        self.assertEqual((count.attempted, count.failed), (10, 1))
        self.assertFalse(count.correct)

    def test_nothing_attempted_is_not_correct(self):
        self.assertFalse(metrics.FailureCount().correct)
        self.assertEqual(metrics.FailureCount().failed_ratio, 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_subtracts_children_once(self):
        spans = [span(1, "rtt", 0.0, 10.0),
                 span(2, "server.admission_wait", 1.0, 2.0, parent=1),
                 span(3, "server.execute", 2.0, 6.0, parent=1),
                 # overlaps execute; only 6..7 is new coverage
                 span(4, "other", 5.0, 7.0, parent=1)]
        selfs = metrics.self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - 6.0)
        self.assertAlmostEqual(selfs[3], 4.0)

    def test_clips_children_to_the_parent(self):
        spans = [span(1, "rtt", 0.0, 1.0), span(2, "x", 0.5, 3.0, parent=1)]
        self.assertAlmostEqual(metrics.self_times(spans)[1], 0.5)


def raw_result():
    """A minimal runner raw result: one query, one append."""
    load = dict(tally(queries=1, appends=1), window_s=1.0, check_s=0.0,
                query_ms=[5.0], append_ms=[7.0], rows_acked=10,
                append_window_s=0.5, dfs_bytes_written=200,
                text_bytes_acked=100)
    return {"load": load, "traced": dict(load), "warmup": tally(),
            "query_clients": 1, "world": {"shards": 1},
            "setup": [{"generate_s": 1.0, "build_s": 2.0,
                       "serve_start_s": 0.5}],
            "append_check": {"expected_rows": 10, "counted_rows": 10},
            "append_stats": {}, "peak_rss_mb": 9.0}


class DeclaredMetricsTest(unittest.TestCase):
    """The metrics derived are exactly those BENCHMARK.json declares."""

    def setUp(self):
        path = os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")
        with open(path) as f:
            self.bench = json.load(f)

    def declared(self, key):
        return {m["name"]: m["unit"] for m in self.bench[key]}

    def test_end_to_end(self):
        values, _ = metrics.end_to_end(raw_result())
        self.assertEqual({k: u for k, (_, u) in values.items()},
                         self.declared("end_to_end"))
        self.assertEqual(values["setup_s"][0], 3.5)
        self.assertEqual(values["append_write_amp"][0], 2.0)
        self.assertEqual(values["ok_ops_ratio"][0], 1.0)

    def test_per_layer(self):
        values, _, absent = metrics.per_layer(raw_result(), [])
        self.assertEqual({k: u for k, (_, u) in values.items()},
                         self.declared("per_layer"))
        self.assertIn("server.wire_ms_p50", absent)


class TraceOverheadTest(unittest.TestCase):
    def overhead(self, raw, spans):
        values, _, _ = metrics.per_layer(raw, spans)
        return values["bench.trace_overhead"][0]

    def test_wire_compares_the_traced_window(self):
        raw = raw_result()
        raw["traced"]["window_s"] = 1.25  # same queries, 25% longer
        spans = [span(1, "rtt", 0.0, 0.005)]
        self.assertAlmostEqual(self.overhead(raw, spans), 0.2)

    def test_in_process_counts_execute_calls_only(self):
        # 2 executes of 0.5 s each: 2 queries/s traced vs 1/s untraced; the
        # replayed lookup and slice read around them are not counted.
        spans = [span(1, "execute", 0.0, 0.5, request=1),
                 span(2, "lookup", 0.5, 3.0, request=1),
                 span(3, "execute", 3.0, 3.5, request=2)]
        self.assertAlmostEqual(self.overhead(raw_result(), spans), -1.0)


if __name__ == "__main__":
    unittest.main()
