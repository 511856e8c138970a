#!/usr/bin/env python3
"""Tests of the benchmark's own logic (no build, no server needed).

    python3 servebench/test_servebench.py
"""

import collections
import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as wl  # noqa: E402

# A stand-in node-id index with the shape servebench_native generate writes.
INDEX = {
    "static_ids": list(range(0, 2000, 2)),
    "temporal_ids": list(range(0, 2100)),
    "snapshots": 100,
}


class RequestStreamTest(unittest.TestCase):
    def test_same_seed_same_requests_and_other_seed_differs(self):
        for name in wl.WORKLOADS:
            with self.subTest(workload=name):
                a = wl.make_requests(name, INDEX, 7, length=300)
                b = wl.make_requests(name, INDEX, 7, length=300)
                c = wl.make_requests(name, INDEX, 8, length=300)
                self.assertEqual(a, b)
                self.assertNotEqual(a[1], c[1])

    def test_topk_cold_never_repeats_a_source(self):
        warmup, stream = wl.make_requests("topk_cold", INDEX, 3)
        sources = [r["source"] for r in warmup + stream]
        self.assertEqual(len(sources), len(set(sources)))
        # The stream is every node, so a run can never reuse a tree.
        self.assertEqual(set(sources), set(INDEX["static_ids"]))

    def test_topk_hot_keeps_its_zipf_skew(self):
        spec = wl.WORKLOADS["topk_hot"]
        warmup, stream = wl.make_requests("topk_hot", INDEX, 5)
        counts = collections.Counter(r["source"] for r in stream)
        self.assertEqual(len(counts), spec["hot_sources"])
        self.assertEqual({r["source"] for r in warmup}, set(counts))
        weights = wl.zipf_weights(spec["hot_sources"], spec["zipf_s"])
        expected = [w / sum(weights) for w in weights]
        observed = sorted((c / len(stream) for c in counts.values()),
                          reverse=True)
        for rank, (obs, exp) in enumerate(zip(observed, expected)):
            self.assertAlmostEqual(obs, exp, delta=0.02, msg=f"rank {rank}")

    def test_temporal_windows_fit_the_snapshots(self):
        spec = wl.WORKLOADS["temporal_window"]
        warmup, stream = wl.make_requests("temporal_window", INDEX, 11)
        block = sum(count for _, count in spec["kinds"])
        # Every block of consecutive requests, warm-up included, holds the
        # pinned mix of query kinds.
        everything = warmup + stream
        for i in range(0, len(everything) - block + 1, block):
            kinds = collections.Counter(r["kind"]
                                        for r in everything[i:i + block])
            self.assertEqual(kinds, collections.Counter(dict(spec["kinds"])))
        for r in stream:
            self.assertEqual(r["end"] - r["begin"] + 1, spec["window"])
            self.assertGreaterEqual(r["begin"], 0)
            self.assertLess(r["end"], INDEX["snapshots"])
            self.assertIn(r["source"], INDEX["static_ids"])


class PercentileTest(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        n = wl.min_samples()
        self.assertEqual(n, 200)
        self.assertIsNone(wl.tail_percentile(list(range(n - 1))))
        values = list(range(n))
        p95 = wl.tail_percentile(values)
        self.assertIsNotNone(p95)
        self.assertEqual(sum(v > p95 for v in values), wl.MIN_BEYOND)

    def test_run_refuses_a_tail_without_enough_samples(self):
        with self.assertRaises(run.BenchError):
            run.tail([1.0] * 50, "latency")

    def test_empty_is_none(self):
        self.assertIsNone(wl.tail_percentile([]))


class MetricCatalogTest(unittest.TestCase):
    # The name and unit formats BENCHMARK.json must follow.
    NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_names_and_units_are_well_formed_and_unique(self):
        names = [n for n, _ in wl.END_TO_END + wl.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit in wl.END_TO_END + wl.PER_LAYER:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertRegex(name, self.NAME_RE)
            self.assertRegex(unit, self.UNIT_RE)

    def test_benchmark_json_matches_the_catalog(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(wl.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         wl.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         wl.PER_LAYER)
        self.assertTrue(any(m["name"] == "setup_s"
                            for m in bench["end_to_end"]))
        for m in bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25, m["name"])
        for w in bench["workloads"]:
            self.assertEqual(w["why"], wl.WORKLOADS[w["name"]]["why"])
            self.assertLessEqual(len(w["why"]), 200)


class LayerMetricsTest(unittest.TestCase):
    def test_server_counts_do_not_grow_with_run_length(self):
        # A run twice as long with the same work per request reports the
        # same per-layer counts.
        stages = {"queue_ms": 0.0, "cache_ms": 5.0, "walk_ms": 50.0,
                  "serialize_ms": 0.1}
        answer = ({}, {"stages": stages, "run_ms": 55.0, "_bytes": 600}, 56.0)
        per_run = []
        for n in (200, 400):
            delta = {"executor_admitted_total": n, "cache_misses_total": n,
                     "cache_evictions_total": n}
            per_run.append(run.server_layer_metrics([answer] * n, delta, {},
                                                    n))
        self.assertEqual(per_run[0], per_run[1])
        self.assertEqual(per_run[0]["tree_cache.misses_per_query"], 1.0)
        self.assertEqual(per_run[0]["executor.admitted_frac"], 1.0)


class CheckTest(unittest.TestCase):
    def test_ledger_balances(self):
        before = {"executor_submitted_total": 10, "executor_completed_total": 10}
        after = {"executor_submitted_total": 30, "executor_completed_total": 30}
        problems, _ = run.check_ledger(before, after, 20)
        self.assertEqual(problems, [])

    def test_ledger_catches_missing_and_shed_work(self):
        after = {"executor_submitted_total": 20,
                 "executor_completed_total": 18,
                 "executor_shed_queue_full_total": 1}
        problems, _ = run.check_ledger({}, after, 20)
        self.assertEqual(len(problems), 2)  # unbalanced, and shed

    def test_response_gate(self):
        request = {"op": "topk", "id": 0, "source": 5, "k": 2}
        good = {"status": "OK", "source": 5, "k": 2, "nodes": [1, 2],
                "scores": [0.5, 0.1], "degraded": False, "trials_done": 200,
                "trials_target": 200}
        self.assertEqual(run.check_response(request, good, 200), [])
        for field, value in (("degraded", True), ("trials_done", 150),
                             ("status", "RESOURCE_EXHAUSTED"),
                             ("nodes", [1])):
            bad = dict(good, **{field: value})
            self.assertNotEqual(run.check_response(request, bad, 200), [],
                                field)


if __name__ == "__main__":
    unittest.main()
