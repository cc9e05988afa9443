"""Tests of the benchmark's own logic.

The file name does not match pytest's ``test_*.py`` pattern, so the
repository's test run does not collect it.  Run it from the repository root:

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import itertools
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
for entry in (str(HERE), str(HERE.parent / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import measure  # noqa: E402
import spans  # noqa: E402

BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"


class MetricNameGrammar(unittest.TestCase):
    def test_accepts_dotted_names(self):
        for name in ("setup_s", "thermal.factorize.reused_share", "p99-ms", "9lives"):
            self.assertEqual(measure.check_metric_name(name), name)

    def test_rejects_names_outside_the_grammar(self):
        for name in ("", ".hidden", "_x", "a b", "lat/ms", "é", "x" * 65, None):
            with self.assertRaises(ValueError):
                measure.check_metric_name(name)

    def test_benchmark_json_names_follow_it(self):
        document = json.loads(BENCHMARK_JSON.read_text())
        names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in document[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            measure.check_metric_name(name)

    def test_a_traced_run_reports_exactly_the_per_layer_metrics(self):
        document = json.loads(BENCHMARK_JSON.read_text())
        # The last three are computed by run.py from the untraced half.
        produced = set(spans.layer_metrics([], {}, {}, {})) | {
            "bench.trace_overhead_share",
            "campaigns.service.hit_latency_p50_ms",
            "campaigns.service.hit_latency_p99_ms",
        }
        self.assertEqual({entry["name"] for entry in document["per_layer"]}, produced)


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(measure.percentile(values, 50), 50)
        self.assertEqual(measure.percentile(values, 99), 99)
        self.assertEqual(measure.percentile(values, 100), 100)
        self.assertEqual(measure.percentile([7.0], 99), 7.0)

    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(measure.samples_beyond(1000, 99), 10)
        self.assertEqual(measure.samples_beyond(999, 99), 9)
        self.assertIsNone(measure.tail_percentile(list(range(999)), 99))
        self.assertEqual(measure.tail_percentile(list(range(1000)), 99), 989)
        self.assertEqual(measure.samples_beyond(100, 90), 10)
        self.assertIsNone(measure.tail_percentile(list(range(99)), 90))


class ReferenceSpeed(unittest.TestCase):
    def test_factor_is_one_at_reference_speed(self):
        reference = measure.REFERENCE_GAUGE_S
        self.assertAlmostEqual(measure.reference_factor([reference] * 3), 1.0)

    def test_factor_follows_the_median_sample_with_the_elasticity(self):
        reference = measure.REFERENCE_GAUGE_S
        samples = [2 * reference, 2 * reference, 50 * reference]
        self.assertAlmostEqual(measure.reference_factor(samples), 0.5**measure.GAUGE_ELASTICITY)


class GaugeSidecar(unittest.TestCase):
    def test_samples_come_from_a_process_that_ends_on_close(self):
        import gauge

        sidecar = gauge.GaugeProcess()
        try:
            samples = [sidecar.sample() for _ in range(2)]
        finally:
            sidecar.close()
        self.assertTrue(all(sample > 0 for sample in samples))
        self.assertIsNotNone(sidecar._process.poll())


class SeedDeterminism(unittest.TestCase):
    def setUp(self):
        import workloads

        self.workloads = workloads

    def _hashes(self, specs, count):
        return [spec.content_hash() for spec in itertools.islice(specs, count)]

    def test_sweep_specs_repeat_per_seed_and_differ_across_seeds(self):
        first = self._hashes(self.workloads.sweep_specs(3), 12)
        self.assertEqual(first, self._hashes(self.workloads.sweep_specs(3), 12))
        self.assertNotEqual(first, self._hashes(self.workloads.sweep_specs(4), 12))
        self.assertEqual(len(set(first)), 12)

    def test_sweep_blocks_hold_every_oni_count_once(self):
        specs = list(itertools.islice(self.workloads.sweep_specs(5), 16))
        for block in (specs[:8], specs[8:]):
            counts = sorted(spec.network.oni_count for spec in block)
            self.assertEqual(counts, sorted(self.workloads.SWEEP_ONI_COUNTS))

    def test_serve_inputs_repeat_per_seed(self):
        pool = [spec.content_hash() for spec in self.workloads.serve_pool(7)]
        self.assertEqual(pool, [spec.content_hash() for spec in self.workloads.serve_pool(7)])
        fresh = self._hashes(self.workloads.serve_fresh(7), 4)
        self.assertFalse(set(fresh) & set(pool))
        requests = list(itertools.islice(self.workloads.serve_requests(7), 200))
        self.assertEqual(requests, list(itertools.islice(self.workloads.serve_requests(7), 200)))
        self.assertNotEqual(requests, list(itertools.islice(self.workloads.serve_requests(8), 200)))

    def test_serve_blocks_hold_every_ring_stratum_once(self):
        strata = self.workloads.SERVE_RING_STRATA_MM
        fresh = list(itertools.islice(self.workloads.serve_fresh(6), 2 * len(strata)))
        for block in (self.workloads.serve_pool(6), fresh[: len(strata)], fresh[len(strata) :]):
            lengths = sorted(spec.network.ring_length_mm for spec in block)
            for lower, length in zip(strata, lengths):
                self.assertTrue(lower <= length <= lower + 0.5, (lower, length))

    def test_serve_fresh_specs_come_in_adjacent_pairs(self):
        block = self.workloads.SERVE_BLOCK
        requests = list(itertools.islice(self.workloads.serve_requests(9), 4 * block))
        for start in range(0, len(requests), block):
            chunk = requests[start : start + block]
            fresh = [slot for slot, (kind, _) in enumerate(chunk) if kind == "fresh"]
            self.assertEqual(len(fresh), 2)
            self.assertEqual(fresh[1], fresh[0] + 1)
            self.assertEqual(chunk[fresh[0]], chunk[fresh[1]])
            self.assertTrue(0 < fresh[0] and fresh[1] < block - 1)


class SelfTime(unittest.TestCase):
    @staticmethod
    def span(sid, name, parent, start, end):
        return [sid, name, parent, start, end, {}]

    def test_self_time_subtracts_the_union_of_children(self):
        records = [
            self.span(1, spans.OP_SPAN, None, 0.0, 10.0),
            self.span(2, "a", 1, 1.0, 5.0),
            # Overlapping children (an async parent awaiting two tasks) are
            # counted once.
            self.span(3, "b", 2, 2.0, 3.0),
            self.span(4, "b", 2, 2.5, 4.0),
            self.span(5, "c", 1, 6.0, 7.0),
        ]
        table = spans.aggregate(records)
        self.assertAlmostEqual(table[spans.OP_SPAN]["self_s"], 10.0 - 4.0 - 1.0)
        self.assertAlmostEqual(table["a"]["self_s"], 4.0 - 2.0)
        self.assertAlmostEqual(table["b"]["s"], 2.5)
        self.assertAlmostEqual(table["b"]["self_s"], 2.5)
        self.assertEqual(table["b"]["calls"], 2)
        self.assertAlmostEqual(spans.coverage(records), 0.5)

    def test_children_outside_the_parent_are_clipped(self):
        self.assertAlmostEqual(spans.covered_length([(-1.0, 2.0), (3.0, 9.0)], 0.0, 5.0), 4.0)

    def test_recorded_spans_nest(self):
        tracer = spans.Tracer()
        with tracer.op("x"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans
        self.assertEqual(inner[2], outer[0])
        self.assertIsNone(outer[2])
        self.assertLessEqual(outer[3], inner[3])
        self.assertLessEqual(inner[4], outer[4])

    def test_server_side_span_claims_the_announced_request(self):
        tracer = spans.Tracer()
        with tracer.request("spec-a") as first:
            with tracer.request("spec-a") as second:
                self.assertEqual(tracer.claim("spec-a"), first[0])
                self.assertEqual(tracer.claim("spec-a"), second[0])
                self.assertIsNone(tracer.claim("spec-a"))

    def test_wrappers_record_and_restore(self):
        class Layer:
            def work(self, value):
                return value + 1

            @classmethod
            def build(cls, value):
                return cls().work(value)

        tracer = spans.Tracer()
        patches = spans.Instrumentation(tracer)
        original = Layer.__dict__["work"]
        patches.wrap(Layer, "work", "layer.work")
        patches.wrap(Layer, "build", "layer.build")
        self.assertEqual(Layer.build(1), 2)
        self.assertEqual([record[1] for record in tracer.spans], ["layer.work", "layer.build"])
        self.assertEqual(tracer.spans[0][2], tracer.spans[1][0])
        patches.remove()
        self.assertIs(Layer.__dict__["work"], original)


if __name__ == "__main__":
    unittest.main()
