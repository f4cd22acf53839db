"""MetricsRegistry: counters, gauges, histograms, snapshot/merge."""

from __future__ import annotations

import math
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import Histogram, MetricsRegistry


class TestCounters:
    def test_inc_defaults_to_one(self):
        reg = MetricsRegistry()
        reg.inc("runs")
        reg.inc("runs")
        assert reg.counter("runs") == 2

    def test_inc_with_value(self):
        reg = MetricsRegistry()
        reg.inc("realizations", 250)
        reg.inc("realizations", 750)
        assert reg.counter("realizations") == 1000

    def test_unknown_counter_reads_zero(self):
        assert MetricsRegistry().counter("nope") == 0

    def test_counters_cannot_decrease(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().inc("x", -1)


class TestGauges:
    def test_latest_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("pool_size", 4)
        reg.set_gauge("pool_size", 8)
        assert reg.gauge("pool_size") == 8

    def test_unknown_gauge_is_none(self):
        assert MetricsRegistry().gauge("nope") is None


class TestHistograms:
    def test_summary_stats(self):
        reg = MetricsRegistry()
        for v in (0.001, 0.002, 0.003):
            reg.observe("latency_s", v)
        hist = reg.histogram("latency_s")
        assert hist.count == 3
        assert hist.min == 0.001
        assert hist.max == 0.003
        assert hist.mean == pytest.approx(0.002)

    def test_bucket_counts_total_matches(self):
        reg = MetricsRegistry()
        for v in (1e-7, 1e-3, 1.0, 1e6):  # spans below, inside, above bounds
            reg.observe("latency_s", v)
        hist = reg.histogram("latency_s")
        assert sum(hist.bucket_counts) == hist.count == 4

    def test_counted_sample_equals_repeated_samples(self):
        once, repeated = MetricsRegistry(), MetricsRegistry()
        once.observe("latency_s", 0.25, count=4)
        for _ in range(4):
            repeated.observe("latency_s", 0.25)
        assert once.snapshot() == repeated.snapshot()
        with pytest.raises(ObservabilityError):
            once.observe("latency_s", 0.25, count=0)

    def test_non_finite_sample_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.observe("x", math.nan)
        with pytest.raises(ObservabilityError):
            reg.observe("x", math.inf)

    def test_merge_rejects_different_bounds(self):
        a, b = Histogram(), Histogram(bucket_bounds=(1.0, 2.0))
        b.observe(1.5)
        with pytest.raises(ObservabilityError):
            a.merge(b)


class TestSnapshotMerge:
    def test_snapshot_is_plain_json_types(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.set_gauge("g", 1.5)
        reg.observe("h", 0.25)
        snap = reg.snapshot()
        import json

        json.dumps(snap)  # raises if any non-JSON type leaks in

    def test_merge_adds_counters_and_pools_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 3)
        b.inc("c", 4)
        a.observe("h", 1.0)
        b.observe("h", 3.0)
        b.set_gauge("g", 7)
        a.merge(b.snapshot())
        assert a.counter("c") == 7
        assert a.gauge("g") == 7
        hist = a.histogram("h")
        assert hist.count == 2
        assert hist.min == 1.0 and hist.max == 3.0

    def test_merge_rejects_garbage(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().merge({"not": "a snapshot"})

    def test_merge_order_independent(self):
        snapshots = []
        for shard in range(5):
            reg = MetricsRegistry()
            reg.inc("items", shard + 1)
            for i in range(shard + 1):
                reg.observe("work_s", 0.01 * (shard + i + 1))
            snapshots.append(reg.snapshot())
        merged = []
        for seed in (0, 1):
            order = list(snapshots)
            random.Random(seed).shuffle(order)
            reg = MetricsRegistry()
            for snap in order:
                reg.merge(snap)
            merged.append(reg.snapshot())
        assert merged[0] == merged[1]


def _worker_snapshot(chunk: list[int]) -> dict:
    """Worker-process side of the cross-process round-trip test."""
    reg = MetricsRegistry()
    for value in chunk:
        reg.inc("items")
        reg.inc("total", value)
        reg.observe("value", float(value))
    return reg.snapshot()


class TestCrossProcessAggregation:
    def test_worker_snapshots_merge_to_the_serial_registry(self):
        values = list(range(1, 41))
        chunks = [values[i::4] for i in range(4)]

        serial = MetricsRegistry()
        for snap in map(_worker_snapshot, chunks):
            serial.merge(snap)

        parent = MetricsRegistry()
        with ProcessPoolExecutor(max_workers=2) as pool:
            for snap in pool.map(_worker_snapshot, chunks):
                parent.merge(snap)

        assert parent.counter("items") == len(values)
        assert parent.counter("total") == sum(values)
        hist = parent.histogram("value")
        assert hist.count == len(values)
        assert hist.min == 1.0 and hist.max == 40.0
        assert parent.snapshot() == serial.snapshot()
