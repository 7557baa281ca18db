"""Unit tests for metrics primitives."""

import random

import pytest

from repro.sim.metrics import (
    Counter,
    Gauge,
    LatencyRecorder,
    MetricsRegistry,
    P2Quantile,
    TimeWeightedValue,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("ops")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_mark_window(self):
        c = Counter()
        c.inc(10)
        c.mark()
        c.inc(3)
        assert c.since_mark() == 3
        assert c.value == 13

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_add_and_peak(self):
        g = Gauge("depth")
        g.set(5)
        g.add(3)
        g.set(2)
        assert g.value == 2
        assert g.peak == 8


class TestTimeWeightedValue:
    def test_average_of_step_function(self):
        tw = TimeWeightedValue(now=0.0, value=0.0)
        tw.update(10.0, 4.0)   # 0 for 10ms
        tw.update(20.0, 0.0)   # 4 for 10ms
        assert tw.average(now=20.0) == pytest.approx(2.0)

    def test_average_includes_current_segment(self):
        tw = TimeWeightedValue(now=0.0, value=2.0)
        assert tw.average(now=10.0) == pytest.approx(2.0)

    def test_time_backwards_rejected(self):
        tw = TimeWeightedValue(now=5.0)
        with pytest.raises(ValueError):
            tw.update(4.0, 1.0)


class TestLatencyRecorder:
    def test_summary_basic_stats(self):
        rec = LatencyRecorder()
        for i, latency in enumerate([10.0, 20.0, 30.0, 40.0]):
            rec.record(completed_at=float(i), latency_ms=latency)
        s = rec.summary()
        assert s.count == 4
        assert s.mean == pytest.approx(25.0)
        assert s.minimum == 10.0
        assert s.maximum == 40.0
        assert s.p50 == 20.0

    def test_window_excludes_warmup(self):
        rec = LatencyRecorder()
        rec.record(completed_at=5.0, latency_ms=1000.0)   # warmup junk
        rec.record(completed_at=50.0, latency_ms=10.0)
        rec.record(completed_at=60.0, latency_ms=20.0)
        s = rec.summary(window_start=40.0, window_end=100.0)
        assert s.count == 2
        assert s.mean == pytest.approx(15.0)

    def test_p99_nearest_rank(self):
        rec = LatencyRecorder()
        for i in range(100):
            rec.record(completed_at=float(i), latency_ms=float(i + 1))
        assert rec.percentile(99) == 99.0
        assert rec.percentile(100) == 100.0
        assert rec.percentile(0) == 1.0

    def test_empty_summary_is_zeroes(self):
        s = LatencyRecorder().summary()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.p99 == 0.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(0.0, -1.0)

    def test_bad_percentile_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().percentile(101)

    def test_every_sample_is_retained(self):
        rec = LatencyRecorder()
        for i in range(100):
            rec.record(completed_at=float(i), latency_ms=float(i + 1))
        assert rec.count() == 100
        assert len(rec._samples) == 100


class TestMetricsRegistry:
    def test_same_name_returns_same_metric(self):
        reg = MetricsRegistry("node1")
        assert reg.counter("ops") is reg.counter("ops")
        assert reg.gauge("depth") is reg.gauge("depth")
        assert reg.latency("put") is reg.latency("put")

    def test_snapshot_qualifies_names(self):
        reg = MetricsRegistry("node1")
        reg.counter("ops").inc(3)
        reg.gauge("depth").set(7.0)
        snap = reg.snapshot()
        assert snap["node1.ops"] == 3.0
        assert snap["node1.depth"] == 7.0

    def test_unprefixed_registry(self):
        reg = MetricsRegistry()
        reg.counter("ops").inc()
        assert reg.snapshot() == {"ops": 1.0}


class TestP2Quantile:
    def test_validation(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    def test_few_samples_use_exact_nearest_rank(self):
        q = P2Quantile(0.5)
        assert q.value() == 0.0  # no data yet
        for x in (5.0, 1.0, 3.0):
            q.observe(x)
        # sorted [1, 3, 5], rank ceil(0.5 * 3) = 2 -> 3
        assert q.value() == 3.0
        assert q.count == 3

    def test_tracks_uniform_p95_within_tolerance(self):
        rng = random.Random(42)
        q = P2Quantile(0.95)
        for _ in range(5_000):
            q.observe(rng.uniform(0.0, 100.0))
        assert abs(q.value() - 95.0) < 2.0

    def test_tracks_bimodal_p95(self):
        # 90% fast (~1ms), 10% slow (~100ms): P95 sits in the slow mode —
        # the shape a hedge trigger must see through.
        rng = random.Random(7)
        q = P2Quantile(0.95)
        for _ in range(10_000):
            if rng.random() < 0.9:
                q.observe(rng.uniform(0.5, 1.5))
            else:
                q.observe(rng.uniform(90.0, 110.0))
        assert q.value() > 50.0

    def test_deterministic_for_identical_streams(self):
        rng = random.Random(3)
        stream = [rng.expovariate(0.2) for _ in range(2_000)]
        a, b = P2Quantile(0.99), P2Quantile(0.99)
        for x in stream:
            a.observe(x)
            b.observe(x)
        assert a.value() == b.value()
