"""Tests for the metric primitives (repro.obs.metrics)."""

import pytest

from repro.obs import (Counter, Histogram, MetricsRegistry,
                       NULL_REGISTRY, DEFAULT_SECONDS_BOUNDS)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6


class TestHistogram:
    def test_summary_statistics(self):
        hist = Histogram("h", bounds=[1.0, 2.0, 5.0])
        for sample in (0.5, 1.5, 4.0, 10.0):
            hist.record(sample)
        assert hist.count == 4
        assert hist.total == pytest.approx(16.0)
        assert hist.mean == pytest.approx(4.0)
        assert hist.min == 0.5
        assert hist.max == 10.0

    def test_bucketing_includes_overflow(self):
        hist = Histogram("h", bounds=[1.0, 2.0])
        hist.record(0.5)   # <= 1.0
        hist.record(1.0)   # <= 1.0 (bound is inclusive)
        hist.record(1.5)   # <= 2.0
        hist.record(99.0)  # overflow
        assert hist.bucket_counts == [2, 1, 1]

    def test_quantiles(self):
        hist = Histogram("h", bounds=[1.0, 2.0, 5.0])
        for sample in (0.5, 0.6, 1.5, 4.0):
            hist.record(sample)
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(1.0) == 5.0
        assert Histogram("empty").quantile(0.5) is None
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_as_dict_lists_only_nonempty_buckets(self):
        hist = Histogram("h", bounds=[1.0, 2.0])
        hist.record(0.5)
        hist.record(10.0)
        snap = hist.as_dict()
        assert snap["count"] == 2
        assert snap["buckets"] == [{"le": 1.0, "count": 1},
                                   {"le": "inf", "count": 1}]

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=[2.0, 1.0])

    def test_default_bounds_cover_ns_to_seconds(self):
        assert DEFAULT_SECONDS_BOUNDS[0] == 1e-9
        assert DEFAULT_SECONDS_BOUNDS[-1] == pytest.approx(5.0)
        assert list(DEFAULT_SECONDS_BOUNDS) == \
            sorted(DEFAULT_SECONDS_BOUNDS)


class TestRegistry:
    def test_instruments_created_once(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_timer_records_into_histogram(self):
        registry = MetricsRegistry()
        with registry.timer("span"):
            pass
        hist = registry.histogram("span")
        assert hist.count == 1
        assert hist.min >= 0.0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h").record(1e-6)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["histograms"]["h"]["count"] == 1


class TestDisabledRegistry:
    def test_null_instruments_are_shared_noops(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("a")
        assert counter is registry.counter("b")
        counter.inc(100)
        assert counter.value == 0
        hist = registry.histogram("h")
        hist.record(1.0)
        assert hist.count == 0
        assert hist.quantile(0.5) is None
        assert hist.as_dict()["buckets"] == []
        with registry.timer("t"):
            pass
        assert registry.snapshot() == {"counters": {}, "histograms": {}}

    def test_module_null_registry_disabled(self):
        assert NULL_REGISTRY.enabled is False
