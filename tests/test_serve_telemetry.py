"""Serving telemetry: counters, latency histograms, quantile estimates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import LatencyHistogram, ServeTelemetry


class TestLatencyHistogram:
    def test_count_mean_max(self):
        histogram = LatencyHistogram()
        for seconds in (0.001, 0.002, 0.003):
            histogram.record(seconds)
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(0.002)
        assert histogram.max == pytest.approx(0.003)

    def test_quantiles_bracket_true_values(self):
        histogram = LatencyHistogram()
        for _ in range(100):
            histogram.record(0.010)
        for _ in range(5):
            histogram.record(1.0)
        # p50 sits in the 10 ms bucket (bucket ratio ~1.3 with defaults),
        # p99 in the 1 s bucket.
        assert 0.005 < histogram.quantile(0.50) < 0.020
        assert 0.5 < histogram.quantile(0.99) <= 1.0

    def test_quantiles_monotonic(self):
        histogram = LatencyHistogram()
        for i in range(1, 200):
            histogram.record(i * 1e-4)
        estimates = [histogram.quantile(q) for q in (0.1, 0.5, 0.9, 0.99, 1.0)]
        assert estimates == sorted(estimates)
        assert estimates[-1] == histogram.max

    def test_out_of_range_observations_clamped(self):
        histogram = LatencyHistogram(lo=1e-3, hi=1.0, n_buckets=8)
        histogram.record(1e-9)  # below lo -> first bucket
        histogram.record(100.0)  # above hi -> overflow bucket
        assert histogram.count == 2
        assert histogram.quantile(1.0) == pytest.approx(100.0)

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.mean == 0.0
        assert histogram.quantile(0.99) == 0.0
        assert histogram.summary()["count"] == 0

    def test_summary_keys(self):
        histogram = LatencyHistogram()
        histogram.record(0.5)
        assert set(histogram.summary()) == {"count", "mean", "p50", "p99", "max"}

    def test_validation(self):
        with pytest.raises(ValueError, match="lo"):
            LatencyHistogram(lo=0.0)
        with pytest.raises(ValueError, match="n_buckets"):
            LatencyHistogram(n_buckets=1)
        histogram = LatencyHistogram()
        with pytest.raises(ValueError, match="non-negative"):
            histogram.record(-1.0)
        with pytest.raises(ValueError, match="non-negative"):
            histogram.record(float("nan"))
        assert histogram.count == 0
        with pytest.raises(ValueError, match="q must be"):
            histogram.quantile(1.5)

    def test_buckets_match_searchsorted(self):
        """Bucketing is ``np.searchsorted``'s left side, edges included."""
        histogram = LatencyHistogram(lo=1e-3, hi=1.0, n_buckets=8)
        bounds = histogram.bucket_bounds
        samples = [0.0, *bounds, *(bounds * 1.01), *(bounds * 0.99), 50.0]
        for seconds in samples:
            histogram.record(seconds)
        expected = np.bincount(
            np.searchsorted(bounds, samples), minlength=bounds.size + 1
        )
        assert histogram.bucket_counts.tolist() == expected.tolist()

    def test_explicit_bounds(self):
        histogram = LatencyHistogram(bounds=[0.01, 0.1, 1.0])
        histogram.record(0.05)
        histogram.record(5.0)  # above the last edge -> overflow slot
        assert list(histogram.bucket_bounds) == [0.01, 0.1, 1.0]
        assert histogram.bucket_counts.sum() == 2
        assert histogram.bucket_counts[-1] == 1

    def test_bound_views_are_read_only(self):
        histogram = LatencyHistogram(bounds=[0.01, 0.1])
        with pytest.raises(ValueError):
            histogram.bucket_bounds[0] = 9.0
        with pytest.raises(ValueError):
            histogram.bucket_counts[0] = 9

    def test_explicit_bounds_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            LatencyHistogram(bounds=[0.1, 0.1, 1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            LatencyHistogram(bounds=[1.0, 0.1])
        with pytest.raises(ValueError, match="positive and finite"):
            LatencyHistogram(bounds=[-1.0, 1.0])
        with pytest.raises(ValueError, match="positive and finite"):
            LatencyHistogram(bounds=[0.1, float("inf")])
        with pytest.raises(ValueError, match=">= 2 edges"):
            LatencyHistogram(bounds=[0.5])


class TestServeTelemetry:
    def test_counters(self):
        telemetry = ServeTelemetry()
        assert telemetry.counter("ticks") == 0
        assert telemetry.inc("ticks") == 1
        assert telemetry.inc("ticks", 5) == 6
        assert telemetry.counter("ticks") == 6

    def test_timer_records_into_histogram(self):
        telemetry = ServeTelemetry()
        with telemetry.timer("op"):
            pass
        assert telemetry.histogram("op").count == 1
        assert telemetry.histogram("op").max >= 0.0

    def test_timer_records_on_exception(self):
        telemetry = ServeTelemetry()
        with pytest.raises(RuntimeError):
            with telemetry.timer("op"):
                raise RuntimeError("boom")
        assert telemetry.histogram("op").count == 1

    def test_observe_and_stats_snapshot(self):
        telemetry = ServeTelemetry()
        telemetry.inc("hits", 3)
        telemetry.observe("lat", 0.25)
        stats = telemetry.stats()
        assert stats["counters"] == {"hits": 3}
        assert stats["latency"]["lat"]["count"] == 1
        assert stats["latency"]["lat"]["max"] == pytest.approx(0.25)

    def test_histograms_created_lazily_once(self):
        telemetry = ServeTelemetry()
        assert telemetry.histogram("a") is telemetry.histogram("a")

    def test_histograms_snapshot_shares_refs(self):
        telemetry = ServeTelemetry()
        telemetry.observe("lat", 0.1)
        snapshot = telemetry.histograms()
        assert snapshot["lat"] is telemetry.histogram("lat")
        # The mapping itself is a copy: mutating it can't unregister.
        snapshot.clear()
        assert telemetry.histogram("lat").count == 1


class TestMerge:
    @staticmethod
    def _loaded(seed_counters, latencies, events):
        telemetry = ServeTelemetry()
        for name, amount in seed_counters.items():
            telemetry.inc(name, amount)
        for name, seconds in latencies:
            telemetry.observe(name, seconds)
        for kind in events:
            telemetry.event(kind, hour=len(events))
        return telemetry

    def test_histogram_merge_pools_counts(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for seconds in (0.001, 0.010, 0.100):
            a.record(seconds)
        b.record(0.500)
        a.merge_from(b)
        assert a.count == 4
        assert a.total == pytest.approx(0.611)
        assert a.max == pytest.approx(0.5)
        # Pooled quantiles equal a single histogram fed both streams.
        both = LatencyHistogram()
        for seconds in (0.001, 0.010, 0.100, 0.500):
            both.record(seconds)
        assert a.quantile(0.5) == both.quantile(0.5)
        assert a.quantile(0.99) == both.quantile(0.99)

    def test_histogram_merge_rejects_mismatched_buckets(self):
        with pytest.raises(ValueError, match="bucket boundaries"):
            LatencyHistogram().merge_from(LatencyHistogram(n_buckets=8))

    def test_merge_sums_counters_and_events(self):
        a = self._loaded({"ticks": 3, "alerts": 1}, [("lat", 0.2)], ["gap_fill"])
        b = self._loaded({"ticks": 5}, [("lat", 0.4), ("other", 0.1)], [])
        merged = a.merge([b])
        stats = merged.stats()
        assert stats["counters"]["ticks"] == 8
        assert stats["counters"]["alerts"] == 1
        assert stats["counters"]["events_gap_fill"] == 1
        assert stats["latency"]["lat"]["count"] == 2
        assert stats["latency"]["other"]["count"] == 1
        assert stats["events"]["seen"] == 1

    def test_merge_is_commutative(self):
        a = self._loaded({"ticks": 3}, [("lat", 0.2), ("lat", 0.9)], ["x"])
        b = self._loaded({"ticks": 4, "hits": 2}, [("lat", 0.05)], ["y", "z"])
        c = self._loaded({}, [("ingest", 1.5)], [])
        assert a.merge([b, c]).stats() == c.merge([a, b]).stats()
        assert a.merge([b]).stats() == b.merge([a]).stats()

    def test_merge_leaves_operands_untouched(self):
        a = self._loaded({"ticks": 1}, [("lat", 0.1)], [])
        b = self._loaded({"ticks": 2}, [("lat", 0.2)], [])
        before_a, before_b = a.stats(), b.stats()
        a.merge([b])
        assert a.stats() == before_a
        assert b.stats() == before_b
