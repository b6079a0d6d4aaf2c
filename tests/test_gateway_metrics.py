"""Prometheus text exposition: rendering and strict validation."""

from __future__ import annotations

import pytest

from repro.gateway import render_prometheus, validate_exposition
from repro.serve import ServeTelemetry


def _telemetry() -> ServeTelemetry:
    telemetry = ServeTelemetry()
    telemetry.inc("ingest_ticks", 7)
    telemetry.inc("ticks_quarantined")
    telemetry.observe("ingest", 0.002)
    telemetry.observe("ingest", 0.004)
    telemetry.observe("ingest", 1.5)
    return telemetry


class TestRender:
    def test_counters_render_with_total_suffix(self):
        text = render_prometheus(_telemetry())
        assert "# TYPE repro_ingest_ticks_total counter" in text
        assert "\nrepro_ingest_ticks_total 7\n" in text
        assert "repro_ticks_quarantined_total 1" in text

    def test_gauges_render_with_labels(self):
        text = render_prometheus(
            _telemetry(),
            extra_gauges=[
                ("dlq_depth", None, 3),
                ("shard_degraded", {"shard": "0"}, 0),
                ("shard_degraded", {"shard": "1"}, 1),
            ],
        )
        assert "# TYPE repro_dlq_depth gauge" in text
        assert "\nrepro_dlq_depth 3\n" in text
        assert 'repro_shard_degraded{shard="0"} 0' in text
        assert 'repro_shard_degraded{shard="1"} 1' in text
        # One TYPE header per family, not per sample.
        assert text.count("# TYPE repro_shard_degraded gauge") == 1

    def test_histogram_buckets_are_cumulative_and_capped(self):
        telemetry = _telemetry()
        text = render_prometheus(telemetry)
        histogram = telemetry.histogram("ingest")
        bucket_values = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_ingest_seconds_bucket")
        ]
        assert bucket_values == sorted(bucket_values)
        assert bucket_values[-1] == histogram.count == 3
        assert f"repro_ingest_seconds_count {histogram.count}" in text
        assert "repro_ingest_seconds_sum" in text

    def test_name_sanitisation(self):
        telemetry = ServeTelemetry()
        telemetry.inc("weird-name.with spaces")
        text = render_prometheus(telemetry)
        assert "repro_weird_name_with_spaces_total 1" in text
        validate_exposition(text)

    def test_prefix_separates_sources(self):
        backend = render_prometheus(_telemetry(), prefix="repro")
        gateway = render_prometheus(_telemetry(), prefix="repro_gateway")
        combined = backend + gateway
        assert validate_exposition(combined) > 0
        assert "repro_gateway_ingest_ticks_total" in gateway

    def test_empty_telemetry_renders_empty(self):
        assert render_prometheus(ServeTelemetry()) == ""
        assert validate_exposition("") == 0


class TestValidate:
    def test_full_render_passes(self):
        text = render_prometheus(
            _telemetry(), extra_gauges=[("shard_hours", {"shard": "0"}, 24)]
        )
        assert validate_exposition(text) > 0

    def test_sample_without_type_rejected(self):
        with pytest.raises(ValueError, match="no TYPE"):
            validate_exposition("repro_orphan_total 3\n")

    def test_malformed_sample_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            validate_exposition(
                "# TYPE bad gauge\nbad{unclosed 3\n"
            )

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ValueError, match="non-numeric"):
            validate_exposition("# TYPE x gauge\nx banana\n")

    def test_non_cumulative_histogram_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="1"} 3\n'
        )
        with pytest.raises(ValueError, match="cumulative"):
            validate_exposition(text)
