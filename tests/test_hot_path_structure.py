"""The guarded hot path does the least work per block, counted by calls.

A steady-state, day-aligned 24-h block into the guarded stack closes
one day.  Its forecasts must come from the packed forest kernel (no
per-tree ``DecisionTreeClassifier.predict_proba``), one forest
``predict_proba`` per horizon over one shared design, and one Eq. 5
percentile reduction for the one new day; the block must reach the
ingestor as one chunk and the WAL as one ``record_block``.  The counts
are deterministic, so this replaces a timed "packed faster than legacy"
gate: each regression back to the legacy path changes one of them.
"""

from __future__ import annotations

import repro.core.feature_sets as feature_sets
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.resilience.checkpoint import CheckpointManager
from repro.serve import ModelRegistry, StreamIngestor
from tests.test_hot_path_parity import drive, guarded_stack, served_models

STEADY_DAY = 20  # past the first alerted day (14) and the 3-day window


def _count(monkeypatch, owner, name, record):
    """Wrap ``owner.name`` so each call appends ``record(*args)`` to a list."""
    calls: list = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_day_block_takes_the_packed_path_once(rf_serving, tmp_path, monkeypatch):
    registry = ModelRegistry(rf_serving.registry_root)
    served_models(rf_serving, registry)
    first_hour = STEADY_DAY * 24
    with guarded_stack(rf_serving, registry, tmp_path / "guarded") as guarded:
        drive(guarded, rf_serving, 0, first_hour, 24)
        telemetry = guarded.telemetry
        design_misses = telemetry.counter("design_cache_misses")
        design_hits = telemetry.counter("design_cache_hits")

        tree_calls = _count(
            monkeypatch, DecisionTreeClassifier, "predict_proba",
            lambda tree, X: X.shape[0],
        )
        forest_calls = _count(
            monkeypatch, RandomForestClassifier, "predict_proba",
            lambda forest, X: X.shape[0],
        )
        percentile_days = _count(
            monkeypatch, feature_sets, "_daily_percentiles",
            lambda daily: daily.shape[1],
        )
        ingest_hours = _count(
            monkeypatch, StreamIngestor, "ingest_block",
            lambda ingestor, values, *rest, **kw: values.shape[1],
        )
        journaled = _count(
            monkeypatch, CheckpointManager, "record_block",
            lambda manager, hour0, values, *rest: (hour0, values.shape[1]),
        )
        lines = drive(guarded, rf_serving, first_hour, first_hour + 24, 24)

        n_sectors = rf_serving.dataset.n_sectors
        assert any('"type": "alert"' in line for line in lines)
        assert tree_calls == []
        assert forest_calls == [n_sectors] * len(rf_serving.horizons)
        assert percentile_days == [1]
        assert ingest_hours == [24]
        assert journaled == [(first_hour, 24)]
        assert telemetry.counter("design_cache_misses") - design_misses == 1
        assert (
            telemetry.counter("design_cache_hits") - design_hits
            == len(rf_serving.horizons) - 1
        )
