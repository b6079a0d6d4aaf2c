"""The packed serving hot path replays the legacy one bitwise.

The legacy path (:func:`tests.oracles.legacy_path`) is the per-tree
forest loop, the ``np.percentile`` feature view and a design rebuilt
from the full window for every horizon.  Driven one hour at a time, its
event stream is the reference for the packed path: the micro-batch
ingest, the packed forest kernel, the per-day percentile blocks and the
cross-horizon design cache.  :class:`HotSpotService` must match it at
batch 1 and 24, and the guarded stack (validation, WAL, dark tracker)
at batch 24.  Fleet legs are held to the guarded stream by
``test_fleet_parity``, and the kernel alone by ``test_ml_packed``.
"""

from __future__ import annotations

import json

import pytest

from repro.ml.forest import RandomForestClassifier
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.degrade import ResilientPredictionEngine
from repro.resilience.guard import ResilientHotSpotService
from repro.resilience.validate import DarkSectorTracker
from repro.serve import (
    HotSpotService,
    ModelRegistry,
    PredictionEngine,
    ServeConfig,
    StreamIngestor,
)
from repro.serve.registry import ModelKey
from tests.oracles import legacy_path


def served_models(world, registry):
    """The forecasters *registry* serves for every horizon of *world*."""
    models = [
        registry.get(ModelKey("hot", world.model, horizon, world.window))
        for horizon in world.horizons
    ]
    assert all(isinstance(model._model, RandomForestClassifier) for model in models), (
        "fixture regression: a training day with one class fits no forest"
    )
    return models


def service_stack(world, registry):
    """A plain :class:`HotSpotService` over *registry*."""
    ingestor = StreamIngestor.for_dataset(world.dataset, w_max=world.window)
    engine = PredictionEngine(
        ingestor, registry, model=world.model, window=world.window
    )
    return HotSpotService(engine, _serve_config(world))


def guarded_stack(world, registry, directory):
    """The guarded service with a WAL under *directory*."""
    ingestor = StreamIngestor.for_dataset(world.dataset, w_max=world.window)
    engine = ResilientPredictionEngine(
        ingestor, registry, target="hot", model=world.model, window=world.window
    )
    return ResilientHotSpotService(
        HotSpotService(engine, _serve_config(world)),
        dark_tracker=DarkSectorTracker(ingestor.n_sectors, threshold_hours=6),
        checkpoint=CheckpointManager.for_ingestor(
            directory, ingestor, snapshot_every=100_000
        ),
    )


def _serve_config(world):
    return ServeConfig(
        horizons=world.horizons, start_day=world.start_day, top_k=world.top_k
    )


def drive(stack, world, start, end, batch):
    """Event lines of hours ``[start, end)`` fed *batch* hours a call.

    A guarded stack gets declared hours (``submit_tick`` /
    ``submit_block``), a plain service ``ingest_hour`` /
    ``ingest_block``.
    """
    kpis, calendar = world.dataset.kpis, world.dataset.calendar
    guarded = isinstance(stack, ResilientHotSpotService)
    lines: list[str] = []
    for lo in range(start, end, batch):
        hi = min(lo + batch, end)
        if batch == 1 and guarded:
            events = stack.submit_tick(
                kpis.values[:, lo, :], kpis.missing[:, lo, :], calendar[lo], hour=lo
            )
        elif batch == 1:
            events = stack.ingest_hour(
                kpis.values[:, lo, :], kpis.missing[:, lo, :], calendar[lo]
            )
        elif guarded:
            events = stack.submit_block(
                kpis.values[:, lo:hi, :], kpis.missing[:, lo:hi, :],
                calendar[lo:hi], first_hour=lo,
            )
        else:
            events = stack.ingest_block(
                kpis.values[:, lo:hi, :], kpis.missing[:, lo:hi, :], calendar[lo:hi]
            )
        lines.extend(json.dumps(event) for event in events)
    return lines


def _alerts(lines):
    return sum(json.loads(line).get("type") == "alert" for line in lines)


@pytest.fixture(scope="module")
def registry(rf_serving):
    return ModelRegistry(rf_serving.registry_root)


@pytest.fixture(scope="module")
def legacy_service_stream(rf_serving, registry):
    end = rf_serving.dataset.kpis.n_hours
    with legacy_path(served_models(rf_serving, registry)):
        lines = drive(service_stack(rf_serving, registry), rf_serving, 0, end, 1)
    assert _alerts(lines) > 0, "fixture regression: the stream carries no alerts"
    return lines


@pytest.mark.parametrize("batch", [1, 24])
def test_service_stream_matches_the_legacy_path(
    rf_serving, registry, legacy_service_stream, batch
):
    end = rf_serving.dataset.kpis.n_hours
    lines = drive(service_stack(rf_serving, registry), rf_serving, 0, end, batch)
    assert lines == legacy_service_stream


def test_guarded_stream_matches_the_legacy_path(rf_serving, registry, tmp_path):
    end = rf_serving.dataset.kpis.n_hours
    with legacy_path(served_models(rf_serving, registry)):
        with guarded_stack(rf_serving, registry, tmp_path / "legacy") as guarded:
            legacy = drive(guarded, rf_serving, 0, end, 1)
    assert _alerts(legacy) > 0
    with guarded_stack(rf_serving, registry, tmp_path / "packed") as guarded:
        lines = drive(guarded, rf_serving, 0, end, 24)
    assert lines == legacy
