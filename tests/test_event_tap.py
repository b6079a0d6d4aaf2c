"""The per-hour event tap agrees across drive modes.

Both serving stacks call ``event_tap(hour, events)`` once per applied
hour, with that hour's final event list, before the hour is
acknowledged.  Driving one stream per tick and in 24-hour blocks must
tap the same ``(hour, events)`` records, and the tapped events, in
order, must be exactly the stream the calls returned.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro import GeneratorConfig, TelemetryGenerator, attach_scores, filter_sectors
from repro.core.experiment import SweepRunner
from repro.fleet import FleetConfig, build_fleet
from repro.imputation import ForwardFillImputer
from repro.resilience.degrade import ResilientPredictionEngine
from repro.resilience.guard import ResilientHotSpotService
from repro.resilience.validate import DarkSectorTracker
from repro.serve import (
    HotSpotService,
    ModelRegistry,
    ServeConfig,
    StreamIngestor,
    train_and_register,
)

HORIZONS = (1, 2)
START_DAY = 6
TOP_K = 3
END_HOUR = 300


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    config = GeneratorConfig(n_towers=8, n_weeks=2, seed=7)
    dataset = TelemetryGenerator(config).generate()
    dataset, _ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    dataset = attach_scores(dataset)
    root = tmp_path_factory.mktemp("event-tap")
    registry = ModelRegistry(root / "registry")
    runner = SweepRunner(dataset, n_estimators=3, seed=3)
    train_and_register(
        runner, registry, ("Persist",), START_DAY, HORIZONS, (3,), overwrite=True
    )
    # In the driven stream one sector reports nothing for a stretch, so
    # the tap also sees sector_dark events and dark-masked alerts.
    missing = dataset.kpis.missing.copy()
    missing[0, 150:200, :] = True
    return SimpleNamespace(dataset=dataset, root=root, missing=missing)


def _guarded(env, directory):
    ingestor = StreamIngestor.for_dataset(env.dataset, w_max=7)
    engine = ResilientPredictionEngine(
        ingestor, ModelRegistry(env.root / "registry"), target="hot",
        model="Persist", window=3,
    )
    service = HotSpotService(
        engine, ServeConfig(horizons=HORIZONS, start_day=START_DAY, top_k=TOP_K)
    )
    return ResilientHotSpotService(
        service, dark_tracker=DarkSectorTracker(ingestor.n_sectors, threshold_hours=6)
    )


def _fleet(env, directory):
    config = FleetConfig.for_dataset(
        env.dataset, env.root / "registry", model="Persist", horizons=HORIZONS,
        window=3, start_day=START_DAY, top_k=TOP_K, w_max=7,
        dark_threshold_hours=6, snapshot_every=48,
    )
    return build_fleet(directory, config, 2)


def _run(front, env, batch_hours):
    """Drive the stream; returns (tap records, returned events)."""
    tapped: list[tuple[int, list[dict]]] = []
    front.event_tap = lambda hour, events: tapped.append((hour, list(events)))
    kpis = env.dataset.kpis
    returned: list[dict] = []
    for lo in range(0, END_HOUR, batch_hours):
        hi = min(lo + batch_hours, END_HOUR)
        if batch_hours == 1:
            returned += front.submit_tick(
                kpis.values[:, lo, :], env.missing[:, lo, :],
                env.dataset.calendar[lo], hour=lo,
            )
        else:
            returned += front.submit_block(
                kpis.values[:, lo:hi, :], env.missing[:, lo:hi, :],
                env.dataset.calendar[lo:hi], first_hour=lo,
            )
    return tapped, returned


@pytest.mark.parametrize("stack", ["guarded", "fleet"])
def test_tap_agrees_across_drive_modes(env, tmp_path, stack):
    build = _guarded if stack == "guarded" else _fleet
    runs = {}
    for batch_hours in (1, 24):
        front = build(env, tmp_path / f"b{batch_hours}")
        try:
            runs[batch_hours] = _run(front, env, batch_hours)
        finally:
            if stack == "fleet":
                front.close()
    for tapped, returned in runs.values():
        assert [hour for hour, _ in tapped] == list(range(END_HOUR))
        assert [event for _, events in tapped for event in events] == returned
    assert json.dumps(runs[1][0]) == json.dumps(runs[24][0])
    kinds = {event.get("type") or event.get("event") for event in runs[1][1]}
    assert {"day", "alert", "sector_dark"} <= kinds, sorted(kinds)
