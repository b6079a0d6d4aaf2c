"""A guarded service resumed inside a dark span keeps the sector dark.

The dark tracker is not in the checkpoint; the guarded service rebuilds
it from the recovered ring.  Killing the service while a sector is dark
and resuming from its checkpoint directory must continue the
uninterrupted stream exactly: no second ``sector_dark`` announcement,
and the sector stays masked out of alerts.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro import GeneratorConfig, TelemetryGenerator, attach_scores, filter_sectors
from repro.core.experiment import SweepRunner
from repro.fleet import FleetConfig, build_fleet
from repro.imputation import ForwardFillImputer
from repro.resilience import CheckpointManager, ResilientHotSpotService
from repro.resilience.degrade import ResilientPredictionEngine
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
THRESHOLD = 6
DARK_SECTOR = 2
DARK_SPAN = (200, 260)
KILL_HOUR = 230
END_HOUR = 300


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    config = GeneratorConfig(n_towers=8, n_weeks=2, seed=7)
    dataset = TelemetryGenerator(config).generate()
    dataset, _ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    dataset = attach_scores(dataset)
    root = tmp_path_factory.mktemp("guard-dark-resume")
    registry = ModelRegistry(root / "registry")
    runner = SweepRunner(dataset, n_estimators=3, seed=3)
    train_and_register(
        runner, registry, ("Persist",), START_DAY, HORIZONS, (3,), overwrite=True
    )
    missing = dataset.kpis.missing.copy()
    missing[DARK_SECTOR, DARK_SPAN[0]:DARK_SPAN[1], :] = True
    return SimpleNamespace(dataset=dataset, root=root, missing=missing)


def _guarded(env, directory, ingestor=None):
    if ingestor is None:
        ingestor = StreamIngestor.for_dataset(env.dataset, w_max=7)
    engine = ResilientPredictionEngine(
        ingestor, ModelRegistry(env.root / "registry"), target="hot",
        model="Persist", window=3,
    )
    service = HotSpotService(
        engine, ServeConfig(horizons=HORIZONS, start_day=START_DAY, top_k=3)
    )
    guarded = ResilientHotSpotService(
        service,
        dark_tracker=DarkSectorTracker(ingestor.n_sectors, threshold_hours=THRESHOLD),
        checkpoint=CheckpointManager.for_ingestor(directory, ingestor, snapshot_every=48),
    )
    records = []
    guarded.event_tap = lambda hour, events: records.append(
        (hour, json.dumps(events))
    )
    return guarded, records


def _drive(env, guarded, lo: int, hi: int, batch: int) -> list[str]:
    kpis = env.dataset.kpis
    lines = []
    for start in range(lo, hi, batch):
        stop = min(start + batch, hi)
        events = guarded.submit_block(
            kpis.values[:, start:stop, :], env.missing[:, start:stop, :],
            env.dataset.calendar[start:stop], first_hour=start,
        )
        lines.extend(json.dumps(event) for event in events)
    return lines


@pytest.mark.parametrize("batch", [1, 24])
def test_resume_inside_dark_span_continues_the_stream(env, tmp_path, batch):
    full, full_records = _guarded(env, tmp_path / "full")
    full_lines = _drive(env, full, 0, END_HOUR, batch)
    full.checkpoint.close()
    dark = [
        json.loads(line) for line in full_lines
        if json.loads(line).get("event") == "sector_dark"
    ]
    assert [(e["sector"], e["hour"]) for e in dark] == [
        (DARK_SECTOR, DARK_SPAN[0] + THRESHOLD - 1)
    ]

    killed, _ = _guarded(env, tmp_path / "ckpt")
    _drive(env, killed, 0, KILL_HOUR, batch)
    killed.checkpoint.close()
    recovered = CheckpointManager.recover(tmp_path / "ckpt")
    assert recovered.ingestor.hours_seen == KILL_HOUR
    resumed, resumed_records = _guarded(env, tmp_path / "ckpt", recovered.ingestor)
    assert resumed.dark.dark_sectors == [DARK_SECTOR]
    resumed_lines = _drive(env, resumed, KILL_HOUR, END_HOUR, batch)
    resumed.checkpoint.close()

    assert resumed_records == [r for r in full_records if r[0] >= KILL_HOUR]
    head = sum(len(json.loads(events)) for hour, events in full_records if hour < KILL_HOUR)
    assert resumed_lines == full_lines[head:]


def test_dark_threshold_beyond_the_ring_is_refused(env, tmp_path):
    # The tracker's runs are rebuilt from the ring on resume, which
    # holds at most `capacity` hours of a run: a longer threshold would
    # resume with no dark sectors and announce a second time.
    ingestor = StreamIngestor.for_dataset(env.dataset, w_max=7)
    assert ingestor.capacity == 192
    engine = ResilientPredictionEngine(
        ingestor, ModelRegistry(env.root / "registry"), target="hot",
        model="Persist", window=3,
    )
    service = HotSpotService(engine, ServeConfig(horizons=HORIZONS, start_day=START_DAY))
    with pytest.raises(ValueError, match=r"200 h exceeds the 192-hour"):
        ResilientHotSpotService(
            service, dark_tracker=DarkSectorTracker(ingestor.n_sectors, threshold_hours=200)
        )
    ResilientHotSpotService(
        service, dark_tracker=DarkSectorTracker(ingestor.n_sectors, threshold_hours=192)
    )
    config = FleetConfig.for_dataset(
        env.dataset, env.root / "registry", model="Persist", horizons=HORIZONS,
        window=3, start_day=START_DAY, w_max=7, dark_threshold_hours=200,
    )
    with pytest.raises(ValueError, match=r"200 h exceeds the 192-hour"):
        build_fleet(tmp_path / "fleet", config, 2)
