"""The guarded service's commit order, pinned at every worker seam.

The guard applies each day chunk of a block, releases its events (the
event tap sees each hour's final list), then appends the chunk to its
WAL, the commit point.  Killing its one worker at any seam inside a
24-hour ``submit_block`` and resuming from the checkpoint must continue
the uninterrupted stream from the recovered clock.  The tap may see the
hours of a released-but-unjournaled chunk twice, and then with the same
events.  A chunk that fails after its apply leaves the clock where the
engine stands, so the next tick is neither a gap nor a duplicate.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro import GeneratorConfig, TelemetryGenerator, attach_scores, filter_sectors
from repro.core.experiment import SweepRunner
from repro.fleet import SimulatedKill
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
BLOCK = 24
END_HOUR = 312
KILL_HOUR = 221  # inside the block [216, 240), past the snapshot at 192
DARK_SECTOR = 2
DARK_SPAN = (200, 260)  # dark across the kill


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    config = GeneratorConfig(n_towers=8, n_weeks=2, seed=7)
    dataset = TelemetryGenerator(config).generate()
    dataset, _ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    dataset = attach_scores(dataset)
    root = tmp_path_factory.mktemp("guard-kill")
    registry = ModelRegistry(root / "registry")
    runner = SweepRunner(dataset, n_estimators=3, seed=3)
    train_and_register(
        runner, registry, ("Persist",), START_DAY, HORIZONS, (3,), overwrite=True
    )
    missing = dataset.kpis.missing.copy()
    missing[DARK_SECTOR, DARK_SPAN[0]:DARK_SPAN[1], :] = True
    return SimpleNamespace(dataset=dataset, root=root, missing=missing)


def _guarded(env, directory, ingestor=None, checkpoint=True):
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
        dark_tracker=DarkSectorTracker(ingestor.n_sectors, threshold_hours=6),
        checkpoint=(
            CheckpointManager.for_ingestor(directory, ingestor, snapshot_every=48)
            if checkpoint else None
        ),
    )
    tapped: list[tuple[int, str]] = []
    guarded.event_tap = lambda hour, events: tapped.append((hour, json.dumps(events)))
    return guarded, tapped


def _worker(guarded):
    """The guard's one in-process shard worker."""
    return guarded.backend.workers[0]


def _drive(env, guarded, lo: int, hi: int) -> list[str]:
    kpis = env.dataset.kpis
    lines = []
    for start in range(lo, hi, BLOCK):
        stop = min(start + BLOCK, hi)
        events = guarded.submit_block(
            kpis.values[:, start:stop, :], env.missing[:, start:stop, :],
            env.dataset.calendar[start:stop], first_hour=start,
        )
        lines.extend(json.dumps(event) for event in events)
    return lines


@pytest.fixture(scope="module")
def uninterrupted(env, tmp_path_factory):
    guarded, tapped = _guarded(env, tmp_path_factory.mktemp("guard-full"))
    lines = _drive(env, guarded, 0, END_HOUR)
    guarded.close()
    assert [hour for hour, _ in tapped] == list(range(END_HOUR))
    return lines, tapped


@pytest.mark.parametrize(
    ("point", "resume_at", "retapped"),
    [
        # Killed before the chunk's apply: nothing of it was released.
        ("mid_apply", 216, ()),
        # Released, not journaled: resume re-applies and re-taps it.
        ("mid_journal", 216, tuple(range(216, 240))),
        # Journaled after its release: resume starts past it.
        ("post_journal", 240, ()),
    ],
)
def test_kill_inside_a_block_resumes_the_stream(
    env, uninterrupted, tmp_path, point, resume_at, retapped
):
    full_lines, full_tapped = uninterrupted
    guarded, tapped = _guarded(env, tmp_path)
    _worker(guarded).kill_at = (point, KILL_HOUR)
    with pytest.raises(SimulatedKill):
        _drive(env, guarded, 0, END_HOUR)
    # Simulated crash: no close(), the WAL handle dies with the process.
    recovered = CheckpointManager.recover(tmp_path)
    resumed, resumed_tapped = _guarded(env, tmp_path, recovered.ingestor)
    assert resumed.clock == resume_at
    assert resumed.dark.dark_sectors == [DARK_SECTOR]
    lines = _drive(env, resumed, resumed.clock, END_HOUR)
    resumed.close()

    head = sum(len(json.loads(events)) for hour, events in full_tapped if hour < resume_at)
    assert lines == full_lines[head:]
    by_hour: dict[int, str] = {}
    seen_twice = []
    for hour, events in tapped + resumed_tapped:
        if hour in by_hour:
            seen_twice.append(hour)
            assert events == by_hour[hour], f"hour {hour} re-tapped with other events"
        by_hour[hour] = events
    assert sorted(by_hour.items()) == full_tapped
    assert tuple(seen_twice) == retapped


def test_clock_after_a_failed_chunk_is_the_engine_clock(env, tmp_path):
    guarded, _ = _guarded(env, tmp_path, checkpoint=False)
    _drive(env, guarded, 0, 168)

    def failing_hook(tick):
        if tick.t_day == 8:
            raise RuntimeError("day hook failed")
        return []

    guarded.service.add_day_hook(failing_hook)
    kpis = env.dataset.kpis
    with pytest.raises(RuntimeError, match="day hook failed"):
        guarded.submit_block(
            kpis.values[:, 168:216, :], env.missing[:, 168:216, :],
            env.dataset.calendar[168:216], first_hour=168,
        )
    # The second day's chunk was applied before its hook raised.
    assert guarded.ingestor.hours_seen == 216
    assert guarded.clock == guarded.ingestor.hours_seen
    guarded.service.day_hooks.remove(failing_hook)
    events = guarded.submit_tick(
        kpis.values[:, 216, :], env.missing[:, 216, :], env.dataset.calendar[216],
        hour=216,
    )
    kinds = {event.get("event") for event in events}
    assert not kinds & {"gap_fill", "duplicate", "quarantine"}, kinds
    assert guarded.clock == guarded.ingestor.hours_seen == 217
