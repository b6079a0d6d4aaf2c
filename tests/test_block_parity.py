"""Micro-batch replay parity and crash recovery.

Two contracts ride on ``submit_block``:

* **Guard** — :meth:`ResilientHotSpotService.submit_block` emits the
  same events, leaves the same ingestor state, and journals the same
  WAL bytes as per-hour :meth:`submit_tick`; any non-clean column
  (duplicate, gap) discards the probe and falls back to the per-hour
  path with the original inputs.
* **Fleet** — :meth:`FleetCoordinator.submit_block` matches the
  per-hour merged stream on both backends, and a kill at any seam
  inside a block resumes bitwise.  The nasty case: a crash in a *later*
  day chunk of a multi-day block must re-emit *earlier* chunks' day
  events from the persisted response store (a single "last response"
  file would have been overwritten and the events silently lost).
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro import GeneratorConfig, TelemetryGenerator, attach_scores, filter_sectors
from repro.core.experiment import SweepRunner
from repro.fleet import FleetConfig, SimulatedKill, SupervisorConfig, build_fleet, recover_fleet
from repro.imputation import ForwardFillImputer
from repro.resilience.checkpoint import CheckpointManager
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
END_HOUR = 380
BLOCK = 37  # deliberately not day-aligned: blocks straddle day chunks


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    config = GeneratorConfig(n_towers=8, n_weeks=3, seed=7)
    dataset = TelemetryGenerator(config).generate()
    dataset, _ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    dataset = attach_scores(dataset)
    root = tmp_path_factory.mktemp("block-parity")
    registry = ModelRegistry(root / "registry")
    runner = SweepRunner(dataset, n_estimators=3, seed=3)
    train_and_register(
        runner, registry, ("Persist",), START_DAY, HORIZONS, (3,), overwrite=True
    )
    return SimpleNamespace(dataset=dataset, root=root)


# --------------------------------------------------------------------------
# guard: single-engine micro-batch parity
# --------------------------------------------------------------------------
def _guard(env, directory, snapshot_every=100_000):
    """Single-engine resilient service with a WAL under *directory*.

    ``snapshot_every`` defaults huge so the journal never rotates and
    the WAL byte comparison sees one segment per run.
    """
    ingestor = StreamIngestor.for_dataset(env.dataset, w_max=7)
    engine = ResilientPredictionEngine(
        ingestor, ModelRegistry(env.root / "registry"), target="hot",
        model="Persist", window=3,
    )
    service = HotSpotService(
        engine, ServeConfig(horizons=HORIZONS, start_day=START_DAY, top_k=TOP_K)
    )
    checkpoint = CheckpointManager.for_ingestor(
        directory, ingestor, snapshot_every=snapshot_every
    )
    return ResilientHotSpotService(
        service,
        dark_tracker=DarkSectorTracker(ingestor.n_sectors, threshold_hours=6),
        checkpoint=checkpoint,
    )


def _drive_hourly(guarded, env, start, end):
    kpis = env.dataset.kpis
    lines = []
    for hour in range(start, end):
        events = guarded.submit_tick(
            kpis.values[:, hour, :],
            kpis.missing[:, hour, :],
            env.dataset.calendar[hour],
            hour=hour,
        )
        lines.extend(json.dumps(event) for event in events)
    return lines


def _drive_blocks(guarded, env, start, end, block):
    kpis = env.dataset.kpis
    lines = []
    for lo in range(start, end, block):
        hi = min(lo + block, end)
        events = guarded.submit_block(
            kpis.values[:, lo:hi, :],
            kpis.missing[:, lo:hi, :],
            env.dataset.calendar[lo:hi],
            first_hour=lo,
        )
        lines.extend(json.dumps(event) for event in events)
    return lines


def _wal_bytes(directory) -> bytes:
    segments = sorted(Path(directory).glob("wal-*.log"))
    assert segments, f"no WAL segments under {directory}"
    return b"".join(path.read_bytes() for path in segments)


def _assert_ingestors_equal(a: StreamIngestor, b: StreamIngestor) -> None:
    sa, sb = a.state_dict(), b.state_dict()
    assert sa["meta"] == sb["meta"]
    assert set(sa["arrays"]) == set(sb["arrays"])
    for key in sa["arrays"]:
        np.testing.assert_array_equal(
            sa["arrays"][key], sb["arrays"][key], err_msg=f"array {key!r} differs"
        )


class TestGuardBlocks:
    @pytest.mark.parametrize("block", [24, BLOCK])
    def test_stream_state_and_wal_match_hourly(self, env, tmp_path, block):
        hourly = _guard(env, tmp_path / "hourly")
        blocked = _guard(env, tmp_path / "blocked")
        lines_a = _drive_hourly(hourly, env, 0, END_HOUR)
        lines_b = _drive_blocks(blocked, env, 0, END_HOUR, block)
        assert lines_a == lines_b
        _assert_ingestors_equal(hourly.ingestor, blocked.ingestor)
        assert _wal_bytes(tmp_path / "hourly") == _wal_bytes(tmp_path / "blocked")

    def test_duplicate_column_falls_back_and_reconciles(self, env, tmp_path):
        guarded = _guard(env, tmp_path / "dup")
        _drive_hourly(guarded, env, 0, 50)
        kpis = env.dataset.kpis
        # Column 0 re-sends hour 49; the probe sees RECONCILE and the
        # whole block replays per hour with the original inputs.
        values = np.concatenate(
            [kpis.values[:, 49:50, :], kpis.values[:, 50:52, :]], axis=1
        )
        missing = np.concatenate(
            [kpis.missing[:, 49:50, :], kpis.missing[:, 50:52, :]], axis=1
        )
        rows = np.concatenate(
            [env.dataset.calendar[49:50], env.dataset.calendar[50:52]]
        )
        events = guarded.submit_block(values, missing, rows, first_hour=49)
        assert any(event.get("event") == "duplicate" for event in events)
        assert guarded.ingestor.hours_seen == 52
        assert guarded.telemetry.stats()["counters"]["ticks_reconciled"] == 1

    def test_gap_ahead_falls_back_and_gap_fills(self, env, tmp_path):
        guarded = _guard(env, tmp_path / "gap")
        _drive_hourly(guarded, env, 0, 50)
        kpis = env.dataset.kpis
        events = guarded.submit_block(
            kpis.values[:, 52:55, :],
            kpis.missing[:, 52:55, :],
            env.dataset.calendar[52:55],
            first_hour=52,  # two hours ahead of the clock
        )
        fills = [e for e in events if e.get("event") == "gap_fill"]
        assert [fill["hour"] for fill in fills] == [50, 51]
        assert guarded.ingestor.hours_seen == 55


# --------------------------------------------------------------------------
# fleet: block broadcast parity and kill/resume
# --------------------------------------------------------------------------
def _config(env):
    return FleetConfig.for_dataset(
        env.dataset, env.root / "registry", model="Persist", horizons=HORIZONS,
        window=3, start_day=START_DAY, top_k=TOP_K, w_max=7,
        dark_threshold_hours=6, snapshot_every=48,
    )


def _drive_fleet_blocks(fleet, env, start, end, lines, block=BLOCK):
    kpis = env.dataset.kpis
    for lo in range(start, end, block):
        hi = min(lo + block, end)
        events = fleet.submit_block(
            kpis.values[:, lo:hi, :],
            kpis.missing[:, lo:hi, :],
            env.dataset.calendar[lo:hi],
            first_hour=lo,
        )
        lines.extend(json.dumps(event) for event in events)


@pytest.fixture(scope="module")
def baseline(env):
    """Uninterrupted per-hour 2-shard stream every block run must match."""
    fleet = build_fleet(env.root / "baseline", _config(env), 2)
    lines: list[str] = []
    try:
        kpis = env.dataset.kpis
        for hour in range(END_HOUR):
            events = fleet.submit_tick(
                kpis.values[:, hour, :],
                kpis.missing[:, hour, :],
                env.dataset.calendar[hour],
                hour=hour,
            )
            lines.extend(json.dumps(event) for event in events)
    finally:
        fleet.close()
    return lines


class TestFleetBlocks:
    @pytest.mark.parametrize("block", [24, BLOCK])
    def test_serial_block_stream_matches_hourly(self, env, baseline, tmp_path, block):
        fleet = build_fleet(tmp_path, _config(env), 2)
        lines: list[str] = []
        try:
            _drive_fleet_blocks(fleet, env, 0, END_HOUR, lines, block=block)
        finally:
            fleet.close()
        assert lines == baseline

    def test_process_block_stream_matches_hourly(self, env, baseline, tmp_path):
        fleet = build_fleet(tmp_path, _config(env), 2, supervise=SupervisorConfig())
        lines: list[str] = []
        try:
            if fleet.backend.name != "supervised":
                pytest.skip("forked shard hosts unavailable on this host")
            # BLOCK > the broadcast capacity: the coordinator must split
            # the block into capacity slices transparently.
            assert fleet.backend.block_capacity < BLOCK
            _drive_fleet_blocks(fleet, env, 0, END_HOUR, lines)
        finally:
            fleet.close()
        assert lines == baseline

    # Hour 215 sits in the middle day chunk of block [185, 222); hour
    # 217 sits in its *last* chunk, after the chunks holding the day
    # events of t_day 7 (hour 191) and t_day 8 (hour 215) journaled —
    # the resume must re-emit both from the persisted response store.
    @pytest.mark.parametrize(
        ("point", "hour"),
        [
            ("mid_apply", 215),
            ("mid_journal", 215),
            ("post_journal", 215),
            ("mid_journal", 217),
            ("post_journal", 217),
            ("mid_merge", 215),
        ],
    )
    def test_block_kill_and_resume_is_bitwise(
        self, env, baseline, tmp_path, point, hour
    ):
        fleet = build_fleet(tmp_path, _config(env), 2)
        lines: list[str] = []
        if point == "mid_merge":
            fleet.kill_at = ("mid_merge", hour)
        else:
            fleet.backend.workers[1].kill_at = (point, hour)
        with pytest.raises(SimulatedKill):
            _drive_fleet_blocks(fleet, env, 0, END_HOUR, lines)
        # The killed block released nothing: the resume clock rolls all
        # the way back to the watermark (the block's first hour).
        resumed = recover_fleet(tmp_path, _config(env))
        assert resumed.clock == 185
        try:
            _drive_fleet_blocks(resumed, env, resumed.clock, END_HOUR, lines)
        finally:
            resumed.close()
        assert lines == baseline

    def test_kill_in_capacity_sliced_block(self, env, baseline, tmp_path):
        """A backend with a broadcast capacity splits blocks into
        slices whose first hours sit past the acknowledged boundary;
        the worker store must keep earlier slices' responses alive
        (the ``released_before`` protocol)."""
        fleet = build_fleet(tmp_path, _config(env), 2)
        fleet.backend.block_capacity = 24  # force slicing on serial
        lines: list[str] = []
        fleet.backend.workers[1].kill_at = ("mid_journal", 217)
        with pytest.raises(SimulatedKill):
            _drive_fleet_blocks(fleet, env, 0, END_HOUR, lines)
        resumed = recover_fleet(tmp_path, _config(env))
        assert resumed.clock == 185
        try:
            _drive_fleet_blocks(resumed, env, resumed.clock, END_HOUR, lines)
        finally:
            resumed.close()
        assert lines == baseline

    def test_double_crash_in_same_block(self, env, baseline, tmp_path):
        """Crash, resume, crash again while re-driving the same block:
        the response store must survive both rounds."""
        fleet = build_fleet(tmp_path, _config(env), 2)
        lines: list[str] = []
        fleet.backend.workers[1].kill_at = ("mid_journal", 217)
        with pytest.raises(SimulatedKill):
            _drive_fleet_blocks(fleet, env, 0, END_HOUR, lines)
        resumed = recover_fleet(tmp_path, _config(env))
        assert resumed.clock == 185
        resumed.backend.workers[1].kill_at = ("mid_journal", 218)
        with pytest.raises(SimulatedKill):
            _drive_fleet_blocks(resumed, env, resumed.clock, END_HOUR, lines)
        final = recover_fleet(tmp_path, _config(env))
        assert final.clock == 185
        try:
            _drive_fleet_blocks(final, env, final.clock, END_HOUR, lines)
        finally:
            final.close()
        assert lines == baseline

    def test_block_resume_after_clean_stop(self, env, baseline, tmp_path):
        fleet = build_fleet(tmp_path, _config(env), 2)
        lines: list[str] = []
        try:
            _drive_fleet_blocks(fleet, env, 0, 222, lines)
        finally:
            fleet.close()
        resumed = recover_fleet(tmp_path, _config(env))
        assert resumed.clock == 222
        try:
            _drive_fleet_blocks(resumed, env, resumed.clock, END_HOUR, lines)
        finally:
            resumed.close()
        assert lines == baseline
