"""Differential check of the shared admission front.

``hypothesis`` draws a per-hour fault script — drop, duplicate,
reorder, corrupt, outage — over a ~4-day stream.  Each script is driven
through the guarded single engine and a 2-shard serial fleet, per tick
and in 24-hour blocks, and the four event streams must be bitwise equal
as JSON lines.  Both stacks admit ticks through the same functions
(:mod:`repro.resilience.validate`), and a tick is a one-hour block, so
any divergence is a bug in the apply or merge paths.
"""

from __future__ import annotations

import io
import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from tests._gateway_env import MALFORMED_TICKS, malformed_tick

HORIZONS = (1, 2)
START_DAY = 2
TOP_K = 3
HOURS = 100  # four completed days plus a partial one
DARK_HOURS = 6
#: Per-hour actions, weighted towards clean ticks.  An outage loses the
#: hour and the ones after it until every sector has gone dark.
ACTIONS = ("ok",) * 8 + ("drop", "dup", "swap", "nan", "calendar", "outage")


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    config = GeneratorConfig(n_towers=6, n_weeks=2, seed=11)
    dataset = TelemetryGenerator(config).generate()
    dataset, _ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    dataset = attach_scores(dataset)
    root = tmp_path_factory.mktemp("admission")
    runner = SweepRunner(dataset, n_estimators=3, seed=3)
    train_and_register(
        runner, ModelRegistry(root / "registry"), ("Persist",), 3, HORIZONS, (3,),
        overwrite=True,
    )
    return SimpleNamespace(dataset=dataset, root=root)


def _ticks(env, script):
    """The submitted ``(values, missing, calendar_row, hour)`` sequence."""
    kpis, calendar = env.dataset.kpis, env.dataset.calendar

    def tick(hour):
        return (kpis.values[:, hour, :], kpis.missing[:, hour, :], calendar[hour], hour)

    out = []
    hour = 0
    while hour < HOURS:
        action = script[hour]
        if action == "swap" and hour + 1 < HOURS:
            out += [tick(hour + 1), tick(hour)]
            hour += 2
            continue
        if action == "outage":
            hour += DARK_HOURS + 2
            continue
        if action == "dup":
            out += [tick(hour), tick(hour)]
        elif action == "nan":
            values, missing, row, _ = tick(hour)
            out.append((np.full_like(values, np.nan), missing, row, hour))
        elif action == "calendar":
            values, missing, row, _ = tick(hour)
            wrong = row.copy()
            wrong[0] = (row[0] + 1) % 24
            out.append((values, missing, wrong, hour))
        elif action != "drop":
            out.append(tick(hour))
        hour += 1
    return out


def _drive(front, ticks, batch_hours) -> list[str]:
    """Submit *ticks* per tick, or as blocks of consecutive declared hours."""
    events: list[dict] = []
    if batch_hours == 1:
        for values, missing, row, hour in ticks:
            events += front.submit_tick(values, missing, row, hour=hour)
        return [json.dumps(event) for event in events]
    i = 0
    while i < len(ticks):
        j = i + 1
        while (
            j < len(ticks)
            and j - i < batch_hours
            and ticks[j][3] == ticks[j - 1][3] + 1
        ):
            j += 1
        run = ticks[i:j]
        events += front.submit_block(
            np.stack([t[0] for t in run], axis=1),
            np.stack([t[1] for t in run], axis=1),
            np.stack([t[2] for t in run]),
            first_hour=run[0][3],
        )
        i = j
    return [json.dumps(event) for event in events]


def _guarded(env):
    ingestor = StreamIngestor.for_dataset(env.dataset, w_max=7)
    engine = ResilientPredictionEngine(
        ingestor, ModelRegistry(env.root / "registry"), target="hot",
        model="Persist", window=3,
    )
    service = HotSpotService(
        engine, ServeConfig(horizons=HORIZONS, start_day=START_DAY, top_k=TOP_K)
    )
    return ResilientHotSpotService(
        service,
        dark_tracker=DarkSectorTracker(ingestor.n_sectors, threshold_hours=DARK_HOURS),
    )


def _fleet(env, directory):
    config = FleetConfig.for_dataset(
        env.dataset, env.root / "registry", model="Persist", horizons=HORIZONS,
        window=3, start_day=START_DAY, top_k=TOP_K, w_max=7,
        dark_threshold_hours=DARK_HOURS, snapshot_every=48,
    )
    return build_fleet(directory, config, 2)


@settings(
    max_examples=15,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(script=st.lists(st.sampled_from(ACTIONS), min_size=HOURS, max_size=HOURS))
def test_stacks_and_drive_modes_emit_one_stream(env, script):
    ticks = _ticks(env, script)
    streams = {}
    with tempfile.TemporaryDirectory() as scratch:
        for batch_hours in (1, 24):
            guarded = _guarded(env)
            streams["guarded", batch_hours] = _drive(guarded, ticks, batch_hours)
            fleet = _fleet(env, Path(scratch) / f"fleet-{batch_hours}")
            try:
                streams["fleet", batch_hours] = _drive(fleet, ticks, batch_hours)
            finally:
                fleet.close()
    reference = streams["guarded", 1]
    for key, lines in streams.items():
        assert lines == reference, f"{key} diverges from the per-tick guarded stream"


@pytest.mark.parametrize("case", sorted(MALFORMED_TICKS))
@pytest.mark.parametrize("stack", ["guarded", "fleet"])
def test_malformed_jsonl_tick_quarantines(env, tmp_path, stack, case):
    """A payload admission cannot coerce is a quarantine on both stacks'
    JSONL driver, not an error line, and leaves the clock alone."""
    front = _guarded(env) if stack == "guarded" else _fleet(env, tmp_path / "fleet")
    try:
        for values, missing, row, hour in _ticks(env, ["ok"] * 2 + ["drop"] * (HOURS - 2)):
            front.submit_tick(values, missing, row, hour=hour)
        out = io.StringIO()
        line = malformed_tick(env.dataset, 2, case).decode("utf-8")
        assert front.run_jsonl([line], out) == 1
        (event,) = [json.loads(text) for text in out.getvalue().splitlines()]
        assert (event["event"], event["reason"]) == ("quarantine", MALFORMED_TICKS[case])
        assert front.clock == 2
        assert front.dead_letters.total == 1
    finally:
        if stack == "fleet":
            front.close()
