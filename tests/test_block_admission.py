"""The one-pass block admission of :mod:`repro.resilience.validate`.

``admit_block`` checks a whole block with array operations and applies
it only when ``TickValidator.validate`` would accept every column at
``clock + j`` with no gap.  ``hypothesis`` injects one fault per block
and the decision must equal the per-hour reference probe
(:func:`tests.oracles.probe_block_reference`), with bitwise-equal
arrays on apply.  The fronts refuse a mask or calendar whose hour
count differs from the values', and an applied block may alias the
caller's buffers, so mutating them after the call changes nothing.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GeneratorConfig, TelemetryGenerator, attach_scores, filter_sectors
from repro.core.experiment import SweepRunner
from repro.fleet import FleetConfig, build_fleet
from repro.imputation import ForwardFillImputer
from repro.resilience import CheckpointManager, ResilientHotSpotService
from repro.resilience.degrade import ResilientPredictionEngine
from repro.resilience.validate import DarkSectorTracker, TickValidator, admit_block
from repro.serve import (
    HotSpotService,
    ModelRegistry,
    ServeConfig,
    StreamIngestor,
    train_and_register,
)
from repro.serve.ingest import default_calendar_row
from tests.oracles import probe_block_reference

N_SECTORS, N_KPIS = 6, 7
SIZE = N_SECTORS * N_KPIS
FAULTS = (
    "none", "budget", "hour_of_day", "calendar_nonfinite", "calendar_width",
    "first_hour",
)


def _bits(array: np.ndarray) -> tuple:
    return array.dtype, array.shape, array.tobytes()


def _decide(validator, values, missing, rows, first_hour, clock):
    """``admit_block``'s decision: ``("apply", arrays)`` or ``("replay", hours)``."""
    applied, replayed = [], []

    def apply(block_values, block_missing, block_rows, gap_hours):
        assert gap_hours == 0 and block_values.flags.c_contiguous
        applied.append((block_values.copy(), block_missing.copy(), block_rows.copy()))
        return ["applied"]

    def submit_tick(tick_values, tick_missing, calendar_row, hour):
        replayed.append(hour)
        return ["tick"]

    events = admit_block(
        validator, values, missing, rows, first_hour,
        clock=clock, default_row=default_calendar_row,
        submit_tick=submit_tick, apply=apply,
    )
    if applied:
        assert events == ["applied"] and not replayed
        return "apply", applied[0]
    assert len(replayed) == values.shape[1] and events == ["tick"] * len(replayed)
    return "replay", replayed


@st.composite
def blocks(draw):
    """A clean block plus one injected fault, in a random layout."""
    n_hours = draw(st.integers(1, 30))
    clock = draw(st.integers(0, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.normal(50.0, 10.0, (N_SECTORS, n_hours, N_KPIS))
    missing = rng.random(values.shape) < 0.02
    values[rng.random(values.shape) < 0.02] = np.nan
    rows = np.array([default_calendar_row(clock + j) for j in range(n_hours)])
    budget_at = SIZE // 2  # the validator's fixed 0.5 bad-entry budget
    case = SimpleNamespace(
        values=values, missing=missing, rows=rows, clock=clock, first_hour=clock,
    )
    fault = draw(st.sampled_from(FAULTS))
    j = draw(st.integers(0, n_hours - 1))
    if fault == "budget":
        # Exactly budget_at + delta bad entries in column j.
        count = min(max(budget_at + draw(st.sampled_from((-1, 0, 1))), 0), SIZE)
        column_values = rng.normal(50.0, 10.0, SIZE)
        column_missing = np.zeros(SIZE, dtype=bool)
        for flat in rng.choice(SIZE, count, replace=False):
            kind = draw(st.sampled_from(("nan", "inf", "-inf", "missing")))
            if kind == "missing":
                column_missing[flat] = True
            else:
                column_values[flat] = float(kind)
        values[:, j, :] = column_values.reshape(N_SECTORS, N_KPIS)
        missing[:, j, :] = column_missing.reshape(N_SECTORS, N_KPIS)
    elif fault == "hour_of_day":
        # Fractions that truncate to the right hour still pass.
        rows[j, 0] += draw(st.sampled_from((1.0, -1.0, 24.0, 0.5, -0.5, 0.999)))
    elif fault == "calendar_nonfinite":
        rows[j, draw(st.integers(0, 4))] = draw(
            st.sampled_from((np.nan, np.inf, -np.inf))
        )
    elif fault == "calendar_width":
        case.rows = draw(st.sampled_from((rows[:, :0], rows[:, :4], np.c_[rows, rows[:, :1]])))
    elif fault == "first_hour":
        case.first_hour = clock + draw(st.sampled_from((-1, 1)))
    if fault != "first_hour" and draw(st.booleans()):
        case.first_hour = None  # trust arrival order
    if draw(st.booleans()):
        case.missing = None
    layout = draw(st.sampled_from(("contiguous", "hours_fastest", "float32")))
    if layout == "hours_fastest":
        case.values = np.ascontiguousarray(values.transpose(0, 2, 1)).transpose(0, 2, 1)
    elif layout == "float32":
        case.values = values.astype(np.float32)
    return case


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=blocks(), drop_rows=st.booleans())
def test_block_decision_equals_per_hour_verdicts(case, drop_rows):
    validator = TickValidator(N_SECTORS, N_KPIS)
    rows = None if drop_rows else case.rows
    expected = probe_block_reference(
        validator, case.values, case.missing, rows, case.first_hour, case.clock,
        default_calendar_row,
    )
    outcome, detail = _decide(
        validator, case.values, case.missing, rows, case.first_hour, case.clock
    )
    if expected is None:
        assert outcome == "replay"
        assert detail == [
            None if case.first_hour is None else case.first_hour + j
            for j in range(case.values.shape[1])
        ]
        return
    assert outcome == "apply"
    assert [_bits(a) for a in detail] == [_bits(a) for a in expected]


def test_clean_block_applies_and_faulty_block_replays():
    validator = TickValidator(N_SECTORS, N_KPIS)
    values = np.ones((N_SECTORS, 3, N_KPIS))
    rows = np.array([default_calendar_row(10 + j) for j in range(3)])
    assert _decide(validator, values, None, rows, 10, 10)[0] == "apply"
    rows[1, 0] += 1
    assert _decide(validator, values, None, rows, 10, 10) == ("replay", [10, 11, 12])


@pytest.mark.parametrize("bad, action", [(20, "apply"), (21, "apply"), (22, "replay")])
def test_budget_boundary_is_inclusive(bad, action):
    """``validate`` quarantines only a share strictly over the budget;
    the block check shares that predicate (21/42 is exactly 0.5)."""
    validator = TickValidator(N_SECTORS, N_KPIS)
    values = np.ones((N_SECTORS, 2, N_KPIS))
    column = np.ones(SIZE)
    column[:bad] = np.nan
    values[:, 1, :] = column.reshape(N_SECTORS, N_KPIS)
    verdict = validator.validate(values[:, 1, :], clock=0)
    assert (verdict.action == "accept") == (action == "apply")
    assert _decide(validator, values, None, None, None, 0)[0] == action


@pytest.mark.parametrize(
    "hour, field, action",
    [(5, 5.5, "apply"), (5, 5.999, "apply"), (5, 4.999, "replay"),
     (24, -0.5, "apply"), (24, -1.0, "replay"), (5, 29.0, "replay")],
)
def test_hour_of_day_truncates(hour, field, action):
    """The hour-of-day field truncates like ``int()`` in both checks."""
    validator = TickValidator(N_SECTORS, N_KPIS)
    values = np.ones((N_SECTORS, 1, N_KPIS))
    rows = np.array([default_calendar_row(hour)])
    rows[0, 0] = field
    verdict = validator.validate(values[:, 0, :], None, rows[0], clock=hour)
    assert (verdict.action == "accept") == (action == "apply")
    assert _decide(validator, values, None, rows, hour, hour)[0] == action


# ---------------------------------------------------------------- fronts
HORIZONS = (1, 2)
START_DAY = 2


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    config = GeneratorConfig(n_towers=6, n_weeks=2, seed=11)
    dataset = TelemetryGenerator(config).generate()
    dataset, _ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    dataset = attach_scores(dataset)
    root = tmp_path_factory.mktemp("block-admission")
    runner = SweepRunner(dataset, n_estimators=3, seed=3)
    train_and_register(
        runner, ModelRegistry(root / "registry"), ("Persist",), 3, HORIZONS, (3,),
        overwrite=True,
    )
    return SimpleNamespace(dataset=dataset, root=root)


def _guarded(env, checkpoint_dir=None):
    ingestor = StreamIngestor.for_dataset(env.dataset, w_max=7)
    engine = ResilientPredictionEngine(
        ingestor, ModelRegistry(env.root / "registry"), target="hot",
        model="Persist", window=3,
    )
    service = HotSpotService(
        engine, ServeConfig(horizons=HORIZONS, start_day=START_DAY, top_k=3)
    )
    checkpoint = None
    if checkpoint_dir is not None:
        checkpoint = CheckpointManager.for_ingestor(
            checkpoint_dir, ingestor, snapshot_every=48
        )
    return ResilientHotSpotService(
        service,
        dark_tracker=DarkSectorTracker(ingestor.n_sectors, threshold_hours=6),
        checkpoint=checkpoint,
    )


def _fleet(env, directory):
    config = FleetConfig.for_dataset(
        env.dataset, env.root / "registry", model="Persist", horizons=HORIZONS,
        window=3, start_day=START_DAY, top_k=3, w_max=7,
        dark_threshold_hours=6, snapshot_every=48,
    )
    return build_fleet(directory, config, 2)


@pytest.fixture(params=["guarded", "fleet"])
def front(request, env, tmp_path):
    if request.param == "guarded":
        yield _guarded(env)
        return
    fleet = _fleet(env, tmp_path / "fleet")
    yield fleet
    fleet.close()


@pytest.mark.parametrize(
    "missing_shape, rows_shape",
    [
        ((3,), (4, 5)),  # fewer hours in the mask
        ((5,), (4, 5)),  # more hours in the mask
        (None, (4, 5)),  # 2-D mask
        ((4,), (3, 5)),  # fewer calendar rows
        ((4,), (5, 5)),  # more calendar rows
    ],
)
def test_block_with_mismatched_hours_is_refused(env, front, missing_shape, rows_shape):
    kpis = env.dataset.kpis
    n_sectors, n_kpis = kpis.values.shape[0], kpis.values.shape[2]
    values = kpis.values[:, :4, :]
    if missing_shape is None:
        missing = np.zeros((n_sectors, n_kpis), dtype=bool)
    else:
        missing = np.zeros((n_sectors, missing_shape[0], n_kpis), dtype=bool)
    rows = np.array(
        [default_calendar_row(h) for h in range(rows_shape[0])]
    )[:, : rows_shape[1]]
    with pytest.raises(ValueError, match="shape"):
        front.submit_block(values, missing, rows, first_hour=0)
    assert front.clock == 0
    assert front.dead_letters.total == 0


def _blocks(env, hi: int):
    kpis = env.dataset.kpis
    for lo in range(0, hi, 24):
        yield (
            np.array(kpis.values[:, lo:lo + 24, :], dtype=np.float64, order="C"),
            np.array(kpis.missing[:, lo:lo + 24, :], order="C"),
            np.array(env.dataset.calendar[lo:lo + 24], dtype=np.float64, order="C"),
            lo,
        )


def _stream(front, blocks, mutate: bool) -> list[str]:
    lines = []
    for values, missing, rows, lo in blocks:
        lines += [json.dumps(e) for e in front.submit_block(values, missing, rows, lo)]
        if mutate:
            values[...] = -7.0
            missing[...] = True
            rows[...] = np.nan
    return lines


def test_caller_buffers_may_be_overwritten_after_submit_block(env, tmp_path):
    hi = 24 * 6
    values, missing, rows, _ = next(_blocks(env, hi))
    assert values.flags.c_contiguous and rows.dtype == np.float64

    reference = _guarded(env, tmp_path / "reference")
    expected = _stream(reference, _blocks(env, hi), mutate=False)
    reference.close()
    assert any('"alert"' in line for line in expected)

    guarded = _guarded(env, tmp_path / "mutated")
    assert _stream(guarded, _blocks(env, hi), mutate=True) == expected
    guarded.close()
    want = reference.ingestor.state_dict()
    got = CheckpointManager.recover(tmp_path / "mutated").ingestor.state_dict()
    assert got["meta"] == want["meta"]
    for key, array in want["arrays"].items():
        np.testing.assert_array_equal(got["arrays"][key], array, err_msg=key)

    fleet = _fleet(env, tmp_path / "fleet")
    try:
        assert _stream(fleet, _blocks(env, hi), mutate=True) == expected
    finally:
        fleet.close()
