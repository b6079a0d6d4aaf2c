"""Columnar micro-batch ingest parity: ingest_block vs ingest_hour.

The contract under test (repro.serve.ingest): for any block shape,
``StreamIngestor.ingest_block`` leaves the ingestor in **bitwise** the
same state as calling ``ingest_hour`` once per column — every ring,
accumulator, history, the running cumulative sums, the returned ticks,
and the persistent Eq. 5 feature ring.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.tensor import HOURS_PER_DAY, HOURS_PER_WEEK
from repro.serve.ingest import StreamIngestor
from tests.oracles import assembled_window


def _feed(rng, n=7, l=21, hours=HOURS_PER_WEEK * 2 + 30, missing_rate=0.06):
    values = rng.random((n, hours, l)) * 10.0
    missing = rng.random((n, hours, l)) < missing_rate
    values[missing] = np.nan
    return values, missing


def _fresh(n=7, l=21, **kwargs):
    kwargs.setdefault("w_max", 7)
    return StreamIngestor(n_sectors=n, n_kpis=l, **kwargs)


def _assert_state_equal(a: StreamIngestor, b: StreamIngestor) -> None:
    sa, sb = a.state_dict(), b.state_dict()
    assert sa["meta"] == sb["meta"]
    assert set(sa["arrays"]) == set(sb["arrays"])
    for key in sa["arrays"]:
        np.testing.assert_array_equal(
            sa["arrays"][key], sb["arrays"][key], err_msg=f"array {key!r} differs"
        )
    np.testing.assert_array_equal(a._features, b._features)


@pytest.mark.parametrize("block_hours", [1, 5, 24, 37, 168])
def test_block_matches_hourly_bitwise(rng, block_hours):
    values, missing = _feed(rng)
    hourly, blocked = _fresh(), _fresh()
    ticks_a = [
        hourly.ingest_hour(values[:, h, :], missing[:, h, :])
        for h in range(values.shape[1])
    ]
    ticks_b = []
    for start in range(0, values.shape[1], block_hours):
        stop = start + block_hours
        ticks_b.extend(
            blocked.ingest_block(values[:, start:stop, :], missing[:, start:stop, :])
        )
    assert ticks_a == ticks_b
    _assert_state_equal(hourly, blocked)


def test_block_larger_than_ring_chunks_correctly(rng):
    """Blocks longer than ``capacity - 168`` must chunk internally so
    ring writes never clobber cumsum lookback slots still needed."""
    n, l = 4, 21
    values, missing = _feed(rng, n=n, l=l, hours=HOURS_PER_WEEK * 3)
    hourly = _fresh(n=n, l=l, w_max=1)
    blocked = _fresh(n=n, l=l, w_max=1)
    assert blocked.capacity - HOURS_PER_WEEK < values.shape[1]
    for h in range(values.shape[1]):
        hourly.ingest_hour(values[:, h, :], missing[:, h, :])
    blocked.ingest_block(values, missing)
    _assert_state_equal(hourly, blocked)


def test_feature_window_matches_assembled_reference(rng):
    values, missing = _feed(rng, missing_rate=0.0)
    ing = _fresh()
    ing.ingest_block(values, missing)
    t_day = ing.last_complete_day
    window = 7
    lo = HOURS_PER_DAY * (t_day - window + 1)
    hi = HOURS_PER_DAY * (t_day + 1)
    np.testing.assert_array_equal(
        ing.feature_window(t_day, window), assembled_window(ing, lo, hi)
    )


def test_from_state_rebuilds_feature_ring(rng):
    values, missing = _feed(rng, missing_rate=0.0)
    ing = _fresh()
    ing.ingest_block(values, missing)
    restored = StreamIngestor.from_state(ing.state_dict())
    np.testing.assert_array_equal(restored._features, ing._features)
    t_day = ing.last_complete_day
    np.testing.assert_array_equal(
        restored.feature_window(t_day, 7), ing.feature_window(t_day, 7)
    )


def test_state_dict_has_no_feature_ring(rng):
    """The feature ring is derived state: snapshots stay byte-compatible
    with pre-block-ingest checkpoints."""
    ing = _fresh()
    values, missing = _feed(rng, hours=24)
    ing.ingest_block(values, missing)
    assert not any("feature" in key for key in ing.state_dict()["arrays"])


def test_explicit_calendar_rows(rng):
    values, missing = _feed(rng, hours=48)
    rows = np.stack([_fresh()._default_calendar_row(h) for h in range(48)])
    rows[:, 4] = 1.0  # mark every hour a holiday: distinct from defaults
    hourly, blocked = _fresh(), _fresh()
    for h in range(48):
        hourly.ingest_hour(values[:, h, :], missing[:, h, :], rows[h])
    blocked.ingest_block(values, missing, rows)
    _assert_state_equal(hourly, blocked)


class TestBlockValidation:
    def test_rejects_wrong_ndim(self, rng):
        with pytest.raises(ValueError, match="n_hours"):
            _fresh().ingest_block(np.zeros((7, 21)))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            _fresh().ingest_block(np.zeros((3, 5, 21)))

    def test_rejects_bad_missing_shape(self):
        with pytest.raises(ValueError):
            _fresh().ingest_block(
                np.zeros((7, 5, 21)), missing=np.zeros((7, 4, 21), dtype=bool)
            )

    def test_rejects_bad_calendar_shape(self):
        with pytest.raises(ValueError):
            _fresh().ingest_block(
                np.zeros((7, 5, 21)), calendar_rows=np.zeros((5, 4))
            )

    def test_empty_block_is_a_no_op(self):
        ing = _fresh()
        assert ing.ingest_block(np.zeros((7, 0, 21))) == []
        assert ing.hours_seen == 0

    def test_ingest_hour_error_messages_unchanged(self):
        ing = _fresh()
        with pytest.raises(ValueError, match=r"values must be \(7, 21\)"):
            ing.ingest_hour(np.zeros((3, 21)))
        with pytest.raises(ValueError, match="missing mask shape"):
            ing.ingest_hour(
                np.zeros((7, 21)), missing=np.zeros((3, 21), dtype=bool)
            )
