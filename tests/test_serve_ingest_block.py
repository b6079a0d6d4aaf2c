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
    """Byte equality: unlike ``assert_array_equal``, it tells -0.0 from
    0.0 and one NaN payload from another."""
    sa, sb = a.state_dict(), b.state_dict()
    assert sa["meta"] == sb["meta"]
    assert set(sa["arrays"]) == set(sb["arrays"])
    for key in sa["arrays"]:
        x, y = sa["arrays"][key], sb["arrays"][key]
        assert (x.dtype, x.shape) == (y.dtype, y.shape), f"array {key!r} differs"
        assert x.tobytes() == y.tobytes(), f"array {key!r} differs"
    assert a._features.tobytes() == b._features.tobytes()


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


def _replay_blocks(ingestor: StreamIngestor, values, missing, sizes) -> list:
    ticks, start = [], 0
    for size in sizes:
        stop = start + size
        ticks.extend(
            ingestor.ingest_block(values[:, start:stop, :], missing[:, start:stop, :])
        )
        start = stop
    return ticks


#: Block sizes, per ring, whose chunks cross the ring's end mid-block
#: and straddle the 168-h cold/warm boundary of the weekly mean.
_RING_SEQUENCES = {
    None: [1, 5, 7, 13, 24, 30, 160, 3, 200, 1, 97, 24, 1, 250, 23, 168],
    200: [1, 5, 7, 13, 24, 30, 90, 3, 150, 1, 97, 24, 1, 250, 23, 168],
}


@pytest.mark.parametrize("capacity", sorted(_RING_SEQUENCES, key=str))
def test_blocks_across_ring_end_and_warmup_match_hourly(rng, capacity):
    """Byte parity for sequences whose chunks cross the ring's end and
    the 168-h warm-up, on a day-multiple ring and on a 200-h one."""
    sizes = _RING_SEQUENCES[capacity]
    hours = sum(sizes)
    values, missing = _feed(rng, hours=hours)
    # Signed zeros and a second NaN payload, which assert_array_equal
    # would not tell apart, in the last block (still in the ring).
    values[:, hours - 100 : hours - 98, :] = -0.0
    values[0, hours - 90, :] = np.uint64(0x7FF8_0000_0000_0001).view(np.float64)
    hourly = _fresh(capacity_hours=capacity)
    blocked = _fresh(capacity_hours=capacity)
    cap = blocked.capacity
    crossings, clock = 0, 0
    for size in sizes:
        crossings += (clock % cap) + size > cap and size > 1
        clock += size
    assert crossings >= 3
    assert any(
        start < HOURS_PER_WEEK < start + size
        for start, size in zip(np.cumsum([0] + sizes), sizes)
    )
    ticks_a = [
        hourly.ingest_hour(values[:, h, :], missing[:, h, :]) for h in range(hours)
    ]
    assert _replay_blocks(blocked, values, missing, sizes) == ticks_a
    _assert_state_equal(hourly, blocked)
    lo = blocked.hours_seen - cap
    window_a = hourly.hourly_window(lo, blocked.hours_seen)
    window_b = blocked.hourly_window(lo, blocked.hours_seen)
    for key in window_a:
        assert window_a[key].tobytes() == window_b[key].tobytes(), key


def test_windows_are_copies(rng):
    values, missing = _feed(rng, missing_rate=0.0)
    ing = _fresh()
    ing.ingest_block(values, missing)
    t_day = ing.last_complete_day
    window = ing.feature_window(t_day, 1)
    hourly = ing.hourly_window(ing.hours_seen - 24, ing.hours_seen)
    before = ing.state_dict()
    window[...] = -1.0
    for array in hourly.values():
        array[...] = 1
    after = StreamIngestor.from_state(before)
    _assert_state_equal(ing, after)


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
