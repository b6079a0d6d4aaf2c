"""Tests for repro.data.tensor."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.tensor import (
    HOURS_PER_DAY,
    HOURS_PER_WEEK,
    KPITensor,
    TimeAxis,
    _forward_fill_rows,
)


class TestTimeAxis:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeAxis(n_hours=0)
        with pytest.raises(ValueError):
            TimeAxis(n_hours=10, start_weekday=7)
        with pytest.raises(ValueError):
            TimeAxis(n_hours=10, start_hour=24)

    def test_day_week_counts(self):
        axis = TimeAxis(n_hours=HOURS_PER_WEEK * 2 + 30)
        assert axis.n_days == 14 + 1
        assert axis.n_weeks == 2

    def test_hour_of_day_cycles(self):
        axis = TimeAxis(n_hours=50, start_hour=22)
        hours = axis.hour_of_day()
        assert hours[0] == 22
        assert hours[2] == 0
        assert hours[26] == 0

    def test_day_of_week_monday_aligned(self):
        axis = TimeAxis(n_hours=HOURS_PER_WEEK, start_weekday=0)
        dow = axis.day_of_week()
        assert dow[0] == 0
        assert dow[HOURS_PER_DAY * 5] == 5
        assert dow[-1] == 6

    def test_weekend_flags(self):
        axis = TimeAxis(n_hours=HOURS_PER_WEEK, start_weekday=0)
        weekend = axis.is_weekend()
        assert not weekend[: HOURS_PER_DAY * 5].any()
        assert weekend[HOURS_PER_DAY * 5 :].all()


def _make_tensor(rng, n=4, hours=HOURS_PER_WEEK * 2, kpis=3, missing_rate=0.1):
    values = rng.normal(size=(n, hours, kpis))
    missing = rng.random((n, hours, kpis)) < missing_rate
    values = values.copy()
    values[missing] = np.nan
    return KPITensor(values=values, missing=missing)


class TestKPITensor:
    def test_shapes_and_names(self, rng):
        tensor = _make_tensor(rng)
        assert tensor.shape == (4, HOURS_PER_WEEK * 2, 3)
        assert len(tensor.kpi_names) == 3

    def test_nan_infers_missing(self, rng):
        values = rng.normal(size=(2, 48, 2))
        values[0, 3, 1] = np.nan
        tensor = KPITensor(values=values)
        assert tensor.missing[0, 3, 1]
        assert tensor.missing.sum() == 1

    def test_validation_errors(self, rng):
        with pytest.raises(ValueError):
            KPITensor(values=rng.normal(size=(3, 4)))
        with pytest.raises(ValueError):
            KPITensor(values=rng.normal(size=(2, 5, 3)), missing=np.zeros((2, 5, 2), bool))
        with pytest.raises(ValueError):
            KPITensor(values=rng.normal(size=(2, 5, 3)), kpi_names=["a"])
        with pytest.raises(ValueError):
            KPITensor(
                values=rng.normal(size=(2, 5, 3)), time_axis=TimeAxis(n_hours=6)
            )

    def test_missing_fraction(self, rng):
        tensor = _make_tensor(rng, missing_rate=0.0)
        assert tensor.missing_fraction() == 0.0

    def test_weekly_missing_fraction_shape(self, rng):
        tensor = _make_tensor(rng, hours=HOURS_PER_WEEK * 3 + 10)
        weekly = tensor.weekly_missing_fraction()
        assert weekly.shape == (4, 3)
        assert np.all(weekly >= 0) and np.all(weekly <= 1)

    def test_weekly_missing_fraction_detects_dead_week(self, rng):
        tensor = _make_tensor(rng, missing_rate=0.0)
        tensor.missing[1, HOURS_PER_WEEK : 2 * HOURS_PER_WEEK, :] = True
        weekly = tensor.weekly_missing_fraction()
        assert weekly[1, 1] == 1.0
        assert weekly[1, 0] == 0.0

    def test_select_sectors(self, rng):
        tensor = _make_tensor(rng)
        sub = tensor.select_sectors(np.array([0, 2]))
        assert sub.n_sectors == 2
        np.testing.assert_array_equal(sub.missing, tensor.missing[[0, 2]])

    def test_filled(self, rng):
        tensor = _make_tensor(rng)
        filled = tensor.filled(-7.0)
        assert not np.isnan(filled).any()
        assert np.all(filled[tensor.missing] == -7.0)

    def test_forward_filled_no_nans(self, rng):
        tensor = _make_tensor(rng, missing_rate=0.3)
        filled = tensor.forward_filled()
        assert not np.isnan(filled).any()

    def test_forward_filled_preserves_observed(self, rng):
        tensor = _make_tensor(rng)
        filled = tensor.forward_filled()
        observed = ~tensor.missing
        np.testing.assert_array_equal(filled[observed], tensor.values[observed])

    def test_forward_fill_takes_previous_value(self):
        values = np.array([[[1.0], [np.nan], [np.nan], [4.0]]])
        tensor = KPITensor(values=values)
        filled = tensor.forward_filled()
        np.testing.assert_allclose(filled[0, :, 0], [1.0, 1.0, 1.0, 4.0])

    def test_forward_fill_backfills_leading(self):
        values = np.array([[[np.nan], [np.nan], [3.0], [4.0]]])
        tensor = KPITensor(values=values)
        filled = tensor.forward_filled()
        np.testing.assert_allclose(filled[0, :, 0], [3.0, 3.0, 3.0, 4.0])

    def test_forward_fill_all_missing_zero(self):
        values = np.full((1, 4, 1), np.nan)
        tensor = KPITensor(values=values)
        np.testing.assert_allclose(tensor.forward_filled(), 0.0)


class TestForwardFillRows:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(3, 20))
        rows[rng.random(rows.shape) < 0.4] = np.nan
        got = _forward_fill_rows(rows.copy())

        for r in range(rows.shape[0]):
            last = np.nan
            expected = np.empty(rows.shape[1])
            for c in range(rows.shape[1]):
                if not np.isnan(rows[r, c]):
                    last = rows[r, c]
                expected[c] = last
            # backward fill the leading NaNs
            finite = np.flatnonzero(~np.isnan(expected))
            if finite.size:
                expected[: finite[0]] = expected[finite[0]]
            else:
                expected[:] = 0.0
            np.testing.assert_allclose(got[r], expected)
