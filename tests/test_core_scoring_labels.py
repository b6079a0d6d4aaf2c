"""Tests for repro.core.scoring and repro.core.labels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import become_hot_labels, hot_spot_labels
from repro.core.scoring import (
    ScoreConfig,
    hourly_score,
    integrate_score,
    trailing_mean,
)
from repro.data.tensor import KPITensor


class TestScoreConfig:
    def test_defaults_cover_21_kpis(self):
        config = ScoreConfig()
        assert config.n_kpis == 21
        assert config.weight_sum > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ScoreConfig(weights=(1.0,), thresholds=(0.5, 0.5))
        with pytest.raises(ValueError):
            ScoreConfig(weights=(-1.0,) * 21)
        with pytest.raises(ValueError):
            ScoreConfig(hotspot_threshold=0.0)
        with pytest.raises(ValueError):
            ScoreConfig(weights=(0.0,) * 21)


class TestHourlyScore:
    def test_equation_one_by_hand(self):
        """S' = sum_k Omega_k H(K - eps_k) / sum(Omega), checked by hand."""
        config = ScoreConfig(
            weights=(2.0, 1.0, 1.0), thresholds=(0.5, 0.5, 0.5), hotspot_threshold=0.3
        )
        values = np.array([[[0.9, 0.1, 0.1], [0.9, 0.9, 0.1], [0.9, 0.9, 0.9]]])
        tensor = KPITensor(values=values)
        score = hourly_score(tensor, config)
        np.testing.assert_allclose(score[0], [0.5, 0.75, 1.0])

    def test_missing_values_do_not_trip(self):
        config = ScoreConfig(weights=(1.0,), thresholds=(0.5,), hotspot_threshold=0.3)
        values = np.array([[[0.9], [np.nan]]])
        tensor = KPITensor(values=values)
        score = hourly_score(tensor, config)
        np.testing.assert_allclose(score[0], [1.0, 0.0])

    def test_score_in_unit_interval(self, scored_dataset):
        assert scored_dataset.score_hourly.min() >= 0.0
        assert scored_dataset.score_hourly.max() <= 1.0

    def test_kpi_count_mismatch_raises(self, rng):
        tensor = KPITensor(values=rng.random((2, 24, 3)))
        with pytest.raises(ValueError):
            hourly_score(tensor, ScoreConfig())


class TestIntegrateScore:
    def test_daily_is_block_mean(self, rng):
        s = rng.random((3, 72))
        daily = integrate_score(s, "d")
        assert daily.shape == (3, 3)
        np.testing.assert_allclose(daily[:, 0], s[:, :24].mean(axis=1))

    def test_weekly_is_block_mean(self, rng):
        s = rng.random((2, 2 * 168 + 30))
        weekly = integrate_score(s, "w")
        assert weekly.shape == (2, 2)
        np.testing.assert_allclose(weekly[:, 1], s[:, 168:336].mean(axis=1))

    def test_hourly_identity(self, rng):
        s = rng.random((2, 48))
        np.testing.assert_array_equal(integrate_score(s, "h"), s)

    def test_invalid_period(self, rng):
        with pytest.raises(ValueError):
            integrate_score(rng.random((2, 24)), "m")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_daily_mean_preserved(self, seed):
        """The mean over complete days is invariant under integration."""
        rng = np.random.default_rng(seed)
        s = rng.random((2, 96))
        daily = integrate_score(s, "d")
        np.testing.assert_allclose(daily.mean(axis=1), s.mean(axis=1), atol=1e-12)


class TestTrailingMean:
    def test_matches_reference(self, rng):
        s = rng.random((2, 50))
        got = trailing_mean(s, 7)
        for j in range(50):
            lo = max(j - 6, 0)
            np.testing.assert_allclose(got[:, j], s[:, lo : j + 1].mean(axis=1))

    def test_window_one_identity(self, rng):
        s = rng.random((3, 20))
        np.testing.assert_allclose(trailing_mean(s, 1), s)

    def test_window_larger_than_series(self, rng):
        s = rng.random((1, 5))
        got = trailing_mean(s, 100)
        np.testing.assert_allclose(got[0, -1], s.mean())

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            trailing_mean(rng.random(10), 3)
        with pytest.raises(ValueError):
            trailing_mean(rng.random((2, 10)), 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 30))
    def test_property_causal(self, seed, window):
        """Changing the future must not change past trailing means."""
        rng = np.random.default_rng(seed)
        s = rng.random((1, 40))
        modified = s.copy()
        modified[0, 30:] += 100.0
        np.testing.assert_allclose(
            trailing_mean(s, window)[:, :30], trailing_mean(modified, window)[:, :30]
        )


class TestLabels:
    def test_heaviside_threshold(self):
        score = np.array([[0.1, 0.5, 0.9]])
        labels = hot_spot_labels(score, 0.5)
        np.testing.assert_array_equal(labels[0], [0, 0, 1])

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            hot_spot_labels(np.zeros((1, 2)), 1.5)

    def test_monotone_in_threshold(self, scored_dataset):
        low = hot_spot_labels(scored_dataset.score_daily, 0.1)
        high = hot_spot_labels(scored_dataset.score_daily, 0.5)
        assert np.all(high <= low)

    def test_attach_scores_consistency(self, scored_dataset):
        data = scored_dataset
        config = ScoreConfig()
        np.testing.assert_array_equal(
            data.labels_daily,
            hot_spot_labels(data.score_daily, config.hotspot_threshold),
        )
        np.testing.assert_allclose(
            data.score_daily, integrate_score(data.score_hourly, "d")
        )


class TestBecomeHotLabels:
    def test_clean_transition_detected(self):
        score = np.zeros((1, 30))
        score[0, 15:] = 0.8  # persistent hot period starting day 15
        become = become_hot_labels(score, 0.5)
        assert become[0, 14] == 1
        assert become.sum() == 1

    def test_single_day_spike_not_a_transition(self):
        score = np.zeros((1, 30))
        score[0, 15] = 0.9  # isolated one-day spike
        become = become_hot_labels(score, 0.5)
        assert become.sum() == 0

    def test_already_hot_sector_not_a_transition(self):
        score = np.full((1, 30), 0.8)
        become = become_hot_labels(score, 0.5)
        assert become.sum() == 0

    def test_needs_week_of_context(self):
        score = np.zeros((1, 14))
        score[0, 7:] = 0.9
        # edges lack full windows: labels at day <= 5 or day >= 7 are 0
        become = become_hot_labels(score, 0.5)
        assert become.shape == (1, 14)

    def test_short_series_all_zero(self):
        become = become_hot_labels(np.ones((2, 10)), 0.5)
        assert become.sum() == 0

    def test_transition_labelled_exactly_once_at_the_flip(self):
        """A gradual rise that crosses the threshold produces exactly one
        transition label, at the last calm day before the flip —
        consecutive activations are discarded (paper Sec. IV-A)."""
        score = np.zeros((1, 40))
        score[0, 10:] = 0.8
        score[0, 10] = 0.4  # first above-threshold day
        become = become_hot_labels(score, 0.3)
        assert become[0, 9] == 1   # day 9 -> 10 is the clean flip
        assert become[0, 10] == 0  # already hot: no second activation
        assert become.sum() == 1

    def test_matches_generator_onsets(self, scored_dataset):
        """Most 'become' labels should coincide with sectors whose score
        rises persistently — validated against label structure itself."""
        become = become_hot_labels(scored_dataset.score_daily, ScoreConfig().hotspot_threshold)
        days = np.arange(become.shape[1])
        for sector, day in zip(*np.nonzero(become)):
            after = scored_dataset.labels_daily[sector, day + 1 : day + 8]
            assert after.mean() >= 0.4  # persistently hot after transition
        del days
