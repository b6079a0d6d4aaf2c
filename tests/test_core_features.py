"""Tests for repro.core.features and repro.core.feature_sets."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.feature_sets import (
    hand_crafted_features,
    percentile_features,
    raw_features,
)
from repro.core.features import FeatureTensor, build_feature_tensor
from repro.core.scoring import ScoreConfig
from tests.oracles import percentile_features_reference


class TestBuildFeatureTensor:
    @pytest.fixture(scope="class")
    def features(self, scored_dataset):
        return build_feature_tensor(scored_dataset, ScoreConfig())

    def test_channel_count_matches_eq5(self, features, scored_dataset):
        # l + 5 + 3 + 1 = 30 for the 21-KPI catalog
        assert features.n_channels == scored_dataset.kpis.n_kpis + 9
        assert features.n_channels == 30

    def test_channel_slices_partition(self, features):
        slices = [
            features.kpi_slice,
            features.calendar_slice,
            features.score_slice,
            features.label_slice,
        ]
        covered = []
        for s in slices:
            covered.extend(range(s.start, s.stop))
        assert covered == list(range(features.n_channels))

    def test_kpi_channels_match_tensor(self, features, scored_dataset):
        np.testing.assert_array_equal(
            features.values[:, :, features.kpi_slice], scored_dataset.kpis.values
        )

    def test_calendar_repeated_per_sector(self, features, scored_dataset):
        cal = features.values[:, :, features.calendar_slice]
        np.testing.assert_array_equal(cal[0], scored_dataset.calendar)
        np.testing.assert_array_equal(cal[3], scored_dataset.calendar)

    def test_hourly_score_channel(self, features, scored_dataset):
        np.testing.assert_allclose(
            features.values[:, :, features.score_slice.start],
            scored_dataset.score_hourly,
        )

    def test_weekly_channel_at_week_boundary(self, features, scored_dataset):
        """At the last hour of week k, the trailing weekly channel equals
        the block weekly score of week k (paper equivalence point)."""
        weekly_channel = features.values[:, :, features.score_slice.start + 2]
        for week in range(1, scored_dataset.time_axis.n_weeks):
            boundary_hour = week * 168 - 1
            np.testing.assert_allclose(
                weekly_channel[:, boundary_hour],
                scored_dataset.score_weekly[:, week - 1],
                atol=1e-10,
            )

    def test_label_channel_binary(self, features):
        label = features.values[:, :, features.label_slice.start]
        assert set(np.unique(label)) <= {0.0, 1.0}

    def test_missing_kpis_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            build_feature_tensor(small_dataset, ScoreConfig())

    def test_window_slicing(self, features):
        window = features.window(t_day=10, w_days=3)
        assert window.shape == (features.n_sectors, 72, features.n_channels)
        # the window ends with (and includes) day t: days 8, 9, 10
        np.testing.assert_array_equal(
            window, features.values[:, 8 * 24 : 11 * 24, :]
        )
        with pytest.raises(IndexError):
            features.window(t_day=1, w_days=5)
        with pytest.raises(IndexError):
            features.window(t_day=features.n_hours // 24 - 1 + 1, w_days=1)

    def test_channel_names_unique_positions(self, features):
        assert len(features.channel_names) == features.n_channels
        assert features.channel_names[-1] == "label_daily"
        assert features.channel_names[-4] == "score_hourly"


class TestFeatureViews:
    @pytest.fixture()
    def window(self, rng):
        return rng.random((6, 24 * 7, 5))

    def test_raw_shape_and_layout(self, window):
        flat = raw_features(window)
        assert flat.shape == (6, 24 * 7 * 5)
        # column j*c + k is hour j of channel k
        np.testing.assert_array_equal(flat[:, 3 * 5 + 2], window[:, 3, 2])

    def test_percentile_shape(self, window):
        flat = percentile_features(window)
        assert flat.shape == (6, 7 * 5 * 5)

    def test_percentile_values(self, window):
        flat = percentile_features(window)
        # day 0, channel 0, percentile 50 is at column 0*5*5 + 0*5 + 2
        expected = np.percentile(window[:, :24, 0], 50, axis=1)
        np.testing.assert_allclose(flat[:, 2], expected)

    def test_percentile_kernel_matches_reference_bitwise(self, rng):
        """Every channel and percentile equals ``np.percentile``'s bits,
        on ties and repeated values as well as distinct ones."""
        window = rng.random((6, 24 * 7, 5))
        window[:, :24, 1] = 0.5  # a constant day
        window[:, 24:48, 2] = np.round(window[:, 24:48, 2], 1)  # ties
        flat = percentile_features(window)
        reference = percentile_features_reference(window)
        assert flat.shape == reference.shape == (6, 7 * 5 * 5)
        np.testing.assert_array_equal(flat.view(np.uint64), reference.view(np.uint64))

    def test_percentiles_ordered(self, window):
        """Within each (day, channel) block the five percentiles ascend."""
        flat = percentile_features(window).reshape(6, 7, 5, 5)
        assert np.all(np.diff(flat, axis=3) >= -1e-12)

    def test_hand_crafted_shape(self, window):
        flat = hand_crafted_features(window)
        assert flat.shape == (6, 5 * 105)

    def test_hand_crafted_contains_window_mean(self, window):
        flat = hand_crafted_features(window).reshape(6, 5, 105)
        np.testing.assert_allclose(flat[:, :, 0], window.mean(axis=1))

    def test_hand_crafted_last_day_raw(self, window):
        flat = hand_crafted_features(window).reshape(6, 5, 105)
        # columns 79..102 are the raw 24 values of the last day
        np.testing.assert_allclose(
            flat[:, 2, 79:103], window[:, -24:, 2].reshape(6, 24)
        )

    def test_single_day_window_supported(self, rng):
        window = rng.random((3, 24, 4))
        assert raw_features(window).shape == (3, 96)
        assert percentile_features(window).shape == (3, 20)
        assert hand_crafted_features(window).shape == (3, 4 * 105)

    def test_partial_day_rejected(self, rng):
        window = rng.random((3, 30, 4))
        for view in (raw_features, percentile_features, hand_crafted_features):
            with pytest.raises(ValueError):
                view(window)

    def test_empty_window_rejected(self, rng):
        window = rng.random((3, 0, 4))
        with pytest.raises(ValueError):
            raw_features(window)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 1000), st.integers(1, 4))
    def test_property_views_finite(self, seed, days):
        rng = np.random.default_rng(seed)
        window = rng.normal(size=(4, 24 * days, 3))
        for view in (raw_features, percentile_features, hand_crafted_features):
            assert np.isfinite(view(window)).all()


class TestExtraChannels:
    def test_base_tensor_has_no_extras(self, rng):
        values = rng.random((2, 48, 30))
        names = [f"c{i}" for i in range(30)]
        tensor = FeatureTensor(values=values, channel_names=names)
        assert tensor.n_extra_channels == 0
        assert tensor.extra_slice == slice(30, 30)
        assert tensor.n_kpis == 21

    def test_extras_excluded_from_kpi_count(self, rng):
        values = rng.random((2, 48, 33))
        names = [f"c{i}" for i in range(33)]
        tensor = FeatureTensor(values=values, channel_names=names, n_extra_channels=3)
        assert tensor.n_kpis == 21
        assert tensor.extra_slice == slice(30, 33)
