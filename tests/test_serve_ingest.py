"""Streaming ingestion: ring-buffer mechanics and bitwise batch parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import build_feature_tensor
from repro.core.scoring import ScoreConfig, hourly_score
from repro.data.tensor import HOURS_PER_DAY, HOURS_PER_WEEK, KPITensor
from repro.serve import StreamIngestor


@pytest.fixture(scope="module")
def replayed(scored_dataset):
    """An ingestor that replayed the whole scored dataset, ring large
    enough that nothing was evicted (full-history parity checks)."""
    ingestor = StreamIngestor.for_dataset(
        scored_dataset, w_max=scored_dataset.time_axis.n_days
    )
    ticks = list(ingestor.replay(scored_dataset))
    return ingestor, ticks


@pytest.fixture(scope="module")
def features(scored_dataset):
    return build_feature_tensor(scored_dataset)


class TestStreamingBatchParity:
    """Replaying hour-by-hour must reproduce the batch pipeline bitwise."""

    def test_hourly_scores_and_labels(self, replayed, scored_dataset):
        ingestor, _ = replayed
        window = ingestor.hourly_window(0, scored_dataset.kpis.n_hours)
        np.testing.assert_array_equal(
            window["score_hourly"], scored_dataset.score_hourly
        )
        np.testing.assert_array_equal(
            window["labels_hourly"], scored_dataset.labels_hourly
        )

    def test_daily_scores_and_labels(self, replayed, scored_dataset):
        ingestor, _ = replayed
        np.testing.assert_array_equal(ingestor.score_daily, scored_dataset.score_daily)
        np.testing.assert_array_equal(
            ingestor.labels_daily, scored_dataset.labels_daily
        )

    def test_weekly_scores_and_labels(self, replayed, scored_dataset):
        ingestor, _ = replayed
        np.testing.assert_array_equal(
            ingestor.score_weekly, scored_dataset.score_weekly
        )
        np.testing.assert_array_equal(
            ingestor.labels_weekly, scored_dataset.labels_weekly
        )

    @pytest.mark.parametrize("t_day,window", [(60, 7), (100, 1), (125, 21)])
    def test_feature_window_bitwise(self, replayed, features, t_day, window):
        ingestor, _ = replayed
        np.testing.assert_array_equal(
            ingestor.feature_window(t_day, window), features.window(t_day, window)
        )

    def test_raw_ring_contents(self, replayed, scored_dataset):
        ingestor, _ = replayed
        lo, hi = 24 * 40, 24 * 47
        window = ingestor.hourly_window(lo, hi)
        np.testing.assert_array_equal(
            window["values"], scored_dataset.kpis.values[:, lo:hi, :]
        )
        np.testing.assert_array_equal(
            window["calendar"], scored_dataset.calendar[lo:hi]
        )


class TestTicks:
    def test_tick_fields(self, replayed):
        _, ticks = replayed
        first_day = ticks[:HOURS_PER_DAY]
        assert all(not t.day_completed for t in first_day[:-1])
        assert first_day[-1].day_completed
        assert first_day[-1].t_day == 0
        assert ticks[HOURS_PER_WEEK - 1].week_completed
        assert not ticks[HOURS_PER_WEEK - 2].week_completed
        assert ticks[-1].hour == len(ticks) - 1
        assert [t.day for t in ticks[:25]] == [0] * 24 + [1]

    def test_last_complete_day_tracks_ticks(self, scored_dataset):
        ingestor = StreamIngestor.for_dataset(scored_dataset)
        assert ingestor.last_complete_day == -1
        for tick in ingestor.replay(scored_dataset, end_hour=30):
            assert tick.t_day == ingestor.last_complete_day
        assert ingestor.last_complete_day == 0


class TestRingEviction:
    def test_old_window_evicted(self, scored_dataset):
        ingestor = StreamIngestor.for_dataset(scored_dataset, w_max=8)
        for _ in ingestor.replay(scored_dataset):
            pass
        with pytest.raises(ValueError, match="evicted"):
            ingestor.feature_window(50, 7)
        # Recent windows still fully served.
        recent = ingestor.feature_window(ingestor.last_complete_day, 7)
        assert recent.shape[1] == 7 * HOURS_PER_DAY

    def test_recent_window_matches_batch_after_wrap(self, scored_dataset, features):
        ingestor = StreamIngestor.for_dataset(scored_dataset, w_max=8)
        for _ in ingestor.replay(scored_dataset):
            pass
        t_day = ingestor.last_complete_day
        np.testing.assert_array_equal(
            ingestor.feature_window(t_day, 7), features.window(t_day, 7)
        )

    def test_future_window_rejected(self, replayed):
        ingestor, _ = replayed
        with pytest.raises(ValueError, match="not fully ingested"):
            ingestor.feature_window(ingestor.last_complete_day + 1, 7)


class TestValidation:
    def test_capacity_floor(self):
        with pytest.raises(ValueError, match="capacity_hours"):
            StreamIngestor(n_sectors=4, capacity_hours=100)

    def test_kpi_count_must_match_config(self):
        with pytest.raises(ValueError, match="KPIs"):
            StreamIngestor(n_sectors=4, n_kpis=3)

    def test_bad_shapes_rejected(self):
        ingestor = StreamIngestor(n_sectors=4)
        with pytest.raises(ValueError, match="values must be"):
            ingestor.ingest_hour(np.zeros((3, ingestor.n_kpis)))
        with pytest.raises(ValueError, match="missing mask"):
            ingestor.ingest_hour(
                np.zeros((4, ingestor.n_kpis)), missing=np.zeros((4, 2), bool)
            )

    def test_window_with_missing_values_rejected(self):
        ingestor = StreamIngestor(n_sectors=4)
        values = np.zeros((4, ingestor.n_kpis))
        values[1, 3] = np.nan
        for _ in range(HOURS_PER_DAY):
            ingestor.ingest_hour(values)
        with pytest.raises(ValueError, match="missing KPI values"):
            ingestor.feature_window(0, 1)


class TestDefaultCalendar:
    def test_derived_rows_follow_time_axis(self):
        ingestor = StreamIngestor(n_sectors=2, start_weekday=5)  # Saturday
        values = np.zeros((2, ingestor.n_kpis))
        for _ in range(HOURS_PER_DAY * 3):
            ingestor.ingest_hour(values)
        window = ingestor.hourly_window(0, HOURS_PER_DAY * 3)
        calendar = window["calendar"]
        assert list(calendar[:3, 0]) == [0.0, 1.0, 2.0]  # hour of day
        assert calendar[0, 1] == 5.0 and calendar[0, 3] == 1.0  # Sat, weekend
        assert calendar[24, 1] == 6.0 and calendar[24, 3] == 1.0  # Sun
        assert calendar[48, 1] == 0.0 and calendar[48, 3] == 0.0  # Mon

    def test_nan_values_default_to_missing(self):
        ingestor = StreamIngestor(n_sectors=2)
        values = np.full((2, ingestor.n_kpis), np.nan)
        values[0, 0] = 100.0
        ingestor.ingest_hour(values)
        assert ingestor.missing[0, 0, 1] and not ingestor.missing[0, 0, 0]

    @pytest.mark.parametrize(
        "weights,exact",
        [
            (None, True),  # the calibrated, integral defaults: a dot product
            (tuple(0.1 * (k + 1) for k in range(21)), False),  # pairwise sum
        ],
    )
    def test_eq1_paths_match_batch_bytes(self, scored_dataset, weights, exact):
        """Both Eq. 1 reductions give ``hourly_score``'s bytes, in any
        block size; integral weights take the order-free dot product.
        The tensor is C-contiguous here: with non-integral weights the
        pairwise KPI-axis sum holds only over a contiguous axis."""
        config = ScoreConfig() if weights is None else ScoreConfig(weights=weights)
        hours = 384
        values = np.ascontiguousarray(scored_dataset.kpis.values[:, :hours, :])
        missing = np.ascontiguousarray(scored_dataset.kpis.missing[:, :hours, :])
        expected = hourly_score(KPITensor(values, missing), config)
        for block in (1, 24, hours):
            ingestor = StreamIngestor.for_dataset(
                scored_dataset, score_config=config, w_max=21
            )
            assert ingestor._exact_weights is exact
            for start in range(0, hours, block):
                stop = start + block
                ingestor.ingest_block(
                    values[:, start:stop, :],
                    missing[:, start:stop, :],
                    scored_dataset.calendar[start:stop],
                )
            window = ingestor.hourly_window(hours - 300, hours)["score_hourly"]
            assert window.tobytes() == expected[:, hours - 300 :].tobytes()

    def test_custom_score_config(self):
        config = ScoreConfig()
        ingestor = StreamIngestor(n_sectors=2, score_config=config)
        # Trip every indicator: score == 1, label == hot.
        values = np.asarray(config.thresholds)[None, :] + 1.0
        tick = ingestor.ingest_hour(np.repeat(values, 2, axis=0))
        assert tick.hour == 0
        np.testing.assert_allclose(ingestor.score_hourly[:, 0], 1.0)
        assert ingestor.labels_hourly[:, 0].tolist() == [1, 1]
