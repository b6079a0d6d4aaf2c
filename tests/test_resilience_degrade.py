"""Degraded-mode forecasting: fallback ladder, backoff, auto-recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import AverageModel, PersistModel
from repro.core.experiment import SweepRunner
from repro.resilience import FlakyRegistry, ResilientPredictionEngine
from repro.resilience.degrade import _FALLBACK_SEED
from repro.serve import ModelRegistry, StreamIngestor, train_and_register
from repro.serve.telemetry import ServeTelemetry

TRAIN_DAY, WINDOW = 100, 7
END_HOUR = (TRAIN_DAY + 2) * 24


@pytest.fixture(scope="module")
def registry_root(scored_dataset, tmp_path_factory):
    runner = SweepRunner(
        scored_dataset, target="hot", n_estimators=3, n_training_days=3, seed=21
    )
    registry = ModelRegistry(tmp_path_factory.mktemp("degrade-registry"))
    train_and_register(runner, registry, ("Average",), TRAIN_DAY, (1,), (WINDOW,))
    return registry.root


def make_engine(dataset, registry, model="Average", end_hour=END_HOUR):
    ingestor = StreamIngestor.for_dataset(dataset, w_max=WINDOW)
    engine = ResilientPredictionEngine(
        ingestor, registry, model=model, window=WINDOW,
        telemetry=ServeTelemetry(max_events=4096),
    )
    kpis = dataset.kpis
    for hour in range(end_hour):
        engine.ingest_hour(
            kpis.values[:, hour, :], kpis.missing[:, hour, :], dataset.calendar[hour]
        )
    return engine


def expected_persist(engine, horizon=1):
    return PersistModel().forecast(
        engine.ingestor.score_daily, engine.ingestor.labels_daily,
        engine.t_day, horizon, WINDOW,
    )


class TestFallbackLadder:
    def test_missing_model_serves_persist(self, scored_dataset, registry_root):
        engine = make_engine(
            scored_dataset, ModelRegistry(registry_root), model="RF-F1"
        )
        scores = engine.predict(1)  # RF-F1 was never registered
        np.testing.assert_array_equal(scores, expected_persist(engine))
        assert engine.telemetry.counter("degraded_predictions") == 1
        (event,) = engine.telemetry.events("degraded")
        assert event["fallback"] == "persist"
        assert event["reason"].startswith("FileNotFoundError")
        assert event["consecutive_failures"] == 1
        assert engine.degraded_keys == [("RF-F1", 1, WINDOW)]
        assert engine.cache_size == 0  # degraded forecasts are never cached

    def test_last_forecast_preferred_after_success(
        self, scored_dataset, registry_root
    ):
        flaky = FlakyRegistry(ModelRegistry(registry_root))
        engine = make_engine(scored_dataset, flaky)
        good = engine.predict(1)
        kpis = scored_dataset.kpis
        for hour in range(END_HOUR, END_HOUR + 24):  # day rollover
            engine.ingest_hour(
                kpis.values[:, hour, :], kpis.missing[:, hour, :],
                scored_dataset.calendar[hour],
            )
        flaky.fail_next(1)
        degraded = engine.predict(1)
        np.testing.assert_array_equal(degraded, good)
        (event,) = engine.telemetry.events("degraded")
        assert event["fallback"] == "last_forecast"
        assert event["reason"].startswith("OSError")

    def test_random_is_the_last_resort(
        self, scored_dataset, registry_root, monkeypatch
    ):
        engine = make_engine(
            scored_dataset, ModelRegistry(registry_root), model="RF-F1"
        )

        def broken_forecast(*args, **kwargs):
            raise RuntimeError("persist unavailable too")

        monkeypatch.setattr(engine._persist, "forecast", broken_forecast)
        scores = engine.predict(1)
        rng = np.random.default_rng([_FALLBACK_SEED, engine.t_day, 1])
        np.testing.assert_array_equal(scores, rng.random(engine.ingestor.n_sectors))
        (event,) = engine.telemetry.events("degraded")
        assert event["fallback"] == "random"


class TestBackoffAndRecovery:
    def test_backoff_suppresses_registry_retries(
        self, scored_dataset, registry_root
    ):
        flaky = FlakyRegistry(ModelRegistry(registry_root))
        flaky.fail_next(100)
        engine = make_engine(scored_dataset, flaky)
        for _ in range(6):
            engine.predict(1)
        # Retries at calls 1, 3, 6; calls 2, 4, 5 are served during backoff.
        assert flaky.failures_injected == 3
        assert engine.telemetry.counter("degraded_retries_suppressed") == 3
        assert engine.telemetry.counter("degraded_predictions") == 6
        backoff_events = [
            e for e in engine.telemetry.events("degraded")
            if e["reason"] == "backoff"
        ]
        assert len(backoff_events) == 3

    def test_backoff_is_capped(self, scored_dataset, registry_root):
        flaky = FlakyRegistry(ModelRegistry(registry_root))
        flaky.fail_next(1000)
        engine = make_engine(scored_dataset, flaky)
        for _ in range(56):
            engine.predict(1)
        # 1 + 2 + 4 + 8 + 8 + ... suppressed calls between retries: with
        # the cap at 8 the retries land on calls 1, 3, 6, 11, 20, 29, 38,
        # 47 and 56 (uncapped doubling would stop at 37).
        assert flaky.failures_injected == 9
        assert engine.stats()["degraded"]["max_backoff"] == 8

    def test_first_success_emits_recovered_and_recaches(
        self, scored_dataset, registry_root
    ):
        flaky = FlakyRegistry(ModelRegistry(registry_root))
        engine = make_engine(scored_dataset, flaky)
        flaky.fail_next(1)
        engine.predict(1)  # fails, enters backoff
        engine.predict(1)  # served from backoff, registry untouched
        assert engine.cache_size == 0
        recovered = engine.predict(1)  # retry succeeds
        expected = AverageModel().forecast(
            engine.ingestor.score_daily, engine.ingestor.labels_daily,
            engine.t_day, 1, WINDOW,
        )
        np.testing.assert_array_equal(recovered, expected)
        (event,) = engine.telemetry.events("recovered")
        assert event["model"] == "Average" and event["horizon"] == 1
        assert engine.degraded_keys == []
        assert engine.cache_size == 1  # healthy forecasts cache again
        assert engine.telemetry.counter("cache_hits") == 0
        engine.predict(1)
        assert engine.telemetry.counter("cache_hits") == 1

    def test_stats_and_validation(self, scored_dataset, registry_root):
        engine = make_engine(
            scored_dataset, ModelRegistry(registry_root), model="RF-F1"
        )
        engine.predict(1)
        degraded = engine.stats()["degraded"]
        assert degraded["failing_keys"] == 1
        assert degraded["max_backoff"] == 8
