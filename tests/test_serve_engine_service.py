"""Prediction engine and service loop: parity with the batch pipeline,
cache behaviour, alerting, the JSONL protocol, and the serve CLI."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.experiment import SweepRunner
from repro.core.features import build_feature_tensor
from repro.data.tensor import HOURS_PER_DAY
from repro.resilience import ResilientHotSpotService
from repro.serve import (
    HotSpotService,
    ModelRegistry,
    PredictionEngine,
    ServeConfig,
    StreamIngestor,
    train_and_register,
)

TRAIN_DAY, WINDOW = 100, 7
MODELS = ("RF-F1", "Average", "Random")


@pytest.fixture(scope="module")
def runner(scored_dataset):
    return SweepRunner(
        scored_dataset, target="hot", n_estimators=3, n_training_days=3, seed=21
    )


@pytest.fixture(scope="module")
def registry(runner, tmp_path_factory):
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    train_and_register(runner, registry, MODELS, TRAIN_DAY, (1, 2), (WINDOW,))
    return registry


def make_engine(dataset, registry, end_hour=None):
    ingestor = StreamIngestor.for_dataset(dataset, w_max=WINDOW)
    engine = PredictionEngine(ingestor, registry, model="RF-F1", window=WINDOW)
    end = dataset.kpis.n_hours if end_hour is None else end_hour
    kpis = dataset.kpis
    for hour in range(end):
        engine.ingest_hour(
            kpis.values[:, hour, :], kpis.missing[:, hour, :], dataset.calendar[hour]
        )
    return engine


@pytest.fixture(scope="module")
def engine(scored_dataset, registry):
    """Engine fed the whole dataset (fresh registry stats not assumed)."""
    return make_engine(scored_dataset, registry)


class TestEngineParity:
    def test_classifier_matches_batch_forecast(
        self, engine, runner, scored_dataset, registry
    ):
        features = build_feature_tensor(scored_dataset)
        t_day = engine.t_day
        batch_model = runner.train_cell("RF-F1", TRAIN_DAY, 1, WINDOW)
        np.testing.assert_array_equal(
            engine.predict(1), batch_model.forecast(features, t_day, WINDOW)
        )

    def test_baseline_matches_batch_forecast(self, engine, scored_dataset):
        from repro.core.baselines import AverageModel

        expected = AverageModel().forecast(
            scored_dataset.score_daily,
            scored_dataset.labels_daily,
            engine.t_day,
            1,
            WINDOW,
        )
        np.testing.assert_array_equal(engine.predict(1, model="Average"), expected)

    def test_random_baseline_reproduces_cell_seed(self, engine, runner):
        # The registered Random model carries the sweep cell's CRC seed, so
        # a freshly loaded copy draws the same ranking the sweep would.
        trained = runner.train_cell("Random", TRAIN_DAY, 1, WINDOW)
        rng = np.random.default_rng(trained.random_state)
        expected = rng.random(engine.ingestor.n_sectors)
        engine.registry.evict_all()  # force a fresh generator from disk
        engine._cache.clear()
        np.testing.assert_array_equal(engine.predict(1, model="Random"), expected)

    def test_sector_subsetting(self, engine):
        full = engine.predict(1)
        subset = engine.predict(1, sector_ids=[4, 0, 9])
        np.testing.assert_array_equal(subset, full[[4, 0, 9]])


class TestEngineCache:
    def test_hit_miss_and_day_rollover(self, scored_dataset, registry):
        last_day_start = scored_dataset.kpis.n_hours - HOURS_PER_DAY
        engine = make_engine(scored_dataset, registry, end_hour=last_day_start)
        telemetry = engine.telemetry

        first = engine.predict(1)
        assert telemetry.counter("cache_misses") == 1
        second = engine.predict(1)
        assert telemetry.counter("cache_hits") == 1
        np.testing.assert_array_equal(first, second)
        assert engine.cache_size == 1

        # Different (model, horizon) -> separate entries.
        engine.predict(2)
        engine.predict(1, model="Average")
        assert engine.cache_size == 3
        assert telemetry.counter("cache_misses") == 3

        # Completing a day invalidates everything.
        kpis = scored_dataset.kpis
        for hour in range(last_day_start, scored_dataset.kpis.n_hours):
            engine.ingest_hour(
                kpis.values[:, hour, :],
                kpis.missing[:, hour, :],
                scored_dataset.calendar[hour],
            )
        assert engine.cache_size == 0
        refreshed = engine.predict(1)
        assert telemetry.counter("cache_misses") == 4
        assert refreshed.shape == first.shape

    def test_cached_scores_are_read_only(self, engine):
        # Cache hits return the frozen cached array itself — mutation
        # fails loudly instead of silently corrupting served forecasts.
        scores = engine.predict(1)
        with pytest.raises(ValueError):
            scores[:] = -1.0
        assert engine.predict(1).min() >= 0.0
        # The sector_ids slice path still hands out writable copies.
        subset = engine.predict(1, sector_ids=[1, 0])
        subset[:] = -1.0
        assert engine.predict(1).min() >= 0.0

    def test_predict_before_first_day_errors(self, scored_dataset, registry):
        ingestor = StreamIngestor.for_dataset(scored_dataset, w_max=WINDOW)
        engine = PredictionEngine(ingestor, registry, model="RF-F1", window=WINDOW)
        with pytest.raises(RuntimeError, match="no complete day"):
            engine.predict(1)

    def test_window_must_fit_ring(self, scored_dataset, registry):
        ingestor = StreamIngestor.for_dataset(scored_dataset, w_max=WINDOW)
        with pytest.raises(ValueError, match="w_max"):
            PredictionEngine(ingestor, registry, window=WINDOW + 1)

    def test_stats_snapshot_shape(self, engine):
        stats = engine.stats()
        assert {"counters", "latency", "cache", "registry"} <= set(stats)
        assert stats["counters"]["ingest_ticks"] == engine.ingestor.hours_seen
        assert stats["cache"]["t_day"] == engine.t_day


class TestServeConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="horizons"):
            ServeConfig(horizons=())
        with pytest.raises(ValueError, match="horizons"):
            ServeConfig(horizons=(0,))
        with pytest.raises(ValueError, match="top_k"):
            ServeConfig(top_k=0)


class TestService:
    def run_service(self, dataset, registry, config):
        ingestor = StreamIngestor.for_dataset(dataset, w_max=WINDOW)
        engine = PredictionEngine(ingestor, registry, model="RF-F1", window=WINDOW)
        service = HotSpotService(engine, config)
        events = []
        kpis = dataset.kpis
        for hour in range(kpis.n_hours):
            events.extend(
                service.ingest_hour(
                    kpis.values[:, hour, :],
                    kpis.missing[:, hour, :],
                    dataset.calendar[hour],
                )
            )
        return service, events

    def test_alert_cycle(self, scored_dataset, registry):
        config = ServeConfig(horizons=(1,), start_day=TRAIN_DAY, top_k=3)
        service, events = self.run_service(scored_dataset, registry, config)
        n_days = scored_dataset.time_axis.n_days

        days = [e for e in events if e["type"] == "day"]
        alerts = [e for e in events if e["type"] == "alert"]
        assert len(days) == n_days
        assert [e["t_day"] for e in days] == list(range(n_days))
        # One alert per in-scope day, none before start_day.
        assert len(alerts) == n_days - TRAIN_DAY
        assert min(e["t_day"] for e in alerts) == TRAIN_DAY
        for alert in alerts:
            assert alert["forecast_day"] == alert["t_day"] + 1
            assert alert["model"] == "RF-F1"
            assert len(alert["sectors"]) <= 3
            assert alert["scores"] == sorted(alert["scores"], reverse=True)
        assert service.telemetry.counter("alerts_emitted") == len(alerts)

    def test_day_events_report_hot_sectors(self, scored_dataset, registry):
        config = ServeConfig(horizons=(1,), start_day=10**6)  # never alert
        _, events = self.run_service(scored_dataset, registry, config)
        for event in events:
            assert event["type"] == "day"
            expected = np.nonzero(scored_dataset.labels_daily[:, event["t_day"]])[0]
            assert event["hot_sectors"] == [int(i) for i in expected]

    def test_alert_threshold_filters(self, scored_dataset, registry):
        config = ServeConfig(
            horizons=(1,), start_day=TRAIN_DAY, top_k=5, alert_threshold=1.1
        )
        service, events = self.run_service(scored_dataset, registry, config)
        # Probabilities can never reach 1.1: no alert survives the filter.
        assert [e["type"] for e in events] == ["day"] * len(events)
        assert service.telemetry.counter("alerts_emitted") == 0


class TestJsonlProtocol:
    @pytest.fixture()
    def service(self, scored_dataset, registry):
        engine = make_engine(scored_dataset, registry)
        return ResilientHotSpotService(
            HotSpotService(engine, ServeConfig(horizons=(1,), start_day=TRAIN_DAY, top_k=3))
        )

    def run(self, service, requests):
        out = io.StringIO()
        processed = service.run_jsonl([json.dumps(r) for r in requests], out)
        events = [json.loads(line) for line in out.getvalue().splitlines()]
        return processed, events

    def test_predict_stats_stop(self, service):
        processed, events = self.run(
            service,
            [{"op": "predict", "horizon": 1}, {"op": "stats"}, {"op": "stop"}],
        )
        assert processed == 3
        prediction, stats, stopped = events
        assert prediction["type"] == "prediction"
        assert len(prediction["scores"]) == service.engine.ingestor.n_sectors
        assert stats["type"] == "stats" and "counters" in stats
        assert stopped == {"type": "stopped", "processed": 3}

    def test_tick_op_ingests(self, service):
        before = service.engine.ingestor.hours_seen
        values = np.zeros((service.engine.ingestor.n_sectors, 21))
        processed, events = self.run(
            service, [{"op": "tick", "values": values.tolist()}]
        )
        assert processed == 1
        assert service.engine.ingestor.hours_seen == before + 1

    def test_bad_input_keeps_loop_alive(self, service):
        out = io.StringIO()
        lines = ["not json", json.dumps({"op": "nope"}), "", json.dumps({"op": "stop"})]
        processed = service.run_jsonl(lines, out)
        events = [json.loads(line) for line in out.getvalue().splitlines()]
        assert processed == 3  # blank line skipped
        assert [e["type"] for e in events] == ["error", "error", "stopped"]

    def test_error_events_are_structured(self, service):
        before = service.telemetry.counter("stream_errors")
        out = io.StringIO()
        lines = [
            "{broken",                                # malformed_json
            json.dumps([1, 2, 3]),                    # not_an_object
            json.dumps({"op": "teleport"}),           # unknown_op
            json.dumps({"op": "tick"}),               # operation_failed
        ]
        service.run_jsonl(lines, out)
        events = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [e["reason"] for e in events] == [
            "malformed_json", "not_an_object", "unknown_op", "operation_failed",
        ]
        for line_no, event in enumerate(events, start=1):
            assert event["event"] == "error"
            assert event["line"] == line_no
            assert event["error"] and event["message"]
        assert events[2]["op"] == "teleport"
        assert events[3]["op"] == "tick"
        assert service.telemetry.counter("stream_errors") == before + 4

    def test_dead_event_sink_propagates_oserror(self, service):
        class DeadSink:
            def write(self, text):
                raise BrokenPipeError("downstream went away")

            def flush(self):
                pass

        with pytest.raises(OSError):
            service.run_jsonl([json.dumps({"op": "stats"})], DeadSink())


class TestServeCLI:
    def test_end_to_end_replay(self, tmp_path, capsys):
        data_path = str(tmp_path / "net.npz")
        assert cli_main([
            "generate", "--towers", "8", "--weeks", "10", "--seed", "3",
            "--out", data_path,
        ]) == 0
        capsys.readouterr()
        assert cli_main([
            "serve", "--data", data_path, "--impute-epochs", "1",
            "--registry", str(tmp_path / "models"),
            "--model", "RF-F1", "--train-day", "40",
            "--estimators", "3", "--training-days", "2", "--top-k", "3",
        ]) == 0
        captured = capsys.readouterr()
        events = [json.loads(line) for line in captured.out.splitlines()]
        alerts = [e for e in events if e["type"] == "alert"]
        assert len(alerts) >= 1  # the service completed >= 1 alert cycle
        assert all(len(e["sectors"]) <= 3 for e in alerts)
        # stdout is a pure event stream; progress went to stderr.
        assert "registered" in captured.err
        assert (tmp_path / "models" / "hot__RF-F1__h001__w007.npz").exists()

    def test_from_stdin(self, tmp_path, capsys, monkeypatch):
        data_path = str(tmp_path / "net.npz")
        assert cli_main([
            "generate", "--towers", "6", "--weeks", "8", "--seed", "4",
            "--out", data_path,
        ]) == 0
        capsys.readouterr()
        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"op": "stats"}\n{"op": "stop"}\n')
        )
        assert cli_main([
            "--quiet", "serve", "--data", data_path, "--impute-epochs", "1",
            "--registry", str(tmp_path / "models"),
            "--train-day", "30", "--estimators", "3", "--training-days", "2",
            "--from-stdin",
        ]) == 0
        events = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [e["type"] for e in events] == ["stats", "stopped"]

    def test_from_stdin_ticks_are_guarded_and_checkpointed(
        self, tmp_path, capsys, monkeypatch
    ):
        # Stdin ticks must take the resilient path: a malformed tick is
        # quarantined (not an error, not ingested) and, with a
        # checkpoint directory, construction meta is persisted so
        # --resume works from stdin-fed state.
        data_path = str(tmp_path / "net.npz")
        assert cli_main([
            "generate", "--towers", "6", "--weeks", "8", "--seed", "4",
            "--out", data_path,
        ]) == 0
        capsys.readouterr()
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO('{"op": "tick", "values": [[1.0]]}\n{"op": "stop"}\n'),
        )
        ckpt = tmp_path / "ckpt"
        assert cli_main([
            "--quiet", "serve", "--data", data_path, "--impute-epochs", "1",
            "--registry", str(tmp_path / "models"),
            "--train-day", "30", "--estimators", "3", "--training-days", "2",
            "--from-stdin", "--checkpoint-dir", str(ckpt),
        ]) == 0
        events = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert events[0]["event"] == "quarantine"
        assert events[0]["reason"] == "shape"
        assert events[-1]["type"] == "stopped"
        # Checkpoint directory was initialised (meta + WAL) and closed.
        assert (ckpt / "meta.json").exists()
        assert sorted(ckpt.glob("wal-*.log"))

    def test_from_stdin_stats_carry_the_resilience_block(
        self, tmp_path, capsys, monkeypatch
    ):
        # The guarded front answers `stats` itself: dead letters, dark
        # sectors and the checkpoint, as a fleet's reply does.
        data_path = str(tmp_path / "net.npz")
        assert cli_main([
            "generate", "--towers", "6", "--weeks", "8", "--seed", "4",
            "--out", data_path,
        ]) == 0
        capsys.readouterr()
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                '{"op": "tick", "values": [[1.0]]}\n{"op": "stats"}\n{"op": "stop"}\n'
            ),
        )
        assert cli_main([
            "--quiet", "serve", "--data", data_path, "--impute-epochs", "1",
            "--registry", str(tmp_path / "models"),
            "--train-day", "30", "--estimators", "3", "--training-days", "2",
            "--from-stdin", "--checkpoint-dir", str(tmp_path / "ckpt"),
        ]) == 0
        events = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        stats = next(e for e in events if e.get("type") == "stats")
        resilience = stats["resilience"]
        assert resilience["dead_letters"]["total"] == 1
        assert resilience["dark_sectors"]["dark_now"] == 0
        assert "journal_appends" in resilience["checkpoint"]

    def test_bad_train_day_errors(self, tmp_path, capsys):
        data_path = str(tmp_path / "net.npz")
        assert cli_main([
            "generate", "--towers", "6", "--weeks", "8", "--out", data_path,
        ]) == 0
        capsys.readouterr()
        assert cli_main([
            "serve", "--data", data_path, "--impute-epochs", "1",
            "--registry", str(tmp_path / "models"), "--train-day", "9999",
        ]) == 1
        assert "--train-day" in capsys.readouterr().err


class TestVersionPins:
    """Lifecycle pins: the model version is part of the cache key, so a
    champion swap takes effect immediately instead of serving a stale
    same-day forecast (the PR 5 cache regression)."""

    @pytest.fixture()
    def versioned_registry(self, runner, scored_dataset, tmp_path):
        from repro.serve import ModelKey

        registry = ModelRegistry(tmp_path / "registry")
        train_and_register(registry=registry, runner=runner,
                           model_names=("RF-F1",), t_day=TRAIN_DAY,
                           horizons=(1,), windows=(WINDOW,))
        # v1: same cell trained at a much earlier day -> different forest.
        early = runner.train_cell("RF-F1", 60, 1, WINDOW)
        registry.save_version(
            ModelKey("hot", "RF-F1", 1, WINDOW), early, {"trigger": "test"}
        )
        return registry

    def test_swap_serves_new_version_same_day(
        self, scored_dataset, versioned_registry
    ):
        engine = make_engine(scored_dataset, versioned_registry)
        assert engine.active_version() is None
        unversioned = engine.predict(1)

        engine.set_active_version("RF-F1", 1)
        assert engine.active_version() == 1
        assert engine.telemetry.counter("model_swaps") == 1
        pinned = engine.predict(1)
        assert not np.array_equal(pinned, unversioned)

        # Parity: a fresh engine pinned from the start computes the same
        # forecast -- the swap really dropped the same-day cache entry.
        fresh = make_engine(scored_dataset, versioned_registry)
        fresh.set_active_version("RF-F1", 1)
        np.testing.assert_array_equal(pinned, fresh.predict(1))

        # Unpinning restores the unversioned entry, again cache-fresh.
        engine.set_active_version("RF-F1", None)
        np.testing.assert_array_equal(engine.predict(1), unversioned)

    def test_same_pin_is_a_noop(self, scored_dataset, versioned_registry):
        engine = make_engine(scored_dataset, versioned_registry)
        engine.set_active_version("RF-F1", 1)
        engine.predict(1)
        cached = engine.cache_size
        swaps = engine.telemetry.counter("model_swaps")
        engine.set_active_version("RF-F1", 1)  # unchanged pin
        assert engine.cache_size == cached
        assert engine.telemetry.counter("model_swaps") == swaps

    def test_pin_validation(self, scored_dataset, versioned_registry):
        engine = make_engine(scored_dataset, versioned_registry)
        with pytest.raises(ValueError, match="version"):
            engine.set_active_version("RF-F1", 0)

    def test_explicit_invalidate(self, scored_dataset, versioned_registry):
        engine = make_engine(scored_dataset, versioned_registry)
        before = engine.predict(1)
        misses = engine.telemetry.counter("cache_misses")
        engine.invalidate()
        assert engine.cache_size == 0
        assert engine.telemetry.counter("cache_invalidations") >= 1
        after = engine.predict(1)
        assert engine.telemetry.counter("cache_misses") == misses + 1
        np.testing.assert_array_equal(before, after)
