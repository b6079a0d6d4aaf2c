"""The headline guarantee: the gateway's SSE alert stream is bitwise
identical to an offline replay of the same engine — live, after a
Last-Event-ID resume, after the gateway process is SIGKILLed mid-batch
and restarted with ``--resume``, and over a supervised fleet backend
whose worker is killed and restarted mid-stream."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import GeneratorConfig, TelemetryGenerator, save_dataset
from repro.fleet import FleetConfig, SupervisorConfig, build_fleet
from repro.gateway import (
    EventJournal,
    GatewayConfig,
    GatewayThread,
    HotSpotGateway,
    ResilientBackend,
)
from repro.resilience import ProcessChaos, ProcessFault

from tests._gateway_env import (
    END_HOUR,
    HORIZONS,
    START_DAY,
    TOP_K,
    WINDOW,
    build_env,
    build_guarded,
    http,
    offline_stream,
    post_ticks,
    sse_collect,
    tick_lines,
)

KILL_HOUR = 215  # mid-stream, past the day-6 alerting start


def _fork_available() -> bool:
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    return build_env(tmp_path_factory.mktemp("gateway-parity"))


@pytest.fixture(scope="module")
def offline(env):
    return offline_stream(env, END_HOUR)


# ------------------------------------------------------------- in-process
class TestLiveParity:
    def test_live_subscriber_sees_offline_stream_bitwise(self, env, offline, tmp_path):
        gateway = HotSpotGateway(
            ResilientBackend(build_guarded(env)),
            EventJournal(None),
            GatewayConfig(port=0),
        )
        with GatewayThread(gateway):
            base = f"http://{gateway.host}:{gateway.port}"
            # Half the stream lands before the subscriber exists (it
            # arrives via journal replay), half after (live tail).
            post_ticks(base, env.dataset, 0, 180)
            frames: list = []
            reader = threading.Thread(
                target=lambda: frames.extend(
                    sse_collect(gateway.host, gateway.port, -1, expect=len(offline))
                )
            )
            reader.start()
            post_ticks(base, env.dataset, 180, END_HOUR)
            reader.join(timeout=120)
            assert not reader.is_alive()
        assert [i for i, _ in frames] == list(range(len(offline)))
        assert [data for _, data in frames] == offline

    def test_concurrent_readers_each_see_offline_stream_bitwise(
        self, env, offline, tmp_path
    ):
        """Four subscribers from ``Last-Event-ID: -1`` at once, over a
        durable journal: each replays the journal, then tails the live
        fan-out, and each receives the whole offline stream.  The second
        half is posted only once all four are subscribed, so every
        reader takes both paths."""
        gateway = HotSpotGateway(
            ResilientBackend(build_guarded(env, tmp_path / "ckpt")),
            EventJournal(tmp_path / "ckpt" / "gateway_events.jsonl"),
            GatewayConfig(port=0),
        )
        streams: dict[int, list] = {}
        with GatewayThread(gateway):
            base = f"http://{gateway.host}:{gateway.port}"
            post_ticks(base, env.dataset, 0, 180)
            readers = [
                threading.Thread(
                    target=lambda slot=slot: streams.__setitem__(
                        slot,
                        sse_collect(gateway.host, gateway.port, -1, expect=len(offline)),
                    )
                )
                for slot in range(4)
            ]
            for reader in readers:
                reader.start()
            deadline = time.monotonic() + 30
            while gateway.hub.subscriber_count < 4 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gateway.hub.subscriber_count == 4
            post_ticks(base, env.dataset, 180, END_HOUR)
            for reader in readers:
                reader.join(timeout=120)
            assert not any(reader.is_alive() for reader in readers)
        assert sorted(streams) == [0, 1, 2, 3]
        for frames in streams.values():
            assert [i for i, _ in frames] == list(range(len(offline)))
            assert [data for _, data in frames] == offline

    def test_last_event_id_resume_is_an_exact_suffix(self, env, offline, tmp_path):
        gateway = HotSpotGateway(
            ResilientBackend(build_guarded(env)),
            EventJournal(tmp_path / "events.jsonl"),
            GatewayConfig(port=0),
        )
        with GatewayThread(gateway):
            post_ticks(
                f"http://{gateway.host}:{gateway.port}", env.dataset, 0, END_HOUR
            )
            cut = len(offline) // 2
            frames = sse_collect(
                gateway.host, gateway.port, cut - 1, expect=len(offline) - cut
            )
        assert [data for _, data in frames] == offline[cut:]
        assert [i for i, _ in frames] == list(range(cut, len(offline)))


# ----------------------------------------------------- subprocess SIGKILL
def _spawn(args: list[str], cwd: Path) -> subprocess.Popen:
    env_vars = dict(os.environ)
    env_vars["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.Popen(
        args,
        cwd=cwd,
        env=env_vars,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )


def _await_listening(proc: subprocess.Popen, timeout: float = 300.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                f"gateway exited before listening (rc={proc.poll()})"
            )
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record.get("type") == "listening":
            return record
    raise AssertionError("no listening line within timeout")


def _gateway_args(data: Path, registry: Path, ckpt: Path, *extra: str) -> list[str]:
    return [
        sys.executable, "-m", "repro.cli", "-q", "gateway",
        "--data", str(data), "--impute-epochs", "1",
        "--registry", str(registry), "--model", "Persist",
        "--train-day", str(START_DAY), "--window", str(WINDOW),
        "--horizons", *[str(h) for h in HORIZONS],
        "--estimators", "3", "--training-days", "3",
        "--top-k", str(TOP_K), "--port", "0",
        "--checkpoint-dir", str(ckpt), "--snapshot-every", "48",
        *extra,
    ]


class TestKillResume:
    def test_sigkill_mid_batch_then_resume_is_bitwise(self, tmp_path):
        """Kill -9 the gateway while a batch is in flight; restart with
        --resume; re-POST from /status's resume_hour.  The full SSE
        stream must equal the reference `serve` replay bitwise."""
        data = tmp_path / "world.npz"
        raw = TelemetryGenerator(GeneratorConfig(n_towers=8, n_weeks=3, seed=7)).generate()
        save_dataset(raw, data)
        # The client prepares the dataset exactly as the CLI does
        # (DAEImputer is seeded), so POSTed tick values match what the
        # subprocess engines expect.
        from repro.cli import _prepare

        dataset = _prepare(str(data), 1, quiet=True)
        n_days = END_HOUR // 24

        proc = _spawn(_gateway_args(data, tmp_path / "reg", tmp_path / "ckpt"), tmp_path)
        try:
            listening = _await_listening(proc)
            base = f"http://{listening['host']}:{listening['port']}"
            post_ticks(base, dataset, 0, KILL_HOUR)
            # Fire a batch and SIGKILL while it is (likely) mid-apply;
            # wherever the kill actually lands, resume must be bitwise.
            killer_batch = tick_lines(dataset, KILL_HOUR, KILL_HOUR + 24)
            poster = threading.Thread(
                target=lambda: http(base + "/ticks", data=killer_batch), daemon=True
            )
            poster.start()
            time.sleep(0.05)
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)

        proc = _spawn(
            _gateway_args(data, tmp_path / "reg", tmp_path / "ckpt", "--resume"),
            tmp_path,
        )
        try:
            listening = _await_listening(proc)
            base = f"http://{listening['host']}:{listening['port']}"
            _, _, body = http(base + "/status")
            resume_hour = json.loads(body)["resume_hour"]
            assert resume_hour <= KILL_HOUR + 24
            assert listening["resume_hour"] == resume_hour
            post_ticks(base, dataset, resume_hour, END_HOUR)
            frames = sse_collect(listening["host"], listening["port"], -1)
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)

        reference = _spawn(
            [
                sys.executable, "-m", "repro.cli", "-q", "serve",
                "--data", str(data), "--impute-epochs", "1",
                "--registry", str(tmp_path / "ref_reg"), "--model", "Persist",
                "--train-day", str(START_DAY), "--window", str(WINDOW),
                "--horizons", *[str(h) for h in HORIZONS],
                "--estimators", "3", "--training-days", "3",
                "--top-k", str(TOP_K), "--max-days", str(n_days),
            ],
            tmp_path,
        )
        out, _ = reference.communicate(timeout=600)
        assert reference.returncode == 0
        expected = [line for line in out.splitlines() if line.strip()]
        assert expected, "reference replay produced no events"
        assert [data_ for _, data_ in frames] == expected
        assert [i for i, _ in frames] == list(range(len(expected)))


# ------------------------------------------------------- supervised fleet
@needs_fork
class TestFleetParity:
    def test_supervised_restart_stream_is_bitwise(self, env, tmp_path):
        """Gateway over a supervised 2-shard fleet whose shard-1 worker
        is SIGKILLed at a mid-journal seam: the worker restarts and the
        delivered SSE stream still equals a fault-free fleet replay."""
        config = FleetConfig.for_dataset(
            env.dataset,
            env.root / "registry",
            model="Persist",
            window=WINDOW,
            horizons=HORIZONS,
            start_day=START_DAY,
            top_k=TOP_K,
            w_max=7,
            snapshot_every=48,
        )
        kpis = env.dataset.kpis

        clean = build_fleet(tmp_path / "clean", config, 2)
        try:
            expected = [
                json.dumps(event)
                for hour in range(END_HOUR)
                for event in clean.submit_tick(
                    kpis.values[:, hour, :],
                    kpis.missing[:, hour, :],
                    env.dataset.calendar[hour],
                    hour=hour,
                )
            ]
        finally:
            clean.close()

        chaos = ProcessChaos(
            faults=(ProcessFault(1, "mid_journal", KILL_HOUR),),
            marker_dir=str(tmp_path / "markers"),
            wal_tail_shards=(),
        )
        fleet = build_fleet(
            tmp_path / "chaos", config, 2,
            supervise=SupervisorConfig(), chaos=chaos,
        )
        gateway = HotSpotGateway(
            ResilientBackend(fleet),
            EventJournal(tmp_path / "chaos" / "gateway_events.jsonl"),
            GatewayConfig(port=0),
        )
        try:
            with GatewayThread(gateway):
                base = f"http://{gateway.host}:{gateway.port}"
                post_ticks(base, env.dataset, 0, END_HOUR)
                frames = sse_collect(gateway.host, gateway.port, -1)
                _, _, body = http(base + "/status")
                status = json.loads(body)
        finally:
            fleet.close()

        assert [data for _, data in frames] == expected
        fleet_status = status["fleet"]
        assert fleet_status["backend"] == "supervised"
        assert fleet_status["supervisor"]["worker_restarts"] >= 1
        shards = {row["shard"]: row for row in fleet_status["shards"]}
        assert shards[1]["hours"] == status["clock"]
        assert not shards[1]["degraded"]
        assert status["clock"] == END_HOUR
