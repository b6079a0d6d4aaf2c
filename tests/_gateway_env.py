"""Shared scaffolding for the gateway test modules (not a test file).

A tiny Persist-model world (8 towers, 3 weeks) with the offline-replay
reference stream, HTTP helpers built on the stdlib, and a raw-socket
SSE reader — everything ``tests/test_gateway_*.py`` needs to compare a
gateway's delivered stream bitwise against the engine it wraps.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

from repro import GeneratorConfig, TelemetryGenerator, attach_scores, filter_sectors
from repro.core.experiment import SweepRunner
from repro.imputation import ForwardFillImputer
from repro.resilience import CheckpointManager, ResilientHotSpotService
from repro.resilience.degrade import ResilientPredictionEngine
from repro.serve import (
    HotSpotService,
    ModelRegistry,
    ServeConfig,
    StreamIngestor,
    train_and_register,
)

HORIZONS = (1, 2)
START_DAY = 6
TOP_K = 3
WINDOW = 3
END_HOUR = 360  # 15 days: 9 alerting days after the day-6 start


def build_env(tmp_root) -> SimpleNamespace:
    """Dataset + registry with a trained Persist cell (instant to fit)."""
    config = GeneratorConfig(n_towers=8, n_weeks=3, seed=7)
    dataset = TelemetryGenerator(config).generate()
    dataset, _ = filter_sectors(dataset)
    dataset.kpis = ForwardFillImputer().fit_transform(dataset.kpis)
    dataset = attach_scores(dataset)
    registry = ModelRegistry(tmp_root / "registry")
    runner = SweepRunner(dataset, n_estimators=3, seed=3)
    train_and_register(
        runner, registry, ("Persist",), START_DAY, HORIZONS, (WINDOW,),
        overwrite=True,
    )
    return SimpleNamespace(dataset=dataset, root=tmp_root)


def build_guarded(env, checkpoint_dir=None, ingestor=None) -> ResilientHotSpotService:
    if ingestor is None:
        ingestor = StreamIngestor.for_dataset(env.dataset, w_max=7)
    engine = ResilientPredictionEngine(
        ingestor, ModelRegistry(env.root / "registry"), target="hot",
        model="Persist", window=WINDOW,
    )
    service = HotSpotService(
        engine, ServeConfig(horizons=HORIZONS, start_day=START_DAY, top_k=TOP_K)
    )
    checkpoint = None
    if checkpoint_dir is not None:
        checkpoint = CheckpointManager.for_ingestor(
            checkpoint_dir, ingestor, snapshot_every=48
        )
    return ResilientHotSpotService(service, checkpoint=checkpoint)


def offline_stream(env, end_hour: int = END_HOUR) -> list[str]:
    """The bitwise reference: a clean per-hour replay's JSON lines."""
    guarded = build_guarded(env)
    kpis = env.dataset.kpis
    lines: list[str] = []
    for hour in range(end_hour):
        for event in guarded.submit_tick(
            kpis.values[:, hour, :],
            kpis.missing[:, hour, :],
            env.dataset.calendar[hour],
            hour=hour,
        ):
            lines.append(json.dumps(event))
    return lines


def tick_lines(dataset, start: int, stop: int) -> bytes:
    """JSONL POST body for hours ``[start, stop)``."""
    kpis = dataset.kpis
    lines = [
        json.dumps({
            "op": "tick",
            "hour": hour,
            "values": kpis.values[:, hour, :].tolist(),
            "missing": kpis.missing[:, hour, :].tolist(),
            "calendar": dataset.calendar[hour].tolist(),
        })
        for hour in range(start, stop)
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


#: Malformed ``tick`` payloads (see :func:`malformed_tick`) and the
#: quarantine reason admission gives each.
MALFORMED_TICKS = {
    "string_in_values": "dtype",
    "ragged_values": "dtype",
    "hour_word": "dtype",
    "hour_nan": "dtype",
    "hour_overflow": "dtype",
    "calendar_word": "calendar",
}


def malformed_tick(dataset, hour: int, case: str) -> bytes:
    """The JSONL ``tick`` line for *hour*, broken as :data:`MALFORMED_TICKS`
    key *case* says."""
    kpis = dataset.kpis
    tick = {
        "op": "tick",
        "hour": hour,
        "values": kpis.values[:, hour, :].tolist(),
        "calendar": dataset.calendar[hour].tolist(),
    }
    if case == "string_in_values":
        tick["values"][0][0] = "x"
    elif case == "ragged_values":
        tick["values"][0].pop()
    elif case == "hour_word":
        tick["hour"] = "soon"
    elif case == "hour_nan":
        tick["hour"] = float("nan")  # serialised as the JSON token NaN
    elif case == "hour_overflow":
        tick["hour"] = "HOUR"
    elif case == "calendar_word":
        tick["calendar"][1] = "monday"
    line = json.dumps(tick).replace('"HOUR"', "1e400")  # json.loads reads inf
    return (line + "\n").encode("utf-8")


def http(url: str, data: bytes | None = None, timeout: float = 120.0):
    """(status, headers, body) for a GET/POST; HTTP errors returned, not raised."""
    request = urllib.request.Request(
        url, data=data, method="POST" if data is not None else "GET"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def post_ticks(base: str, dataset, start: int, stop: int, batch: int = 24) -> None:
    """POST hours ``[start, stop)`` in batches, honouring Retry-After."""
    for lo in range(start, stop, batch):
        hi = min(lo + batch, stop)
        body = tick_lines(dataset, lo, hi)
        for _ in range(200):
            status, headers, payload = http(base + "/ticks", data=body)
            if status != 429:
                break
            time.sleep(float(headers.get("Retry-After", "1")))
        assert status == 200, payload
        reply = json.loads(payload)
        assert reply["processed"] == hi - lo


def sse_collect(
    host: str,
    port: int,
    last_event_id: int | None = -1,
    expect: int | None = None,
    idle_timeout: float = 3.0,
    total_timeout: float = 120.0,
) -> list[tuple[int, str]]:
    """Raw-socket SSE client; returns ``(id, data-json)`` frames.

    Reads until *expect* frames arrived (when given) or the stream goes
    idle for *idle_timeout* seconds.
    """
    sock = socket.create_connection((host, port))
    target = "/alerts" if last_event_id is None else f"/alerts?last_event_id={last_event_id}"
    sock.sendall(f"GET {target} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    sock.settimeout(idle_timeout)
    deadline = time.monotonic() + total_timeout
    buffer = b""
    frames: list[tuple[int, str]] = []

    def drain_frames() -> None:
        # The header block and the retry: preamble fall out of the
        # "id:"/"data:" filter below, so no explicit header parsing.
        nonlocal buffer
        while b"\n\n" in buffer:
            raw, buffer = buffer.split(b"\n\n", 1)
            text = raw.decode("utf-8")
            if "id:" not in text or "data:" not in text:
                continue
            event_id = None
            data = None
            for line in text.splitlines():
                if line.startswith("id:"):
                    event_id = int(line[3:].strip())
                elif line.startswith("data:"):
                    data = line[5:].strip()
            if event_id is not None and data is not None:
                frames.append((event_id, data))

    try:
        while time.monotonic() < deadline:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                break
            if not chunk:
                break
            buffer += chunk
            drain_frames()
            if expect is not None and len(frames) >= expect:
                break
    finally:
        sock.close()
    # Strip the HTTP header block (arrives before the first frame).
    return frames
