"""The four end-to-end workloads and the serving stacks they drive.

Every stack is assembled from public library calls at the library's
shipping defaults: ``CheckpointManager`` snapshots every 168 h, the
dark-sector threshold is 84 h, fleets are supervised with
``SupervisorConfig()``, alerts name the top 5 sectors, and the registry
is warm before the first tick (as the CLI leaves it after training).
The program receives only the fixture's inputs.

* ``backfill-guarded`` -- closed loop, one caller, 24-h ``submit_block``
  calls into an in-process ``ResilientHotSpotService`` with WAL,
  snapshots and dark tracking.
* ``backfill-fleet`` -- the same calls into a 2-shard ``build_fleet``
  whose shards each run in a forked, supervised host process.
* ``faulty-stream`` -- closed loop of per-tick ``submit_tick`` calls:
  whole-world replays through a fresh guarded service with the Average
  baseline and no checkpoint, each under its own ``chaos_stream``
  schedule.
* ``live-gateway`` -- closed loop: one tick per ``POST /ticks``, each
  sent when the previous one is acknowledged, against
  ``gateway_server.py`` in a subprocess, from one thread that also
  follows ``GET /alerts`` (two connections).

No forecast exists before day 21, so the first 21 days of every
backfill and live pass warm the stack up and are not measured.  A
backfill run replays the whole world once, then, until ``seconds`` of
calls have been measured, passes that stop at the next week boundary;
the live run stops there too.  Every measured week thus holds six plain
days and one snapshot.  faulty-stream replays whole worlds until
``seconds`` of calls have been measured.  The measured wall is the sum
of call times, so the load generator's own work between calls is
excluded.
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

try:
    import orjson
except ImportError:  # optional: only speeds up encoding the live ticks
    orjson = None

from fixture import (
    BASELINE,
    HORIZONS,
    MODEL,
    TOP_K,
    TRAIN_DAY,
    W_MAX,
    WINDOW,
    Fixture,
)
from repro.data.tensor import HOURS_PER_DAY, HOURS_PER_WEEK
from repro.fleet import FleetConfig, SupervisorConfig, build_fleet, recover_fleet
from repro.resilience import (
    ChaosConfig,
    CheckpointManager,
    ResilientHotSpotService,
    ResilientPredictionEngine,
    chaos_stream,
)
from repro.serve import HotSpotService, ModelRegistry, ServeConfig, StreamIngestor
from repro.serve.registry import ModelKey

HERE = Path(__file__).resolve().parent

BLOCK_HOURS = 24
N_SHARDS = 2
SETUP_REPEATS = 7
SERVER_SPAWNS = 3
RECOVERIES = 3
#: Hours before the first forecast; not measured.
WARM_HOURS = TRAIN_DAY * HOURS_PER_DAY


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    hours: int = 0  # hours applied by the measured calls
    busy_s: float = 0.0  # measured wall: summed call time
    request_ms: list = field(default_factory=list)
    alert_ms: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)  # the generator's gap between calls
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Measured intervals (perf_counter); spans outside them are set-up.
    windows: list = field(default_factory=list)
    #: Process whose spans must account for the measured wall.
    driving_pid: int = field(default_factory=os.getpid)
    #: live-gateway: client latency per tick hour, for the outside time.
    latency_by_hour: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def record(self, start: float, end: float, hours: int, events: list) -> None:
        self.busy_s += end - start
        self.hours += hours
        self.request_ms.append((end - start) * 1e3)
        if any(event.get("type") == "alert" for event in events):
            self.alert_ms.append((end - start) * 1e3)
        self.windows.append((start, end))


def vmhwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of *pid* in MB, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def lines_sha256(lines: list[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


def build_guarded(
    stream: dict,
    registry_dir: Path,
    checkpoint_dir: Path | None = None,
    model: str = MODEL,
) -> ResilientHotSpotService:
    """The single-node guarded stack at shipping defaults."""
    ingestor = StreamIngestor(
        n_sectors=stream["n_sectors"],
        n_kpis=stream["n_kpis"],
        w_max=W_MAX,
        start_weekday=stream["start_weekday"],
        start_hour=stream["start_hour"],
    )
    registry = ModelRegistry(registry_dir)
    for horizon in HORIZONS:
        registry.get(ModelKey("hot", model, horizon, WINDOW))
    engine = ResilientPredictionEngine(
        ingestor, registry, target="hot", model=model, window=WINDOW
    )
    service = HotSpotService(
        engine, ServeConfig(horizons=HORIZONS, start_day=TRAIN_DAY, top_k=TOP_K)
    )
    checkpoint = None
    if checkpoint_dir is not None:
        checkpoint = CheckpointManager.for_ingestor(checkpoint_dir, ingestor)
    return ResilientHotSpotService(service, checkpoint=checkpoint)


def _check_stream(out: Outcome, lines: list[str], expected: list[str], what: str) -> None:
    if lines != expected:
        first = next(
            (i for i, (a, b) in enumerate(zip(lines, expected)) if a != b),
            min(len(lines), len(expected)),
        )
        out.problems.append(
            f"{what}: event stream diverges from the reference at line {first} "
            f"({len(lines)} lines, reference {len(expected)})"
        )


def _replay_blocks(
    target, world, out: Outcome, seconds: float | None
) -> tuple[list[str], int]:
    """One pass of 24-h ``submit_block`` calls, measured after the warm-up.

    The pass covers the whole world, or with *seconds* given, ends at the
    first week boundary with that much measured.  Returns the event lines
    and the hours applied.
    """
    kpis = world.kpis
    lines: list[str] = []
    last_end = None
    hi = 0
    for lo in range(0, kpis.n_hours, BLOCK_HOURS):
        if seconds is not None and lo % HOURS_PER_WEEK == 0 and out.busy_s >= seconds:
            break
        hi = min(lo + BLOCK_HOURS, kpis.n_hours)
        values = kpis.values[:, lo:hi, :]
        missing = kpis.missing[:, lo:hi, :]
        rows = world.calendar[lo:hi]
        out.attempted += 1
        start = time.perf_counter()
        if last_end is not None:
            out.late_ms.append((start - last_end) * 1e3)
        try:
            events = target.submit_block(values, missing, rows, first_hour=lo)
        except Exception as error:  # noqa: BLE001 - counted, run marked incorrect
            out.failed += 1
            out.problems.append(f"submit_block at hour {lo}: {type(error).__name__}: {error}")
            break
        end = time.perf_counter()
        if lo >= WARM_HOURS:
            last_end = end
            out.record(start, end, hi - lo, events)
        lines.extend(json.dumps(event) for event in events)
    return lines, hi


def _timed(out: Outcome, build):
    """Call *build*, recording its time as one set-up sample."""
    start = time.perf_counter()
    built = build()
    out.setup_s.append(time.perf_counter() - start)
    return built


def _check_recovery(out: Outcome, recover, n_hours: int) -> None:
    """Median time of :data:`RECOVERIES` recoveries, each to *n_hours*."""
    samples, clocks = [], []
    for _ in range(RECOVERIES):
        start = time.perf_counter()
        clocks.append(recover())
        samples.append(time.perf_counter() - start)
    out.info["recover_s"] = statistics.median(samples)
    if any(clock != n_hours for clock in clocks):
        out.problems.append(f"recovery restored {clocks} hours, expected {n_hours}")


# ---------------------------------------------------------------- backfill
def backfill_guarded(fx: Fixture, seconds: float, work: Path, seed: int,
                     trace_dir: Path | None) -> Outcome:
    out = Outcome()
    stream = fx.manifest["stream"]

    def build(directory):
        return _timed(out, lambda: build_guarded(stream, fx.registry_dir, directory))

    for i in range(SETUP_REPEATS - 1):
        build(work / f"setup-{i}").checkpoint.close()
    passes = 0
    while passes == 0 or (out.busy_s < seconds and not out.problems):
        directory = work / f"guarded-{passes}"
        guarded = build(directory)
        lines, hours = _replay_blocks(guarded, fx.world, out, seconds if passes else None)
        guarded.checkpoint.close()
        _check_stream(out, lines, fx.reference_until(hours), "backfill-guarded")
        if passes == 0:
            _check_recovery(
                out, lambda: CheckpointManager.recover(directory).ingestor.hours_seen, hours,
            )
        passes += 1
    out.peak_rss_mb = vmhwm_mb()
    out.info["passes"] = passes
    return out


def backfill_fleet(fx: Fixture, seconds: float, work: Path, seed: int,
                   trace_dir: Path | None) -> Outcome:
    out = Outcome()
    config = FleetConfig.for_dataset(
        fx.world, fx.registry_dir, model=MODEL, window=WINDOW, horizons=HORIZONS,
        start_day=TRAIN_DAY, top_k=TOP_K, w_max=W_MAX,
    )

    def build(directory):
        return _timed(out, lambda: build_fleet(
            directory, config, N_SHARDS, supervise=SupervisorConfig()
        ))

    def recover(directory):
        recovered = recover_fleet(directory, config)
        recovered.close()
        return recovered.clock

    for i in range(SETUP_REPEATS - 1):
        build(work / f"setup-{i}").close()
    passes = 0
    while passes == 0 or (out.busy_s < seconds and not out.problems):
        directory = work / f"fleet-{passes}"
        fleet = build(directory)
        try:
            if fleet.backend.name != "supervised":
                out.problems.append(f"fleet backend is {fleet.backend.name!r}, not supervised")
                break
            lines, hours = _replay_blocks(fleet, fx.world, out, seconds if passes else None)
            supervision = fleet.backend.supervisor_stats()
            if supervision["worker_restarts"] or supervision["degraded_shards"]:
                out.problems.append(f"fleet supervision intervened: {supervision}")
            hosts = [host.process.pid for host in fleet.backend.hosts]
            rss = vmhwm_mb() + sum(vmhwm_mb(pid) for pid in hosts)
            out.peak_rss_mb = max(out.peak_rss_mb, rss)
        finally:
            fleet.close()
        _check_stream(out, lines, fx.reference_until(hours), "backfill-fleet")
        if passes == 0:
            _check_recovery(out, lambda: recover(directory), hours)
        passes += 1
    out.info["passes"] = passes
    return out


# ------------------------------------------------------------------ faulty
def chaos_config(seed: int, replay: int, n_hours: int) -> ChaosConfig:
    """The fault schedule of one replay, derived from the run's seed."""
    return ChaosConfig(
        seed=int(np.random.SeedSequence([seed, replay]).generate_state(1)[0]),
        p_drop=0.03,
        p_duplicate=0.02,
        p_reorder=0.02,
        p_corrupt=0.03,
        dark_sector=1,
        dark_span=(n_hours - 264, n_hours),
    )


def _dark_intervals(hours: dict, last: int, config: ChaosConfig, threshold: int) -> list:
    """Hour intervals ``[start, stop)`` in which the forced sector is dark.

    ``chaos_stream`` does not apply the dark mask to the early half of a
    reordered pair, so inside the dark span the sector still reports real
    KPIs at hour ``r + 1`` of every reorder ``r``.  Every hour with real
    KPIs restarts the sector's fully-missing run; the sector is dark
    while that run is at least *threshold* hours long.
    """
    lost = hours["drop"] | hours["corrupt"] | hours["reorder"]
    real = {hour for hour in range(config.dark_span[0]) if hour not in lost}
    real |= {r + 1 for r in hours["reorder"] if r + 1 <= last}
    marks = sorted(real | {-1, last + 1})
    return [(a + threshold, b) for a, b in zip(marks, marks[1:]) if a + threshold < b]


def check_chaos_contract(
    injected: list[dict], events: list[dict], guard, config: ChaosConfig, end_hour: int
) -> list[str]:
    """The resilience contract of ``bench_chaos_replay`` minus its
    registry-fault clauses; returns the violated clauses.  The dark-sector
    clauses follow the schedule's dark intervals (:func:`_dark_intervals`):
    the sector is announced exactly when each begins and no alert names
    it inside one."""
    problems = []

    def of(kind):
        return [event for event in events if event.get("event") == kind]

    hours = {kind: set() for kind in ("drop", "corrupt", "reorder", "duplicate")}
    for fault in injected:
        hours[fault["fault"]].add(fault["hour"])
    if len(injected) < 0.05 * end_hour:
        problems.append("schedule below the 5% fault bar")
    if len(of("quarantine")) != len(hours["corrupt"]) + len(hours["reorder"]):
        problems.append("quarantines do not match corrupt + reordered ticks")
    if len(of("duplicate")) != len(hours["duplicate"]):
        problems.append("duplicates not reconciled exactly once each")
    lost = hours["drop"] | hours["corrupt"] | hours["reorder"]
    accepted = [hour for hour in range(end_hour) if hour not in lost]
    lost_before_end = {
        hour for hour in hours["drop"] | hours["corrupt"] if hour < max(accepted)
    } | hours["reorder"]
    if {event["hour"] for event in of("gap_fill")} != lost_before_end:
        problems.append("gap fills do not cover exactly the lost hours")
    intervals = _dark_intervals(hours, max(accepted), config, guard.dark.threshold_hours)
    announced = [event["hour"] for event in of("sector_dark")]
    if announced != [start for start, _ in intervals] or any(
        event["sector"] != config.dark_sector for event in of("sector_dark")
    ):
        problems.append(f"dark announcements at {announced}, expected {intervals}")
    if guard.dark.went_dark_total != len(intervals):
        problems.append("dark tracker total disagrees with the schedule")
    for event in events:
        if event.get("type") == "alert" and config.dark_sector in event["sectors"]:
            hour = event["t_day"] * HOURS_PER_DAY + HOURS_PER_DAY - 1
            if any(start <= hour < stop for start, stop in intervals):
                problems.append(f"an alert at hour {hour} named the dark sector")
    return problems


def faulty_stream(fx: Fixture, seconds: float, work: Path, seed: int,
                  trace_dir: Path | None) -> Outcome:
    out = Outcome()
    stream = fx.manifest["stream"]
    replay = 0
    while replay == 0 or (out.busy_s < seconds and not out.problems):
        config = chaos_config(seed, replay, fx.n_hours)
        guarded = _timed(out, lambda: build_guarded(stream, fx.registry_dir, model=BASELINE))
        injected: list[dict] = []
        events: list[dict] = []
        last_end = None
        for envelope, fault in chaos_stream(fx.world, config):
            if fault is not None:
                injected.append(fault)
            if envelope is None:
                continue
            out.attempted += 1
            start = time.perf_counter()
            if last_end is not None:
                out.late_ms.append((start - last_end) * 1e3)
            try:
                tick_events = guarded.submit_tick(
                    envelope["values"], envelope["missing"], envelope["calendar"],
                    hour=envelope["hour"],
                )
            except Exception as error:  # noqa: BLE001 - counted, run marked incorrect
                out.failed += 1
                out.problems.append(
                    f"replay {replay} hour {envelope['hour']}: {type(error).__name__}: {error}"
                )
                last_end = None
                continue
            last_end = time.perf_counter()
            out.record(start, last_end, 0, tick_events)
            events.extend(tick_events)
        out.hours += guarded.ingestor.hours_seen
        out.problems.extend(
            f"replay {replay}: {problem}"
            for problem in check_chaos_contract(injected, events, guarded, config, fx.n_hours)
        )
        if replay == 0:
            out.info["replay0_sha256"] = lines_sha256([json.dumps(e) for e in events])
            out.counts = {
                "quarantined": guarded.telemetry.counter("ticks_quarantined"),
                "reconciled": guarded.telemetry.counter("ticks_reconciled"),
                "gap_filled": guarded.telemetry.counter("ticks_gap_filled"),
            }
        replay += 1
    out.peak_rss_mb = vmhwm_mb()
    out.info["replays"] = replay
    return out


# -------------------------------------------------------------------- live
def _tick_body(world, hour: int) -> bytes:
    """One tick as JSON; every float prints in its shortest exact form."""
    kpis = world.kpis
    tick = {
        "op": "tick",
        "hour": hour,
        "values": np.ascontiguousarray(kpis.values[:, hour, :]),
        "missing": np.ascontiguousarray(kpis.missing[:, hour, :]),
        "calendar": np.ascontiguousarray(world.calendar[hour]),
    }
    if orjson is not None:  # ~15x faster than json here; not measured either way
        return orjson.dumps(tick, option=orjson.OPT_SERIALIZE_NUMPY)
    tick = {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in tick.items()}
    return json.dumps(tick, separators=(",", ":")).encode("utf-8")


def _post_request(body: bytes) -> bytes:
    head = f"POST /ticks HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("ascii") + body


def _pop_response(buffer: bytearray) -> int | None:
    """Remove one complete HTTP response from *buffer*; its status code."""
    head_end = buffer.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    head = bytes(buffer[:head_end]).decode("latin-1").split("\r\n")
    length = 0
    for header in head[1:]:
        name, _, value = header.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    if len(buffer) < head_end + 4 + length:
        return None
    del buffer[: head_end + 4 + length]
    return int(head[0].split()[1])


class _Server:
    """``gateway_server.py`` as a subprocess, from spawn to shutdown."""

    def __init__(self, fx: Fixture, directory: Path, trace_dir: Path | None) -> None:
        self.stderr_path = directory.with_suffix(".stderr")
        command = [
            sys.executable, str(HERE / "gateway_server.py"),
            "--fixture", str(fx.directory), "--checkpoint-dir", str(directory),
        ]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        start = time.perf_counter()
        with open(self.stderr_path, "wb") as stderr:
            self.process = subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr
            )
        listening = self._line(timeout=120.0)
        self.setup_s = time.perf_counter() - start
        if listening.get("type") != "listening":
            self.stop()
            raise RuntimeError(f"gateway server did not start: {listening}")
        self.address = (listening["host"], listening["port"])
        self.pid = self.process.pid

    def _line(self, timeout: float) -> dict:
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                return {}
        raw = self.process.stdout.readline()
        return json.loads(raw) if raw else {}

    def stop(self) -> tuple[dict, list[str]]:
        """Close stdin, collect the shutdown line; returns it and problems."""
        problems = []
        self.process.stdin.close()
        summary = self._line(timeout=60.0)
        try:
            code = self.process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self.process.stdout.close()
        if code != 0:
            problems.append(f"gateway server exited with {code}")
        stderr = self.stderr_path.read_text(encoding="utf-8", errors="replace")
        if "Traceback" in stderr:
            problems.append(f"gateway server logged a traceback:\n{stderr[-2000:]}")
        return summary, problems


class _Client:
    """The live load generator: one thread, two connections.

    ``POST /ticks`` requests go out one at a time on *post*; ``GET
    /alerts`` is followed on *sse*.  While it waits for a response it
    reads both connections, and stamps each response and each SSE frame
    on arrival.
    """

    def __init__(self, post: socket.socket, sse: socket.socket, deadline: float) -> None:
        self.post, self.sse, self.deadline = post, sse, deadline
        self.acks: list[tuple[float, int]] = []  # (arrival, status)
        self.frames: list[tuple[float, str]] = []  # (arrival, data)
        self._post_in = bytearray()
        self._sse_in = bytearray()
        self._sse_started = False

    def request(self, payload: bytes) -> tuple[float, float, int]:
        """Send one request and wait for its response: (sent, arrival, status)."""
        count = len(self.acks)
        sent = time.perf_counter()
        self.post.sendall(payload)
        while len(self.acks) == count:
            self._read()
        return (sent, *self.acks[-1])

    def wait_frames(self, count: int) -> None:
        """Read until *count* SSE frames have arrived."""
        while len(self.frames) < count:
            self._read()

    def _read(self) -> None:
        if time.perf_counter() > self.deadline:
            raise TimeoutError("the gateway did not answer in time")
        with selectors.DefaultSelector() as selector:
            selector.register(self.post, selectors.EVENT_READ, self._on_post)
            selector.register(self.sse, selectors.EVENT_READ, self._on_sse)
            for key, _mask in selector.select(timeout=0.5):
                data = key.fileobj.recv(1 << 20)
                if not data:
                    raise ConnectionError("the gateway closed a connection")
                key.data(data, time.perf_counter())

    def _on_post(self, data: bytes, now: float) -> None:
        self._post_in += data
        while (status := _pop_response(self._post_in)) is not None:
            self.acks.append((now, status))

    def _on_sse(self, data: bytes, now: float) -> None:
        self._sse_in += data
        if not self._sse_started:
            head_end = self._sse_in.find(b"\r\n\r\n")
            if head_end < 0:
                return
            del self._sse_in[: head_end + 4]
            self._sse_started = True
        while (end := self._sse_in.find(b"\n\n")) >= 0:
            frame = bytes(self._sse_in[:end]).decode("utf-8")
            del self._sse_in[: end + 2]
            for line in frame.split("\n"):
                if line.startswith("data: "):
                    self.frames.append((now, line[6:]))


def live_gateway(fx: Fixture, seconds: float, work: Path, seed: int,
                 trace_dir: Path | None) -> Outcome:
    out = Outcome()
    running: list[_Server] = []
    try:
        for i in range(SERVER_SPAWNS):
            running.append(_Server(fx, work / f"gateway-{i}", trace_dir))
            out.setup_s.append(running[-1].setup_s)
            if i < SERVER_SPAWNS - 1:
                out.problems.extend(running.pop().stop()[1])
        server = running[0]
        out.driving_pid = server.pid
        _drive_live(fx, seconds, server, out)
        running.clear()
        summary, problems = server.stop()
        out.problems.extend(problems)
    finally:
        for server in running:
            server.process.kill()
            server.process.wait()
    end = out.info.get("end_hour")
    out.peak_rss_mb = float(summary.get("peak_rss_mb", 0.0))
    if summary.get("clock") != end:
        out.problems.append(f"gateway clock {summary.get('clock')}, expected {end}")
    if summary.get("rejected") or summary.get("sse_dropped"):
        out.problems.append(f"gateway rejected or dropped events: {summary}")
    _check_recovery(
        out,
        lambda: CheckpointManager.recover(work / f"gateway-{SERVER_SPAWNS - 1}")
        .ingestor.hours_seen,
        end,
    )
    return out


def _drive_live(fx: Fixture, seconds: float, server: _Server, out: Outcome) -> None:
    """Warm the server up, then post one tick at a time, measured."""
    sse = socket.create_connection(server.address)
    post = socket.create_connection(server.address)
    post.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    client = _Client(post, sse, deadline=time.perf_counter() + 4 * seconds + 120.0)
    hour = 0
    try:
        sse.sendall(b"GET /alerts?last_event_id=-1 HTTP/1.1\r\nHost: bench\r\n\r\n")
        # Warm-up (not measured): the days before the first alert, in
        # day-sized batches of one-tick lines.
        for lo in range(0, WARM_HOURS, BLOCK_HOURS):
            body = b"\n".join(_tick_body(fx.world, h) for h in range(lo, lo + BLOCK_HOURS))
            out.attempted += 1
            *_, status = client.request(_post_request(body))
            if status != 200:
                out.failed += 1
                out.problems.append(f"warm-up POST at hour {lo} answered {status}")
                return
            hour = lo + BLOCK_HOURS
        # Measured: one day at a time, its bodies encoded before its first
        # send and its last SSE event awaited after its last ack, so the
        # client never encodes while a response or frame is due.
        while hour < fx.n_hours and not (hour % HOURS_PER_WEEK == 0 and out.busy_s >= seconds):
            day = range(hour, min(hour + HOURS_PER_DAY, fx.n_hours))
            requests = [_post_request(_tick_body(fx.world, h)) for h in day]
            last_ack = None
            for h, payload in zip(day, requests):
                out.attempted += 1
                sent, arrival, status = client.request(payload)
                if status != 200:
                    out.failed += 1
                    out.problems.append(f"tick {h} answered {status}")
                    return
                if last_ack is not None:
                    out.late_ms.append((sent - last_ack) * 1e3)
                last_ack = arrival
                out.record(sent, arrival, 1, [])
                out.latency_by_hour[h] = (arrival - sent) * 1e3
                hour = h + 1
            count = len(fx.reference_until(hour))
            client.wait_frames(count)
            if count and fx.reference_hours[count - 1] == hour - 1:
                # Alert latency: from the send of the tick closing the day
                # to the arrival of that day's last event.
                out.alert_ms.append((client.frames[count - 1][0] - sent) * 1e3)
    except OSError as error:  # the connection failed or timed out
        out.problems.append(f"live client at hour {hour}: {type(error).__name__}: {error}")
    finally:
        post.close()
        sse.close()
    out.info["end_hour"] = hour
    _check_stream(out, [data for _, data in client.frames], fx.reference_until(hour),
                  "live-gateway SSE")


WORKLOADS = {
    "backfill-guarded": backfill_guarded,
    "backfill-fleet": backfill_fleet,
    "faulty-stream": faulty_stream,
    "live-gateway": live_gateway,
}
