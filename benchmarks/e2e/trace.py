"""Span tracing for the end-to-end benchmark, installed from outside ``src/``.

:func:`install` replaces public methods of the serving stack, at class
level, with wrappers that record one span per call: name, pid, span id,
parent span id, start, end, self time and request id.  The request id
is the first hour the call covers (a ``first_hour``/``hour`` argument),
inherited from the parent span when the call has none, so spans of one
tick or block can be matched across processes.

Spans stay in memory.  The driving process reads its own list; every
other process writes ``spans-<pid>.jsonl`` into the trace directory when
it finishes: forked shard hosts from a wrapper around
``ShardWorker.close`` (they inherit the wrapped classes through the
fork), the gateway server when its stdin closes.

Self time is a span's duration minus its children's.  Spans on one
thread nest strictly, so the children's union is their sum.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _predict_rows(args, kwargs, result):
    return int(np.shape(args[1])[0])


def _snapshot_bytes(args, kwargs, result):
    return os.path.getsize(result)


def _wal_bytes(args, kwargs, result):
    # One record per hour: 8 B hour + 4 B length + payload + 4 B CRC,
    # payload = float64 values, uint8 missing, 5 float64 calendar.
    values, missing = np.asarray(args[2]), np.asarray(args[3])
    hours = values.shape[1] if values.ndim == 3 else 1
    return int(values.size * 8 + missing.size + hours * (5 * 8 + 16))


def _fleet_bytes(args, kwargs, result):
    backend, values, missing, rows = args[0], args[2], args[3], args[4]
    shards = len(backend.hosts)
    return int(values.nbytes + missing.nbytes + shards * np.asarray(rows).nbytes)


def _journal_events(args, kwargs, result):
    return len(result)


#: (module, class, method, span name, request-id argument, size function).
#: The size function maps ``(args, kwargs, result)`` to the work a call
#: did: rows predicted, bytes written or shipped, events journaled.
WRAPPED = (
    # StreamIngestor.ingest_hour delegates to ingest_block.
    ("repro.serve.ingest", "StreamIngestor", "ingest_block", "serve.ingest", None, None),
    ("repro.serve.engine", "PredictionEngine", "predict", "serve.predict", None, None),
    ("repro.serve.service", "HotSpotService", "ingest_block", "serve.events", None, None),
    ("repro.serve.service", "HotSpotService", "ingest_hour", "serve.events", None, None),
    ("repro.serve.registry", "ModelRegistry", "get", "serve.registry", None, None),
    ("repro.ml.forest", "RandomForestClassifier", "predict_proba", "ml.predict_proba",
     None, _predict_rows),
    ("repro.resilience.checkpoint", "CheckpointManager", "snapshot", "resilience.snapshot",
     None, _snapshot_bytes),
    ("repro.resilience.checkpoint", "CheckpointManager", "record_block", "resilience.wal",
     "first_hour", _wal_bytes),
    ("repro.resilience.checkpoint", "CheckpointManager", "record_tick", "resilience.wal",
     "hour", _wal_bytes),
    ("repro.resilience.validate", "TickValidator", "validate", "resilience.validate",
     None, None),
    ("repro.resilience.validate", "DarkSectorTracker", "observe", "resilience.dark",
     None, None),
    ("repro.resilience.guard", "ResilientHotSpotService", "submit_block", "resilience.guard",
     "first_hour", None),
    ("repro.resilience.guard", "ResilientHotSpotService", "submit_tick", "resilience.guard",
     "hour", None),
    ("repro.fleet.coordinator", "FleetCoordinator", "submit_block", "fleet.coordinator",
     "first_hour", None),
    ("repro.fleet.coordinator", "FleetCoordinator", "submit_tick", "fleet.coordinator",
     "hour", None),
    ("repro.fleet.supervisor", "FleetSupervisor", "submit_block", "fleet.backend",
     "first_hour", _fleet_bytes),
    ("repro.fleet.supervisor", "FleetSupervisor", "submit_hour", "fleet.backend",
     "hour", _fleet_bytes),
    ("repro.fleet.worker", "ShardWorker", "submit_block", "fleet.shard", "first_hour", None),
    ("repro.fleet.worker", "ShardWorker", "submit", "fleet.shard", "hour", None),
    ("repro.gateway.backends", "ResilientBackend", "submit", "gateway.backend", "hour", None),
    ("repro.gateway.journal", "EventJournal", "record_hour", "gateway.journal", "hour",
     _journal_events),
    ("repro.gateway.journal", "EventJournal", "record_transient", "gateway.journal", None,
     _journal_events),
    ("repro.gateway.sse", "SseHub", "publish", "gateway.publish", None, None),
)


class Tracer:
    """In-memory span store for one process (reset in forked children)."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        #: (name, id, parent id, start, end, self seconds, request id, size)
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, name: str, rid_arg: str | None = None, size=None):
        """A span-recording wrapper around *func* (an unbound method)."""
        tracer = self
        rid_index = None
        if rid_arg is not None:
            rid_index = func.__code__.co_varnames.index(rid_arg)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            rid = None
            if rid_index is not None:
                rid = kwargs.get(rid_arg, args[rid_index] if rid_index < len(args) else None)
            if rid is None and parent is not None:
                rid = parent[2]
            # frame: [child seconds, span id, request id]
            frame = [0.0, next(tracer._ids), None if rid is None else int(rid)]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[0] += end - start
            work = size(args, kwargs, result) if size is not None else None
            tracer.spans.append((
                name, frame[1], None if parent is None else parent[1],
                start, end, end - start - frame[0], frame[2], work,
            ))
            return result

        return wrapper

    def flush(self) -> Path:
        """Write this process's spans to ``spans-<pid>.jsonl``."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"spans-{self.pid}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        return path


def install(tracer: Tracer) -> None:
    """Wrap every method in :data:`WRAPPED`; call before any stack is built."""
    import importlib

    for module_name, class_name, method, name, rid_arg, size in WRAPPED:
        owner = getattr(importlib.import_module(module_name), class_name)
        setattr(owner, method, tracer.wrap(owner.__dict__[method], name, rid_arg, size))

    from repro.fleet.worker import ShardWorker

    close = ShardWorker.close

    @functools.wraps(close)
    def close_and_flush(self):
        close(self)
        # Only shard *host processes* flush here; an in-process worker
        # (recovery's serial backend) belongs to the driving process.
        if os.getpid() != tracer.root_pid:
            tracer.flush()

    ShardWorker.close = close_and_flush


def span_cost(repeats: int = 20000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op method."""

    class Probe:
        def call(self, first_hour=0):
            return None

    probe = Probe()
    plain = Probe.call
    wrapped = Tracer(Path(".")).wrap(plain, "probe", "first_hour")
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeats):
            plain(probe, 0)
        mid = time.perf_counter()
        for _ in range(repeats):
            wrapped(probe, 0)
        end = time.perf_counter()
        best = min(best, ((end - mid) - (mid - start)) / repeats)
    return max(best, 0.0)


#: Per-layer metrics and their units.  ``.frac`` metrics are self time
#: (shard and server spans included) as a share of the measured wall.
LAYERS = {
    "serve.ingest.calls": "count",
    "serve.ingest.frac": "fraction",
    "serve.events.frac": "fraction",
    "serve.predict.frac": "fraction",
    "serve.registry.frac": "fraction",
    "ml.predict_proba.calls": "count",
    "ml.predict_proba.rows": "count",
    "ml.predict_proba.frac": "fraction",
    "resilience.guard.frac": "fraction",
    "resilience.validate.calls": "count",
    "resilience.validate.frac": "fraction",
    "resilience.dark.frac": "fraction",
    "resilience.snapshot.calls": "count",
    "resilience.snapshot.bytes": "bytes",
    "resilience.snapshot.frac": "fraction",
    "resilience.wal.calls": "count",
    "resilience.wal.bytes": "bytes",
    "resilience.wal.frac": "fraction",
    "resilience.quarantined": "count",
    "resilience.reconciled": "count",
    "resilience.gap_filled": "count",
    "fleet.coordinator.frac": "fraction",
    "fleet.backend.wait_frac": "fraction",
    "fleet.shard.frac": "fraction",
    "fleet.shard.busy_frac": "fraction",
    "fleet.shard.skew": "ratio",
    "fleet.bytes_sent": "bytes",
    "gateway.backend.frac": "fraction",
    "gateway.journal.calls": "count",
    "gateway.journal.events": "count",
    "gateway.journal.frac": "fraction",
    "gateway.publish.frac": "fraction",
    "data.load_s": "s",
    "bench.outside_ms_p50": "ms",
    "bench.outside_ms_p99": "ms",
    "bench.generator_late_ms_p99": "ms",
    "bench.slo_miss_frac": "fraction",
    "bench.coverage_frac": "fraction",
    "bench.trace_overhead_frac": "fraction",
}

SLO_MS = 250.0


def _p(samples, q: float) -> float:
    return float(np.percentile(samples, q)) if len(samples) else 0.0


def per_layer(rows: list[tuple], out, load_s: float, cost_s: float) -> dict:
    """The per-layer metrics of a traced run: name -> (value, unit).

    *rows* come from :func:`load_spans`; only spans starting inside the
    run's measured windows count.  *out* is the workload's outcome and
    *cost_s* the per-span wrapper cost from :func:`span_cost`.
    """
    windows = sorted(out.windows)
    starts = [start for start, _ in windows]

    def measured(start: float) -> bool:
        i = bisect.bisect_right(starts, start) - 1
        return i >= 0 and start <= windows[i][1]

    spans = [row for row in rows if measured(row[4])]
    wall = out.busy_s
    calls, self_s, size = defaultdict(int), defaultdict(float), defaultdict(int)
    shard_busy, shard_longest = defaultdict(float), defaultdict(float)
    for pid, name, _id, _parent, start, end, own, rid, work in spans:
        calls[name] += 1
        self_s[name] += own
        size[name] += work or 0
        if name == "fleet.shard":
            shard_busy[pid] += end - start
            shard_longest[rid] = max(shard_longest[rid], end - start)
    wait = sum(
        end - start - shard_longest[rid]
        for _pid, name, _id, _parent, start, end, _own, rid, _work in spans
        if name == "fleet.backend"
    )

    if out.latency_by_hour:  # live: match ticks to server spans by hour
        served = {
            rid: end - start for _pid, name, _id, _parent, start, end, _o, rid, _w in spans
            if name == "gateway.backend"
        }
        outside = [
            latency - 1e3 * served[hour]
            for hour, latency in out.latency_by_hour.items() if hour in served
        ]
    else:  # closed loop: each call has exactly one top-level span, in order
        tops = sorted(
            (start, end) for pid, _n, _i, parent, start, end, _o, _r, _w in spans
            if pid == out.driving_pid and parent is None
        )
        outside = [
            latency - 1e3 * (end - start)
            for latency, (start, end) in zip(out.request_ms, tops)
        ] if len(tops) == len(out.request_ms) else []

    busy = list(shard_busy.values())
    missed = sum(latency > SLO_MS for latency in out.request_ms) + out.failed
    values = {
        "serve.ingest.calls": calls["serve.ingest"],
        "ml.predict_proba.calls": calls["ml.predict_proba"],
        "ml.predict_proba.rows": size["ml.predict_proba"],
        "resilience.validate.calls": calls["resilience.validate"],
        "resilience.snapshot.calls": calls["resilience.snapshot"],
        "resilience.snapshot.bytes": size["resilience.snapshot"],
        "resilience.wal.calls": calls["resilience.wal"],
        "resilience.wal.bytes": size["resilience.wal"],
        "resilience.quarantined": out.counts.get("quarantined", 0),
        "resilience.reconciled": out.counts.get("reconciled", 0),
        "resilience.gap_filled": out.counts.get("gap_filled", 0),
        "fleet.backend.wait_frac": wait / wall,
        "fleet.shard.busy_frac": sum(busy) / (len(busy) * wall) if busy else 0.0,
        "fleet.shard.skew": max(busy) / min(busy) if len(busy) > 1 else 0.0,
        "fleet.bytes_sent": size["fleet.backend"],
        "gateway.journal.calls": calls["gateway.journal"],
        "gateway.journal.events": size["gateway.journal"],
        "data.load_s": load_s,
        "bench.outside_ms_p50": _p(outside, 50),
        "bench.outside_ms_p99": _p(outside, 99),
        "bench.generator_late_ms_p99": _p(out.late_ms, 99),
        "bench.slo_miss_frac": missed / max(out.attempted, 1),
        "bench.coverage_frac": sum(
            row[6] for row in spans if row[0] == out.driving_pid
        ) / wall,
        "bench.trace_overhead_frac": len(spans) * cost_s / wall,
    }
    for metric in LAYERS:
        if metric.endswith(".frac") and metric not in values:
            values[metric] = self_s[metric[: -len(".frac")]] / wall
    return {metric: (values[metric], unit) for metric, unit in LAYERS.items()}


def load_spans(directory: Path, own: list[tuple], own_pid: int) -> list[tuple]:
    """All spans: the driving process's plus every flushed file, with pids.

    Returns ``(pid, name, id, parent, start, end, self, rid, size)`` rows.
    """
    rows = [(own_pid, *span) for span in own]
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        pid = int(path.stem.split("-")[1])
        if pid == own_pid:
            continue
        with open(path, encoding="utf-8") as handle:
            rows.extend((pid, *json.loads(line)) for line in handle)
    return rows
