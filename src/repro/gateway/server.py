"""Stdlib-asyncio HTTP/SSE front end for the hot-spot serving stacks.

:class:`HotSpotGateway` exposes any backend adapter
(:mod:`repro.gateway.backends`) over four endpoints:

``POST /ticks``
    JSONL tick ingest.  Each line is ``{"op": "tick", "values": [...],
    "missing": [...], "calendar": [...], "hour": H}`` (``op`` defaults
    to ``tick``).  Ticks flow through a bounded ingest queue into a
    **single** worker, which applies them on a one-thread executor —
    per-hour ordering is preserved end to end and the event loop never
    blocks on numpy.  When the queue cannot take the whole batch the
    request is rejected with ``429`` + ``Retry-After`` *before*
    anything is enqueued (all-or-nothing, so a rejected client simply
    retries the same batch).  The 200 response is sent only after every
    tick in the batch is applied **and** its events are journaled — the
    acknowledge ordering is apply → event-journal → WAL → HTTP 200, so
    a crashed gateway may re-process a tick but never acknowledges a
    lost one.

``GET /alerts``
    SSE stream of the event journal.  ``Last-Event-ID`` (header or
    ``?last_event_id=`` query, ``-1`` for everything) resumes from the
    journal clock; without it the stream starts live.  Per-subscriber
    buffers are bounded (:mod:`repro.gateway.sse`): a stalled consumer
    drops oldest events from *its own* buffer only and recovers them by
    reconnecting with the last id it saw.

``GET /metrics``
    Prometheus text exposition: the backend's counters/histograms under
    ``repro_*``, its point-in-time gauges (DLQ depth, dark sectors,
    per-shard restart/degraded state), and the gateway's own
    instruments under ``repro_gateway_*``.

``GET /status``
    Operator JSON: backend view (champion + provenance, shadow Δ,
    quarantine counts, shard table), the journal watermark, ingest
    queue depth, SSE subscriber state, and ``resume_hour`` — the hour a
    client should re-POST from after a gateway restart.

The HTTP layer is deliberately small: request-line + headers +
``Content-Length`` bodies, keep-alive, no TLS/chunked encoding — it is
an operator surface, not a general web server.
"""

from __future__ import annotations

import asyncio
import json
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.gateway.journal import EventJournal
from repro.gateway.metrics import render_prometheus
from repro.gateway.sse import SseHub, format_frame
from repro.serve.service import _decode_tick
from repro.serve.telemetry import ServeTelemetry

__all__ = ["GatewayConfig", "HotSpotGateway", "GatewayThread"]

_SHUTDOWN = object()

#: Largest accepted request body; a bigger one gets ``413``.
_MAX_BODY_BYTES = 32 * 1024 * 1024

#: ``Retry-After`` seconds of a ``429`` backpressure rejection.
_RETRY_AFTER_SECS = 1


@dataclass(frozen=True)
class GatewayConfig:
    """Tunables for the HTTP surface."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral; the bound port is on the gateway
    queue_capacity: int = 256  #: max queued ticks before 429
    sse_buffer: int = 256  #: pending events per SSE subscriber

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.sse_buffer < 1:
            raise ValueError(f"sse_buffer must be >= 1, got {self.sse_buffer}")


class HotSpotGateway:
    """Async HTTP/SSE service over one backend adapter + event journal."""

    def __init__(
        self,
        backend,
        journal: EventJournal | None = None,
        config: GatewayConfig | None = None,
    ) -> None:
        self.backend = backend
        self.journal = journal if journal is not None else EventJournal()
        self.config = config or GatewayConfig()
        #: Gateway-local instruments (HTTP/queue/SSE); the backend's
        #: telemetry stays untouched so engine parity is unaffected.
        self.telemetry = ServeTelemetry()
        self.hub = SseHub(telemetry=self.telemetry, buffer=self.config.sse_buffer)
        self.host: str | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue | None = None
        self._worker: asyncio.Task | None = None
        self._sse_tasks: set[asyncio.Task] = set()
        self._stopping = False
        # Exactly one worker thread: ticks apply strictly in queue order,
        # which is what keeps the hour clock (and hence parity) intact.
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="gw-ingest")
        #: (id, event) pairs captured by the journal tap during the
        #: current submit; only the ingest worker thread touches it.
        self._tap_pairs: list[tuple[int, dict]] = []
        backend.install_tap(self._tap)

    # --------------------------------------------------------- lifecycle
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._worker = self._loop.create_task(self._ingest_worker())
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]

    async def stop(self) -> None:
        """Drain queued ticks, close subscribers, release the journal."""
        if self._stopping:
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._worker is not None:
            await self._queue.put((_SHUTDOWN, None))
            await self._worker
        for task in list(self._sse_tasks):
            task.cancel()
        if self._sse_tasks:
            await asyncio.gather(*self._sse_tasks, return_exceptions=True)
        self._pool.shutdown(wait=True)
        self.journal.close()

    # ------------------------------------------------------------ ingest
    def _tap(self, hour: int, events: list[dict]) -> None:
        # Ingest-worker thread, called by the engine pre-WAL-append.
        self._tap_pairs.extend(self.journal.record_hour(hour, events))

    def _apply(self, op: dict) -> tuple[list[tuple[int, dict]], list[dict]]:
        """Apply one tick on the worker thread; returns (pairs, events)."""
        self._tap_pairs = []
        with self.telemetry.timer("ingest_apply"):
            events = self.backend.submit(*_decode_tick(op))
        pairs, self._tap_pairs = self._tap_pairs, []
        # The backend taps every applied hour, so the tapped events lead
        # the returned list.  The rest — quarantine and duplicate
        # verdicts, which apply no hour — still get journal ids so the
        # SSE stream carries them.
        pairs = pairs + self.journal.record_transient(events[len(pairs):])
        self.telemetry.inc("ticks_applied")
        return pairs, events

    async def _ingest_worker(self) -> None:
        while True:
            op, future = await self._queue.get()
            if op is _SHUTDOWN:
                return
            try:
                pairs, events = await self._loop.run_in_executor(
                    self._pool, self._apply, op
                )
            except Exception as error:  # surfaced as HTTP 500 per tick
                self.telemetry.inc("ingest_errors")
                if not future.done():
                    future.set_exception(error)
            else:
                # Publish after the journal write: every frame a
                # subscriber ever sees is durable and replayable.
                self.hub.publish(pairs)
                if not future.done():
                    future.set_result((pairs, events))

    async def _post_ticks(self, body: bytes) -> tuple[str, list, bytes]:
        try:
            ops = []
            for line in body.decode("utf-8").splitlines():
                if not line.strip():
                    continue
                op = json.loads(line)
                if not isinstance(op, dict) or op.get("op", "tick") != "tick":
                    raise ValueError(f"unsupported operation: {op!r:.80}")
                if "values" not in op:
                    raise ValueError("tick is missing 'values'")
                ops.append(op)
        except (ValueError, UnicodeDecodeError) as error:
            self.telemetry.inc("http_bad_requests")
            return _json_response("400 Bad Request", {
                "error": "bad-request", "detail": str(error),
            })
        if not ops:
            return _json_response("200 OK", {"processed": 0, "results": []})
        # All-or-nothing admission: either the whole batch fits in the
        # queue's remaining capacity or none of it is enqueued.
        if self._queue.qsize() + len(ops) > self.config.queue_capacity:
            self.telemetry.inc("ticks_rejected", len(ops))
            return _json_response(
                "429 Too Many Requests",
                {
                    "error": "backpressure",
                    "queue_depth": self._queue.qsize(),
                    "queue_capacity": self.config.queue_capacity,
                    "retry_after_secs": _RETRY_AFTER_SECS,
                },
                extra_headers=[("Retry-After", str(_RETRY_AFTER_SECS))],
            )
        futures = []
        for op in ops:
            future = self._loop.create_future()
            self._queue.put_nowait((op, future))
            futures.append(future)
        results = []
        for future in futures:
            try:
                pairs, events = await future
            except Exception as error:
                # Earlier ticks in the batch are applied and journaled;
                # the client resumes from /status's resume_hour as after
                # a crash.
                return _json_response("500 Internal Server Error", {
                    "error": "apply-failed",
                    "detail": str(error),
                    "processed": len(results),
                })
            results.append({
                "events": events,
                "event_ids": [event_id for event_id, _ in pairs],
            })
        return _json_response("200 OK", {
            "processed": len(results),
            "clock": self.backend.clock,
            "last_event_id": self.journal.next_id - 1,
            "results": results,
        })

    # ------------------------------------------------------------ status
    def status(self) -> dict:
        status = {"service": "hotspot-gateway", **self.backend.status()}
        # The client-side crash-resume contract: re-POST the tick stream
        # from this hour and the SSE tail continues bitwise (re-sent
        # hours dedup in the journal, nothing applied twice).
        status["resume_hour"] = self.backend.clock
        status["journal"] = self.journal.stats()
        status["ingest"] = {
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "queue_capacity": self.config.queue_capacity,
            "applied": self.telemetry.counter("ticks_applied"),
            "rejected": self.telemetry.counter("ticks_rejected"),
        }
        status["sse"] = {
            "subscribers": self.hub.subscriber_count,
            "dropped_events": self.hub.dropped_events,
            "buffer": self.config.sse_buffer,
        }
        return status

    def metrics_text(self) -> str:
        gateway_gauges = [
            ("ingest_queue_depth", None,
             self._queue.qsize() if self._queue is not None else 0),
            ("ingest_queue_capacity", None, self.config.queue_capacity),
            ("sse_subscribers", None, self.hub.subscriber_count),
            ("event_journal_next_id", None, self.journal.next_id),
            ("event_journal_last_hour", None, self.journal.last_hour),
        ]
        return render_prometheus(
            self.backend.telemetry_snapshot(),
            prefix="repro",
            extra_gauges=self.backend.gauge_samples(),
        ) + render_prometheus(
            self.telemetry, prefix="repro_gateway", extra_gauges=gateway_gauges
        )

    # -------------------------------------------------------------- http
    async def _handle_client(self, reader, writer) -> None:
        try:
            while not self._stopping:
                request = await _read_request(reader)
                if request is None:
                    break
                method, path, query, headers, body, version = request
                if body is None:  # refused and left unread: the connection ends
                    length = headers["content-length"]
                    if length.isdecimal():
                        response = _json_response(
                            "413 Payload Too Large", {"error": "payload-too-large"}
                        )
                    else:
                        self.telemetry.inc("http_bad_requests")
                        response = _json_response("400 Bad Request", {
                            "error": "bad-request",
                            "detail": f"bad Content-Length: {length!r}",
                        })
                    writer.write(_assemble(*response))
                    await writer.drain()
                    break
                self.telemetry.inc("http_requests")
                if method == "POST" and path == "/ticks":
                    response = await self._post_ticks(body)
                elif method == "GET" and path == "/alerts":
                    await self._serve_sse(writer, headers, query)
                    return
                elif method == "GET" and path == "/metrics":
                    text = self.metrics_text().encode("utf-8")
                    response = (
                        "200 OK",
                        [("Content-Type", "text/plain; version=0.0.4; charset=utf-8")],
                        text,
                    )
                elif method == "GET" and path == "/status":
                    response = _json_response("200 OK", self.status())
                elif method == "GET" and path == "/healthz":
                    response = _json_response("200 OK", {"ok": True})
                else:
                    self.telemetry.inc("http_not_found")
                    response = _json_response(
                        "404 Not Found", {"error": "not-found", "path": path}
                    )
                writer.write(_assemble(*response))
                await writer.drain()
                if headers.get("connection", "").lower() == "close" or version == "HTTP/1.0":
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels handlers parked on an idle keep-alive
            # read; that is their normal end, not an error to log.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_sse(self, writer, headers: dict, query: dict) -> None:
        raw = headers.get("last-event-id")
        if raw is None:
            raw = query.get("last_event_id", [None])[0]
        if raw is None:
            # No resume point: live tail only (everything already
            # journaled is history the client did not ask for).
            after = self.journal.next_id - 1
        else:
            try:
                after = int(raw)
            except ValueError:
                writer.write(_assemble(*_json_response(
                    "400 Bad Request",
                    {"error": "bad-request", "detail": f"bad Last-Event-ID: {raw!r}"},
                )))
                await writer.drain()
                return
        task = asyncio.current_task()
        self._sse_tasks.add(task)
        # Subscribe *before* reading the journal: anything published in
        # between lands in the pending buffer and the last_sent_id check
        # below filters what the replay already delivered.
        subscriber = self.hub.subscribe()
        subscriber.last_sent_id = after
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n"
                b"Connection: close\r\n"
                b"\r\n"
                b"retry: 2000\n\n"
            )
            for event_id, event in self.journal.replay(after):
                writer.write(format_frame(event_id, event))
                if event_id > subscriber.last_sent_id:
                    subscriber.last_sent_id = event_id
            await writer.drain()
            while not self._stopping:
                await subscriber.wakeup.wait()
                subscriber.wakeup.clear()
                while subscriber.pending:
                    event_id, event = subscriber.pending.popleft()
                    if event_id <= subscriber.last_sent_id:
                        continue
                    writer.write(format_frame(event_id, event))
                    subscriber.last_sent_id = event_id
                    # A stalled consumer parks here once the transport
                    # buffer fills; its pending deque keeps absorbing
                    # (and dropping) events without touching ingest.
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self.hub.unsubscribe(subscriber)
            self._sse_tasks.discard(task)


# ------------------------------------------------------------- http plumbing
async def _read_request(reader):
    """Parse one request; None on EOF, body=None when ``Content-Length``
    is not a decimal count or exceeds :data:`_MAX_BODY_BYTES`."""
    try:
        request_line = await reader.readline()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    if not request_line:
        return None
    try:
        method, target, version = request_line.decode("latin-1").split()
    except ValueError:
        return None
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length") or "0"
    path, _, query_string = target.partition("?")
    query = urllib.parse.parse_qs(query_string)
    if not length.isdecimal() or int(length) > _MAX_BODY_BYTES:
        return method, path, query, headers, None, version
    body = await reader.readexactly(int(length))
    return method, path, query, headers, body, version


def _json_response(status: str, payload: dict, extra_headers: list | None = None):
    body = (json.dumps(payload) + "\n").encode("utf-8")
    headers = [("Content-Type", "application/json")] + (extra_headers or [])
    return status, headers, body


def _assemble(status: str, headers: list, body: bytes) -> bytes:
    head = f"HTTP/1.1 {status}\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers
    )
    head += f"Content-Length: {len(body)}\r\n\r\n"
    return head.encode("latin-1") + body


class GatewayThread:
    """Run a gateway on a daemon thread with its own event loop.

    Embedding helper for tests and benchmarks: ``start()`` blocks until
    the port is bound, ``stop()`` drains and joins.  The CLI awaits
    :meth:`HotSpotGateway.start` and :meth:`HotSpotGateway.stop` on its
    own event loop instead.
    """

    def __init__(self, gateway: HotSpotGateway) -> None:
        self.gateway = gateway
        self._thread = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._ready = None
        self._error: BaseException | None = None

    def start(self, timeout: float = 30.0) -> tuple[str, int]:
        import threading

        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("gateway did not start in time")
        if self._error is not None:
            raise RuntimeError("gateway failed to start") from self._error
        return self.gateway.host, self.gateway.port

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - surfaced via start()/stop()
            self._error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.gateway.start()
        self._ready.set()
        await self._stop_event.wait()
        await self.gateway.stop()

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("gateway did not stop in time")

    def __enter__(self) -> "GatewayThread":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
