"""Bounded fan-out hub for the ``GET /alerts`` SSE stream.

Every subscriber owns a bounded pending deque.  :meth:`SseHub.publish`
(called from the ingest worker's event-loop side, right after an hour's
events are journaled) appends to each subscriber's deque and wakes its
writer coroutine; it never blocks and never touches the network.  A
slow consumer therefore costs ingest nothing: when its TCP window
fills, its writer coroutine parks in ``drain()``, its deque absorbs up
to ``buffer`` events, and older entries are dropped oldest-first with a
per-subscriber drop count.  Dropped events are *not* lost — they are in
the :class:`~repro.gateway.journal.EventJournal`, so the client sees a
gap in the ``id:`` sequence and reconnects with ``Last-Event-ID`` to
replay them (bitwise identical, same ids).

Each subscriber tracks ``last_sent_id`` so the server's
subscribe-then-replay-journal ordering cannot double-deliver an event
that was both replayed from the journal and published live in between.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque

from repro.serve.telemetry import ServeTelemetry

__all__ = ["SseHub", "SseSubscriber", "format_frame"]


def format_frame(event_id: int, event: dict) -> bytes:
    """One SSE frame: the event JSON with its journal id."""
    return f"id: {event_id}\ndata: {json.dumps(event)}\n\n".encode("utf-8")


class SseSubscriber:
    """One connected SSE consumer: bounded pending events + a wakeup."""

    def __init__(self, buffer: int) -> None:
        if buffer < 1:
            raise ValueError(f"buffer must be >= 1, got {buffer}")
        self.buffer = buffer
        self.pending: deque[tuple[int, dict]] = deque()
        self.wakeup = asyncio.Event()
        #: Highest event id already written to this consumer; the writer
        #: coroutine skips anything at or below it (journal-replay dedup).
        self.last_sent_id = -1
        self.dropped = 0

    def offer(self, pair: tuple[int, dict]) -> None:
        """Enqueue one ``(id, event)``, dropping the oldest when full."""
        if len(self.pending) >= self.buffer:
            self.pending.popleft()
            self.dropped += 1
        self.pending.append(pair)


class SseHub:
    """Registry of live subscribers with non-blocking publish."""

    def __init__(self, telemetry: ServeTelemetry | None = None, buffer: int = 256) -> None:
        self.telemetry = telemetry or ServeTelemetry()
        self.buffer = buffer
        self._subscribers: set[SseSubscriber] = set()
        self.total_dropped = 0

    def subscribe(self) -> SseSubscriber:
        subscriber = SseSubscriber(self.buffer)
        self._subscribers.add(subscriber)
        self.telemetry.inc("sse_connections")
        return subscriber

    def unsubscribe(self, subscriber: SseSubscriber) -> None:
        self._subscribers.discard(subscriber)
        self.total_dropped += subscriber.dropped

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    @property
    def dropped_events(self) -> int:
        """Drops across all subscribers, departed ones included."""
        return self.total_dropped + sum(s.dropped for s in self._subscribers)

    def publish(self, pairs: list[tuple[int, dict]]) -> None:
        """Fan ``(id, event)`` pairs out to every subscriber; never blocks.

        Must run on the event-loop thread (the ingest worker publishes
        after each tick's events are journaled).
        """
        if not pairs:
            return
        self.telemetry.inc("sse_events_published", len(pairs))
        for subscriber in self._subscribers:
            before = subscriber.dropped
            for pair in pairs:
                subscriber.offer(pair)
            if subscriber.dropped > before:
                self.telemetry.inc("sse_events_dropped", subscriber.dropped - before)
            subscriber.wakeup.set()
