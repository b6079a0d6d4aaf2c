"""Durable, idempotent event journal backing the SSE alert stream.

The gateway's parity contract — the SSE stream is bitwise identical to
the offline replay, at every kill point — rests on one invariant: **an
hour's events are durably captured before the engine's WAL acknowledges
the hour**.  The guard/coordinator event taps fire with each hour's
final event list just before the WAL append (see
:attr:`~repro.resilience.guard.ResilientHotSpotService.event_tap`), and
they point here.

:class:`EventJournal` is an append-only JSONL file of records::

    {"hour": 17, "first_id": 42, "events": [{...}, {...}]}

Event ids are assigned densely in append order (event *j* of a record
has id ``first_id + j``), which makes them the SSE ``Last-Event-ID``
clock: a reconnecting subscriber replays everything after the last id
it saw and the stream resumes without loss or duplication.

Crash windows:

* **crash before the WAL append** — the hour is absent from the engine
  journal, so recovery re-drives it; the tap fires again with a
  recomputed (identical) event list and :meth:`record_hour` *dedups by
  hour*, handing back the previously assigned ids instead of
  re-appending.  Re-delivery is the subscriber's dedup problem (ids
  make it trivial), double-journaling never happens.
* **crash mid-append** — the torn tail line is dropped on reload; a
  final line without its newline counts as torn even when it parses.
  Because the tap fires *before* the WAL append, a torn record always
  belongs to an hour the engine never acknowledged, so the re-driven
  hour re-records it; nothing acknowledged is ever lost.
* **crash after the WAL append, before SSE delivery** — the events are
  already on disk here; restart serves them via ``Last-Event-ID``
  replay.

Events that do not belong to an applied hour (quarantines, duplicate
reconciliations) are journaled as *transient* records (``hour: null``)
so the live stream can still carry them; they take ids like any other
record but are exempt from hour dedup.

The journal is written from the gateway's single ingest worker thread
and read (replay) from the event loop; a lock covers both.  A bounded
in-memory tail keeps the common replay path off the disk; older ids
fall back to re-reading the file.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path

__all__ = ["EventJournal"]

#: Most-recent records kept in memory for lock-cheap replay; older
#: ``Last-Event-ID`` values re-read the file.
_CACHE_RECORDS = 4096


class EventJournal:
    """Append-only event log with stable ids and per-hour idempotency.

    Parameters
    ----------
    path:
        JSONL file to persist to.  ``None`` keeps the journal purely
        in memory (no durability — embedded/test use only); all records
        are then retained, not only the :data:`_CACHE_RECORDS` tail.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._records: deque[dict] = deque()
        #: First event id still held in the in-memory tail (0 = all).
        self._cache_start_id = 0
        self._hour_first_id: dict[int, int] = {}
        self._hour_sizes: dict[int, int] = {}
        #: Id the next appended event will take (== total events ever).
        self.next_id = 0
        #: Highest hour ever recorded (-1 before the first).
        self.last_hour = -1
        self.records_appended = 0
        self.torn_tail_dropped = 0
        self._fh = None
        if self.path is not None:
            self._load()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")

    # -------------------------------------------------------------- load
    def _load(self) -> None:
        """Rebuild state from disk, truncating a torn tail in place."""
        if not self.path.exists():
            return
        valid_end = 0
        with open(self.path, "rb") as fh:
            offset = 0
            for raw in fh:
                end = offset + len(raw)
                try:
                    if not raw.endswith(b"\n"):
                        # Parseable but unterminated: the append was cut
                        # before its newline, and the next append would
                        # land on the same line.
                        raise ValueError("record has no newline")
                    record = json.loads(raw.decode("utf-8"))
                    first = record["first_id"]
                    events = record["events"]
                except (ValueError, KeyError, UnicodeDecodeError):
                    # A torn line can only be the tail of an append-only
                    # file; everything from here on is discarded.  The
                    # tap-before-WAL ordering guarantees the dropped
                    # record's hour was never acknowledged by the
                    # engine, so it will be re-driven and re-recorded.
                    self.torn_tail_dropped += 1
                    break
                self._index(record)
                self._records.append(record)
                self.next_id = first + len(events)
                self.records_appended += 1
                valid_end = end
                offset = end
            else:
                return  # every line parsed; no truncation needed
        with open(self.path, "r+b") as fh:
            fh.truncate(valid_end)
        self._trim_cache()

    def _index(self, record: dict) -> None:
        hour = record["hour"]
        if hour is not None:
            self._hour_first_id[hour] = record["first_id"]
            self._hour_sizes[hour] = len(record["events"])
            if hour > self.last_hour:
                self.last_hour = hour

    def _trim_cache(self) -> None:
        # The in-memory tail only matters when a file backs the journal;
        # a memory-only journal keeps everything (it has no fallback).
        if self.path is None:
            return
        while len(self._records) > _CACHE_RECORDS:
            evicted = self._records.popleft()
            self._cache_start_id = self._records[0]["first_id"] if self._records else (
                evicted["first_id"] + len(evicted["events"])
            )

    # ------------------------------------------------------------ append
    def record_hour(self, hour: int, events: list[dict]) -> list[tuple[int, dict]]:
        """Durably record *events* for *hour*; returns ``(id, event)`` pairs.

        Idempotent per hour: a re-driven hour (crash recovery re-sends
        the tick, the tap recomputes the identical list) gets back the
        ids assigned on first record without touching the file.  Empty
        event lists are not journaled and consume no ids.
        """
        if not events:
            return []
        hour = int(hour)
        with self._lock:
            first = self._hour_first_id.get(hour)
            if first is not None:
                if len(events) != self._hour_sizes[hour]:
                    raise ValueError(
                        f"hour {hour} re-recorded with {len(events)} events, "
                        f"journal holds {self._hour_sizes[hour]} — replayed "
                        "ticks must recompute identical event lists"
                    )
                return [(first + i, event) for i, event in enumerate(events)]
            return self._append(hour, events)

    def record_transient(self, events: list[dict]) -> list[tuple[int, dict]]:
        """Record events not tied to an applied hour (quarantine, dup)."""
        if not events:
            return []
        with self._lock:
            return self._append(None, events)

    def _append(self, hour: int | None, events: list[dict]) -> list[tuple[int, dict]]:
        record = {"hour": hour, "first_id": self.next_id, "events": events}
        if self._fh is not None:
            # One buffered write + flush per record: the line reaches the
            # page cache whole, so a SIGKILL never interleaves records
            # (a torn line can only be the final one).
            self._fh.write(json.dumps(record) + "\n")
            self._fh.flush()
        self._index(record)
        self._records.append(record)
        self._trim_cache()
        first = self.next_id
        self.next_id = first + len(events)
        self.records_appended += 1
        return [(first + i, event) for i, event in enumerate(events)]

    # ------------------------------------------------------------ replay
    def replay(self, after_id: int = -1) -> list[tuple[int, dict]]:
        """Every ``(id, event)`` with ``id > after_id``, in id order.

        Serves from the in-memory tail when it reaches back far enough,
        otherwise re-reads the file (ids older than the cache window).
        """
        with self._lock:
            if after_id + 1 >= self._cache_start_id:
                records = list(self._records)
            else:
                records = self._read_file_records()
        out: list[tuple[int, dict]] = []
        for record in records:
            first = record["first_id"]
            events = record["events"]
            if first + len(events) <= after_id + 1:
                continue
            for i, event in enumerate(events):
                if first + i > after_id:
                    out.append((first + i, event))
        return out

    def _read_file_records(self) -> list[dict]:
        records: list[dict] = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for raw in fh:
                try:
                    records.append(json.loads(raw))
                except ValueError:
                    break  # concurrent append's partial tail; it is in the cache
        return records

    # ------------------------------------------------------------- admin
    @property
    def hours_recorded(self) -> int:
        return len(self._hour_first_id)

    def stats(self) -> dict:
        with self._lock:
            return {
                "next_event_id": self.next_id,
                "records": self.records_appended,
                "hours_recorded": len(self._hour_first_id),
                "last_hour": self.last_hour,
                "torn_tail_dropped": self.torn_tail_dropped,
                "path": str(self.path) if self.path is not None else None,
            }

    def close(self) -> None:
        with self._lock:
            fh, self._fh = self._fh, None
            if fh is not None:
                fh.flush()
                fh.close()

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
