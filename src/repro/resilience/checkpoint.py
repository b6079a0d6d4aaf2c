"""Write-ahead journal and atomic snapshots for the serving state.

Crash-recovery contract: a service killed at *any* tick and restored
from its checkpoint directory replays to a state **bitwise-equal** to an
uninterrupted run.  Two pieces make that hold:

* every *accepted* tick (including synthesised gap-fill hours) is
  appended to a CRC-guarded binary write-ahead log after it is applied
  but **before** its events are released to the caller (apply → journal
  → acknowledge), so no hour whose effects anything downstream has seen
  can be lost — a tick that crashes mid-apply is simply absent from the
  journal and re-processed on resume;
* periodically the full :class:`~repro.serve.ingest.StreamIngestor`
  state (:meth:`state_dict` — rings, cumulative sums, histories, clock)
  is written to an ``.npz`` snapshot via a temp file and
  :func:`os.replace`, so a snapshot is either complete or absent, never
  torn.  Snapshot members are stored, not deflated: the float rings
  compress poorly and deflating them stalled the stream for longer than
  the rest of the snapshot.  The zip CRC-32 of each member still
  catches corruption inside it.

Recovery loads the newest readable snapshot, then replays journal
records with ``hour >= snapshot.hours_seen`` through the ordinary
:meth:`ingest_hour` path.  Because the snapshot restores every float
accumulator exactly and replay applies the identical operations in the
identical order, the recovered state matches the uninterrupted one bit
for bit (asserted in ``tests/test_resilience_checkpoint.py``).

Journal format (little-endian)::

    header   magic b"RWAL0001" | uint32 n_sectors | uint32 n_kpis
    record   uint64 hour | uint32 payload_len | payload | uint32 crc32(payload)
    payload  values float64[n*l] | missing uint8[n*l] | calendar float64[5]

A torn tail record (crash mid-append) fails its length or CRC check and
replay stops cleanly there — exactly the at-most-one-unacknowledged-tick
loss a write-ahead design permits.  Reopening a segment for append
first scans it and truncates any torn tail, so records appended after a
resume always sit directly behind intact ones and are never stranded
beyond a bad record.  Snapshots supersede journal segments: at snapshot
time the journal rotates to a fresh segment and fully-covered segments
are pruned.  :meth:`CheckpointManager.rewind` cuts a directory back to
an earlier hour through the same record walk.

Alongside the segments and snapshots the manager persists the ingestor
construction parameters (``meta.json``: shape, anchors, ``w_max``,
capacity, score config) so a journal-only recovery — a crash before the
first snapshot — rebuilds an identically configured ingestor rather
than a default one.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from repro.data.store import _atomic_replace, write_json_atomic
from repro.serve.ingest import StreamIngestor

__all__ = [
    "TickJournal",
    "CheckpointManager",
    "RecoveredState",
    "journal_records",
    "journal_run",
    "load_newest_snapshot",
]

_MAGIC = b"RWAL0001"
_HEADER = struct.Struct("<II")
_RECORD_HEAD = struct.Struct("<QI")
_CRC = struct.Struct("<I")
_CALENDAR_WIDTH = 5
_META_NAME = "meta.json"
#: Snapshot generations kept on disk: a corrupt newest one falls back a
#: generation, which is why two are kept.
_KEEP_SNAPSHOTS = 2


def _payload_len(n_sectors: int, n_kpis: int) -> int:
    """Record payload bytes: values float64, missing uint8, calendar float64."""
    return 9 * n_sectors * n_kpis + 8 * _CALENDAR_WIDTH


def _read_header(handle: IO[bytes], path: Path) -> tuple[int, int]:
    """``(n_sectors, n_kpis)`` of the segment open at its start in *handle*."""
    head = handle.read(len(_MAGIC) + _HEADER.size)
    if len(head) < len(_MAGIC) + _HEADER.size or head[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"'{path}' is not a tick journal")
    return _HEADER.unpack(head[len(_MAGIC):])


def _intact_records(handle: IO[bytes], payload_len: int) -> Iterator[tuple[int, bytes]]:
    """``(hour, payload)`` per intact record from *handle*'s position on.

    Stops silently at the first record that is short, of the wrong
    length, or fails its CRC — the torn tail of a crashed writer; after
    each yield *handle* sits just past the record.  The one walk behind
    both torn-tail truncation on reopen and replay.
    """
    while True:
        record_head = handle.read(_RECORD_HEAD.size)
        if len(record_head) < _RECORD_HEAD.size:
            return  # clean EOF or torn header
        hour, length = _RECORD_HEAD.unpack(record_head)
        if length != payload_len:
            return
        payload = handle.read(length)
        crc_bytes = handle.read(_CRC.size)
        if len(payload) < length or len(crc_bytes) < _CRC.size:
            return  # torn record: crash mid-append
        if zlib.crc32(payload) != _CRC.unpack(crc_bytes)[0]:
            return  # corrupted tail
        yield hour, payload


def _cut_segment(path: Path, up_to_hour: int | None = None) -> None:
    """Truncate segment *path* after its last intact record below *up_to_hour*.

    Without a bound only a torn or corrupt tail goes.  Records within a
    segment are in hour order, so the first one at or past the bound
    ends the kept prefix.
    """
    with open(path, "rb") as readable:
        shape = _read_header(readable, path)
        valid_end = readable.tell()
        for hour, _ in _intact_records(readable, _payload_len(*shape)):
            if up_to_hour is not None and hour >= up_to_hour:
                break
            valid_end = readable.tell()
    if valid_end < path.stat().st_size:
        with open(path, "r+b") as writable:
            writable.truncate(valid_end)
            writable.flush()
            os.fsync(writable.fileno())


def _hour_of(path: Path) -> int:
    """The hour in a ``snapshot-<hour>.npz`` or ``wal-<hour>.log`` name."""
    return int(path.stem.split("-")[1])


class TickJournal:
    """Append-only write-ahead log of accepted hourly ticks.

    Parameters
    ----------
    path:
        Journal file; created (with header) if absent.  An existing
        file is validated, scanned, and **truncated at the end of its
        last intact record** before append — a torn tail left by a
        crashed writer would otherwise strand every later append behind
        a record :meth:`read_records` refuses to cross.
    n_sectors, n_kpis:
        Payload shape baked into the header.
    sync:
        When True every append is fsync'd (crash-durable at the cost of
        one disk sync per tick); the default flushes to the OS only.
    """

    def __init__(
        self, path: str | Path, n_sectors: int, n_kpis: int, sync: bool = False
    ) -> None:
        self.path = Path(path)
        self.n_sectors = int(n_sectors)
        self.n_kpis = int(n_kpis)
        self.sync = sync
        self._payload_len = _payload_len(self.n_sectors, self.n_kpis)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        if not fresh:
            with open(self.path, "rb") as readable:
                n, l = _read_header(readable, self.path)
            if (n, l) != (self.n_sectors, self.n_kpis):
                raise ValueError(
                    f"journal '{self.path}' is for ({n} sectors, {l} KPIs), "
                    f"expected ({self.n_sectors}, {self.n_kpis})"
                )
            # Torn/corrupt tail from a crashed writer: cut the file back
            # to its last intact record, otherwise every record appended
            # from here on would sit behind a bad one and be unreachable
            # to read_records() at the next recovery.
            _cut_segment(self.path)
        self._handle: IO[bytes] = open(self.path, "ab")
        if fresh:
            self._handle.write(_MAGIC + _HEADER.pack(self.n_sectors, self.n_kpis))
            self._flush()
        self.appended = 0

    def _flush(self) -> None:
        self._handle.flush()
        if self.sync:
            os.fsync(self._handle.fileno())

    def append_block(
        self,
        first_hour: int,
        values: np.ndarray,
        missing: np.ndarray,
        calendar_rows: np.ndarray,
    ) -> None:
        """Durably record a micro-batch of consecutive accepted ticks.

        Writes one standard per-hour record per block column, buffered
        and flushed (and optionally fsynced) once for the whole block.
        A crash mid-write tears the tail record; replay recovers every
        fully written hour.
        """
        values = np.ascontiguousarray(values, dtype=np.float64)
        missing = np.ascontiguousarray(missing, dtype=np.uint8)
        calendar_rows = np.ascontiguousarray(calendar_rows, dtype=np.float64)
        n_hours = values.shape[1]
        chunks: list[bytes] = []
        for j in range(n_hours):
            payload = (
                np.ascontiguousarray(values[:, j, :]).tobytes()
                + np.ascontiguousarray(missing[:, j, :]).tobytes()
                + calendar_rows[j].tobytes()
            )
            if len(payload) != self._payload_len:
                raise ValueError(
                    f"payload is {len(payload)} bytes, journal expects "
                    f"{self._payload_len}"
                )
            chunks.append(_RECORD_HEAD.pack(first_hour + j, len(payload)))
            chunks.append(payload)
            chunks.append(_CRC.pack(zlib.crc32(payload)))
        self._handle.write(b"".join(chunks))
        self._flush()
        self.appended += n_hours

    def close(self) -> None:
        if not self._handle.closed:
            self._flush()
            self._handle.close()

    def __enter__(self) -> "TickJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ----------------------------------------------------------- replay
    @classmethod
    def read_records(
        cls, path: str | Path
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(hour, values, missing, calendar)`` per intact record.

        Stops silently at the first truncated or CRC-failing record (the
        torn tail of a crashed writer); earlier records are unaffected.
        """
        path = Path(path)
        with open(path, "rb") as handle:
            n, l = _read_header(handle, path)
            for hour, payload in _intact_records(handle, _payload_len(n, l)):
                values = np.frombuffer(payload, dtype=np.float64, count=n * l)
                offset = 8 * n * l
                missing = np.frombuffer(
                    payload, dtype=np.uint8, count=n * l, offset=offset
                )
                calendar = np.frombuffer(
                    payload, dtype=np.float64, count=_CALENDAR_WIDTH,
                    offset=offset + n * l,
                )
                yield (
                    int(hour),
                    values.reshape(n, l).copy(),
                    missing.reshape(n, l).astype(bool),
                    calendar.copy(),
                )


def load_newest_snapshot(
    directory: str | Path, up_to_hour: int | None = None
) -> StreamIngestor | None:
    """Ingestor restored from the newest readable snapshot in *directory*.

    Snapshots are tried newest first; one counts as readable only when
    every member decodes (each read to its end, so the zip CRC-32 of
    every member is checked) and :meth:`StreamIngestor.from_state`
    accepts the result.  Torn or corrupt snapshots are skipped.
    Snapshots past *up_to_hour* are ignored.  ``None`` when no snapshot
    qualifies.  Stored and deflated members read alike, so directories
    written with either still load.
    """
    for path in sorted(Path(directory).glob("snapshot-*.npz"), reverse=True):
        if up_to_hour is not None and _hour_of(path) > up_to_hour:
            continue
        try:
            with np.load(path) as archive:
                meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
                arrays = {
                    name: archive[name]
                    for name in archive.files
                    if name != "meta_json"
                }
            return StreamIngestor.from_state({"meta": meta, "arrays": arrays})
        except Exception:  # noqa: BLE001 - skip torn/corrupt snapshots
            continue
    return None


def journal_records(
    directory: str | Path,
) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Every intact record of every journal segment in *directory*.

    In hour order (stable, so an hour journaled in two segments keeps
    segment order); foreign or headerless ``wal-*.log`` files are
    skipped.
    """
    records: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
    for segment in sorted(Path(directory).glob("wal-*.log")):
        try:
            records.extend(TickJournal.read_records(segment))
        except ValueError:
            continue  # foreign or headerless file
    records.sort(key=lambda record: record[0])
    return records


def journal_run(
    records: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]],
    start_hour: int,
    up_to_hour: int | None = None,
) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The records of :func:`journal_records` that continue *start_hour*.

    One record per hour, contiguous from *start_hour*: earlier hours are
    superseded (by the snapshot, or by the first copy of an hour
    journaled twice), a gap ends the run (nothing after it is
    replayable), and so does *up_to_hour* when given.  Recovery replays
    this run; :func:`repro.fleet.recovery.journal_clock` counts it.
    """
    run: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
    for record in records:
        hour = record[0]
        if up_to_hour is not None and hour >= up_to_hour:
            break
        if hour < start_hour + len(run):
            continue
        if hour > start_hour + len(run):
            break
        run.append(record)
    return run


class RecoveredState:
    """Result of :meth:`CheckpointManager.recover`."""

    def __init__(
        self, ingestor: StreamIngestor | None, snapshot_hour: int, replayed: int
    ) -> None:
        #: The restored ingestor (None when the directory held nothing).
        self.ingestor = ingestor
        #: ``hours_seen`` of the snapshot the recovery started from (0 =
        #: no snapshot, journal-only replay).
        self.snapshot_hour = snapshot_hour
        #: Journal records replayed on top of the snapshot.
        self.replayed = replayed


class CheckpointManager:
    """Own a checkpoint directory: journal segments plus snapshots.

    Layout::

        <directory>/wal-<start_hour:08d>.log      journal segments
        <directory>/snapshot-<hours:08d>.npz      atomic state snapshots
        <directory>/meta.json                     ingestor construction meta

    Parameters
    ----------
    directory:
        Checkpoint root (created if needed).
    n_sectors, n_kpis:
        Payload shape for the journal.
    snapshot_every:
        Snapshot cadence in accepted hours (default one week).  The two
        newest snapshots are kept, with the newest at or below a
        snapshot's *retain* hour; older ones are pruned after each
        snapshot.
    sync:
        Passed to :class:`TickJournal`.
    ingestor_meta:
        Construction parameters of the ingestor being checkpointed (see
        :meth:`StreamIngestor.construction_meta`); written atomically to ``meta.json``
        so a journal-only recovery (crash before the first snapshot)
        rebuilds an identically configured ingestor.  Supplied
        automatically by :meth:`for_ingestor`.
    """

    def __init__(
        self,
        directory: str | Path,
        n_sectors: int,
        n_kpis: int,
        snapshot_every: int = 168,
        sync: bool = False,
        ingestor_meta: dict | None = None,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.n_sectors = int(n_sectors)
        self.n_kpis = int(n_kpis)
        self.snapshot_every = snapshot_every
        self.sync = sync
        self.snapshots_written = 0
        if ingestor_meta is not None:
            self._write_meta(ingestor_meta)
        self._last_snapshot_hour = self._newest_snapshot_hour()
        start = max(self._last_snapshot_hour, self._newest_segment_start())
        self._journal = TickJournal(
            self._segment_path(start), self.n_sectors, self.n_kpis, sync=sync
        )

    @classmethod
    def for_ingestor(
        cls, directory: str | Path, ingestor: StreamIngestor, **kwargs
    ) -> "CheckpointManager":
        kwargs.setdefault("ingestor_meta", ingestor.construction_meta())
        return cls(directory, ingestor.n_sectors, ingestor.n_kpis, **kwargs)

    def _write_meta(self, meta: dict) -> None:
        """Atomically persist *meta* as ``meta.json`` (temp + replace)."""
        write_json_atomic(self.directory / _META_NAME, meta, sync=self.sync)

    # ------------------------------------------------------------- paths
    def _segment_path(self, start_hour: int) -> Path:
        return self.directory / f"wal-{start_hour:08d}.log"

    def _snapshot_path(self, hours_seen: int) -> Path:
        return self.directory / f"snapshot-{hours_seen:08d}.npz"

    def _snapshot_files(self) -> list[Path]:
        return sorted(self.directory.glob("snapshot-*.npz"))

    def _segment_files(self) -> list[Path]:
        return sorted(self.directory.glob("wal-*.log"))

    def _newest_snapshot_hour(self) -> int:
        files = self._snapshot_files()
        return _hour_of(files[-1]) if files else 0

    def _newest_segment_start(self) -> int:
        files = self._segment_files()
        return _hour_of(files[-1]) if files else 0

    # ------------------------------------------------------------ journal
    def record_tick(
        self,
        hour: int,
        values: np.ndarray,
        missing: np.ndarray,
        calendar_row: np.ndarray,
    ) -> None:
        """Journal one applied tick (call before acknowledging it)."""
        rows = np.asarray(calendar_row, dtype=np.float64).reshape(1, -1)
        self.record_block(
            hour, np.asarray(values)[:, None, :], np.asarray(missing)[:, None, :], rows
        )

    def record_block(
        self,
        first_hour: int,
        values: np.ndarray,
        missing: np.ndarray,
        calendar_rows: np.ndarray,
    ) -> None:
        """Journal a micro-batch of applied ticks with one flush.

        Call after the block is applied and before acknowledging any of
        its hours.
        """
        self._journal.append_block(first_hour, values, missing, calendar_rows)

    # ----------------------------------------------------------- snapshot
    def snapshot(self, ingestor: StreamIngestor, retain: int | None = None) -> Path:
        """Atomically snapshot *ingestor*, rotate and prune the journal.

        The state goes into an uncompressed (stored) ``.npz``; see the
        module docstring for why.  Pruning keeps the two newest
        snapshots and, given *retain*, the newest one at or below that
        hour, with every journal segment after it.
        """
        state = ingestor.state_dict()
        path = self._snapshot_path(ingestor.hours_seen)
        meta_blob = np.frombuffer(
            json.dumps(state["meta"]).encode("utf-8"), dtype=np.uint8
        )
        with _atomic_replace(path, sync=self.sync) as handle:
            np.savez(handle, meta_json=meta_blob, **state["arrays"])
        self.snapshots_written += 1
        self._last_snapshot_hour = ingestor.hours_seen
        self._rotate_journal(ingestor.hours_seen)
        self._prune(retain)
        return path

    def maybe_snapshot(
        self, ingestor: StreamIngestor, retain: int | None = None
    ) -> Path | None:
        """Snapshot when ``snapshot_every`` hours accrued since the last.

        *retain* is passed to :meth:`snapshot`: a fleet shard passes
        the coordinator's acknowledged hour, which it may be rewound to.
        """
        if ingestor.hours_seen - self._last_snapshot_hour >= self.snapshot_every:
            return self.snapshot(ingestor, retain)
        return None

    def _rotate_journal(self, start_hour: int) -> None:
        self._journal.close()
        self._journal = TickJournal(
            self._segment_path(start_hour), self.n_sectors, self.n_kpis,
            sync=self.sync,
        )

    def _prune(self, retain: int | None = None) -> None:
        snapshots = self._snapshot_files()
        kept = snapshots[-_KEEP_SNAPSHOTS:]
        # A segment starting before the oldest kept snapshot is fully
        # superseded by it (segments rotate exactly at snapshots).
        floor = _hour_of(kept[0])
        if retain is not None:
            # Recovery bounded to *retain* needs the newest snapshot at
            # or below it (or, without one, the journal from hour 0).
            below = [path for path in snapshots if _hour_of(path) <= retain]
            kept = below[-1:] + kept
            floor = min(floor, _hour_of(below[-1]) if below else 0)
        for stale in snapshots:
            if stale not in kept:
                stale.unlink(missing_ok=True)
        for segment in self._segment_files():
            if _hour_of(segment) < floor and segment != self._journal.path:
                segment.unlink(missing_ok=True)

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "CheckpointManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        return {
            "snapshots_written": self.snapshots_written,
            "last_snapshot_hour": self._last_snapshot_hour,
            "journal_appends": self._journal.appended,
            "snapshot_every": self.snapshot_every,
        }

    # ----------------------------------------------------------- recovery
    @classmethod
    def recover(
        cls, directory: str | Path, up_to_hour: int | None = None
    ) -> RecoveredState:
        """Rebuild the ingestor recorded under *directory*.

        Loads the newest readable snapshot (corrupt ones are skipped,
        falling back to older snapshots and ultimately to journal-only
        replay from an empty ingestor configured from ``meta.json``),
        then replays every journal record with ``hour >=
        snapshot.hours_seen`` in hour order.

        *up_to_hour* bounds the recovery: snapshots past it are skipped
        and replay stops before applying that hour, so the returned
        ingestor has ``hours_seen <= up_to_hour`` even when the journal
        runs further.  A fleet shard resumes this way at the fleet
        clock, then :meth:`rewind` cuts its directory back to match.
        """
        directory = Path(directory)
        ingestor = load_newest_snapshot(directory, up_to_hour)
        snapshot_hour = 0 if ingestor is None else ingestor.hours_seen
        records = journal_records(directory)
        if ingestor is None and records:
            # Journal-only recovery (crash before the first snapshot).
            ingestor = cls._fresh_ingestor(directory, records[0][1].shape)
        run = journal_run(records, snapshot_hour, up_to_hour)
        for _hour, values, missing, calendar in run:
            ingestor.ingest_hour(values, missing, calendar)
        return RecoveredState(ingestor, snapshot_hour, len(run))

    @staticmethod
    def rewind(directory: str | Path, hour: int) -> None:
        """Cut *directory* back to its first *hour* hours.

        Snapshots past *hour* and segments starting at or past it are
        deleted; every other segment is truncated before its first
        record at or past *hour* (a torn tail goes with it), so the
        hours from *hour* on are applied and journaled afresh.  Call it
        once a recovery bounded to *hour* has reached it; a crash
        mid-rewind leaves a directory that recovers to *hour* again.
        """
        directory = Path(directory)
        for path in directory.glob("snapshot-*.npz"):
            if _hour_of(path) > hour:
                path.unlink()
        for segment in directory.glob("wal-*.log"):
            if _hour_of(segment) >= hour:
                segment.unlink()
                continue
            try:
                _cut_segment(segment, hour)
            except ValueError:
                continue  # foreign or headerless file

    @staticmethod
    def _fresh_ingestor(directory: Path, shape: tuple[int, int]) -> StreamIngestor:
        """Empty ingestor for journal-only replay, shaped like *shape*.

        Prefers the construction parameters persisted in ``meta.json``
        (anchors, ``w_max``, capacity, score config) over defaults; a
        missing, corrupt, or shape-mismatched meta degrades to the
        default configuration rather than failing recovery.
        """
        try:
            meta = json.loads((directory / _META_NAME).read_text(encoding="utf-8"))
            if (int(meta["n_sectors"]), int(meta["n_kpis"])) != tuple(shape):
                raise ValueError("meta.json shape does not match the journal")
            return StreamIngestor.from_construction_meta(meta)
        except Exception:  # noqa: BLE001 - degrade to defaults, never fail
            return StreamIngestor(n_sectors=shape[0], n_kpis=shape[1])
