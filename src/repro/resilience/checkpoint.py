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
are pruned.

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
import tempfile
import zlib
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from repro.core.scoring import ScoreConfig
from repro.data.store import write_json_atomic
from repro.serve.ingest import StreamIngestor

__all__ = [
    "TickJournal",
    "CheckpointManager",
    "RecoveredState",
    "load_newest_snapshot",
]

_MAGIC = b"RWAL0001"
_HEADER = struct.Struct("<II")
_RECORD_HEAD = struct.Struct("<QI")
_CRC = struct.Struct("<I")
_CALENDAR_WIDTH = 5
_META_NAME = "meta.json"


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
        self._payload_len = (
            8 * self.n_sectors * self.n_kpis  # values float64
            + self.n_sectors * self.n_kpis  # missing uint8
            + 8 * _CALENDAR_WIDTH  # calendar float64
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        if not fresh:
            with open(self.path, "rb") as readable:
                self._check_header(readable)
                valid_end = self._scan_valid_end(readable)
            if valid_end < self.path.stat().st_size:
                # Torn/corrupt tail from a crashed writer: cut the file
                # back to its last intact record, otherwise every record
                # appended from here on would sit behind a bad one and
                # be unreachable to read_records() at the next recovery.
                with open(self.path, "r+b") as writable:
                    writable.truncate(valid_end)
                    writable.flush()
                    os.fsync(writable.fileno())
        self._handle: IO[bytes] = open(self.path, "ab")
        if fresh:
            self._handle.write(_MAGIC + _HEADER.pack(self.n_sectors, self.n_kpis))
            self._flush()
        self.appended = 0

    def _scan_valid_end(self, handle: IO[bytes]) -> int:
        """Byte offset just past the last intact record in *handle*.

        *handle* must be positioned at the first record (right after the
        header).  Anything beyond the returned offset failed a length or
        CRC check and is unusable.
        """
        end = handle.tell()
        while True:
            record_head = handle.read(_RECORD_HEAD.size)
            if len(record_head) < _RECORD_HEAD.size:
                return end
            _, payload_len = _RECORD_HEAD.unpack(record_head)
            if payload_len != self._payload_len:
                return end
            payload = handle.read(payload_len)
            crc_bytes = handle.read(_CRC.size)
            if len(payload) < payload_len or len(crc_bytes) < _CRC.size:
                return end
            if zlib.crc32(payload) != _CRC.unpack(crc_bytes)[0]:
                return end
            end = handle.tell()

    def _check_header(self, handle: IO[bytes]) -> None:
        head = handle.read(len(_MAGIC) + _HEADER.size)
        if len(head) < len(_MAGIC) + _HEADER.size or head[: len(_MAGIC)] != _MAGIC:
            raise ValueError(f"'{self.path}' is not a tick journal")
        n, l = _HEADER.unpack(head[len(_MAGIC):])
        if (n, l) != (self.n_sectors, self.n_kpis):
            raise ValueError(
                f"journal '{self.path}' is for ({n} sectors, {l} KPIs), "
                f"expected ({self.n_sectors}, {self.n_kpis})"
            )

    def _flush(self) -> None:
        self._handle.flush()
        if self.sync:
            os.fsync(self._handle.fileno())

    def append(
        self,
        hour: int,
        values: np.ndarray,
        missing: np.ndarray,
        calendar_row: np.ndarray,
    ) -> None:
        """Durably record one accepted tick."""
        payload = (
            np.ascontiguousarray(values, dtype=np.float64).tobytes()
            + np.ascontiguousarray(missing, dtype=np.uint8).tobytes()
            + np.ascontiguousarray(calendar_row, dtype=np.float64).tobytes()
        )
        if len(payload) != self._payload_len:
            raise ValueError(
                f"payload is {len(payload)} bytes, journal expects {self._payload_len}"
            )
        self._handle.write(_RECORD_HEAD.pack(hour, len(payload)))
        self._handle.write(payload)
        self._handle.write(_CRC.pack(zlib.crc32(payload)))
        self._flush()
        self.appended += 1

    def append_block(
        self,
        first_hour: int,
        values: np.ndarray,
        missing: np.ndarray,
        calendar_rows: np.ndarray,
    ) -> None:
        """Durably record a micro-batch of consecutive accepted ticks.

        Writes one standard per-hour record per block column — the
        on-disk format is byte-identical to calling :meth:`append` once
        per hour — but buffers the records and flushes (and optionally
        fsyncs) once for the whole block.  A crash mid-write tears the
        tail record exactly as with single appends; replay recovers
        every fully written hour.
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
            head = handle.read(len(_MAGIC) + _HEADER.size)
            if len(head) < len(_MAGIC) + _HEADER.size or head[: len(_MAGIC)] != _MAGIC:
                raise ValueError(f"'{path}' is not a tick journal")
            n, l = _HEADER.unpack(head[len(_MAGIC):])
            while True:
                record_head = handle.read(_RECORD_HEAD.size)
                if len(record_head) < _RECORD_HEAD.size:
                    return  # clean EOF or torn header
                hour, payload_len = _RECORD_HEAD.unpack(record_head)
                payload = handle.read(payload_len)
                crc_bytes = handle.read(_CRC.size)
                if len(payload) < payload_len or len(crc_bytes) < _CRC.size:
                    return  # torn record: crash mid-append
                if zlib.crc32(payload) != _CRC.unpack(crc_bytes)[0]:
                    return  # corrupted tail
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
        if up_to_hour is not None and int(path.stem.split("-")[1]) > up_to_hour:
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
        Snapshot cadence in accepted hours (default one week).
    keep_snapshots:
        Snapshots retained; older ones are pruned after each snapshot.
    sync:
        Passed to :class:`TickJournal`.
    ingestor_meta:
        Construction parameters of the ingestor being checkpointed (see
        :meth:`construction_meta`); written atomically to ``meta.json``
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
        keep_snapshots: int = 2,
        sync: bool = False,
        ingestor_meta: dict | None = None,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
        if keep_snapshots < 1:
            raise ValueError(f"keep_snapshots must be >= 1, got {keep_snapshots}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.n_sectors = int(n_sectors)
        self.n_kpis = int(n_kpis)
        self.snapshot_every = snapshot_every
        self.keep_snapshots = keep_snapshots
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
        kwargs.setdefault("ingestor_meta", cls.construction_meta(ingestor))
        return cls(directory, ingestor.n_sectors, ingestor.n_kpis, **kwargs)

    @staticmethod
    def construction_meta(ingestor: StreamIngestor) -> dict:
        """JSON-able parameters that rebuild an equivalent empty ingestor."""
        return {
            "n_sectors": ingestor.n_sectors,
            "n_kpis": ingestor.n_kpis,
            "w_max": ingestor.w_max,
            "capacity": ingestor.capacity,
            "start_weekday": ingestor.start_weekday,
            "start_hour": ingestor.start_hour,
            "start_day_of_month": ingestor.start_day_of_month,
            "weights": list(ingestor.config.weights),
            "thresholds": list(ingestor.config.thresholds),
            "hotspot_threshold": ingestor.config.hotspot_threshold,
        }

    def _write_meta(self, meta: dict) -> None:
        """Atomically persist *meta* as ``meta.json`` (temp + replace)."""
        write_json_atomic(self.directory / _META_NAME, meta, sync=self.sync)

    # ------------------------------------------------------------- paths
    def state_path(self, name: str) -> Path:
        """Path for an auxiliary state file colocated with the journal.

        The lifecycle controller keeps its promotion state machine
        (``lifecycle.json``, written via
        :func:`repro.data.store.write_json_atomic`) here so that the
        WAL, the snapshots, and the champion/challenger bookkeeping
        recover from the same directory as one consistent unit.
        """
        return self.directory / name

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
        return int(files[-1].stem.split("-")[1]) if files else 0

    def _newest_segment_start(self) -> int:
        files = self._segment_files()
        return int(files[-1].stem.split("-")[1]) if files else 0

    # ------------------------------------------------------------ journal
    def record_tick(
        self,
        hour: int,
        values: np.ndarray,
        missing: np.ndarray,
        calendar_row: np.ndarray,
    ) -> None:
        """Journal one applied tick (call before acknowledging it)."""
        self._journal.append(hour, values, missing, calendar_row)

    def record_block(
        self,
        first_hour: int,
        values: np.ndarray,
        missing: np.ndarray,
        calendar_rows: np.ndarray,
    ) -> None:
        """Journal a micro-batch of applied ticks with one flush.

        On-disk bytes are identical to per-hour :meth:`record_tick`
        calls; only the write/flush batching differs.  Call after the
        block is applied and before acknowledging any of its hours.
        """
        self._journal.append_block(first_hour, values, missing, calendar_rows)

    # ----------------------------------------------------------- snapshot
    def snapshot(self, ingestor: StreamIngestor) -> Path:
        """Atomically snapshot *ingestor*, rotate and prune the journal.

        The state goes into an uncompressed (stored) ``.npz``; see the
        module docstring for why.
        """
        state = ingestor.state_dict()
        path = self._snapshot_path(ingestor.hours_seen)
        meta_blob = np.frombuffer(
            json.dumps(state["meta"]).encode("utf-8"), dtype=np.uint8
        )
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, meta_json=meta_blob, **state["arrays"])
                if self.sync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.snapshots_written += 1
        self._last_snapshot_hour = ingestor.hours_seen
        self._rotate_journal(ingestor.hours_seen)
        self._prune()
        return path

    def maybe_snapshot(self, ingestor: StreamIngestor) -> Path | None:
        """Snapshot when ``snapshot_every`` hours accrued since the last."""
        if ingestor.hours_seen - self._last_snapshot_hour >= self.snapshot_every:
            return self.snapshot(ingestor)
        return None

    def _rotate_journal(self, start_hour: int) -> None:
        self._journal.close()
        self._journal = TickJournal(
            self._segment_path(start_hour), self.n_sectors, self.n_kpis,
            sync=self.sync,
        )

    def _prune(self) -> None:
        snapshots = self._snapshot_files()
        for stale in snapshots[: -self.keep_snapshots]:
            stale.unlink(missing_ok=True)
        # A segment starting before the oldest *retained* snapshot is
        # fully superseded by it (segments rotate exactly at snapshots).
        kept = self._snapshot_files()
        if kept:
            oldest_kept_hour = int(kept[0].stem.split("-")[1])
            for segment in self._segment_files():
                start = int(segment.stem.split("-")[1])
                if start < oldest_kept_hour and segment != self._journal.path:
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
        runs further.  The fleet reshard path uses this to rewind every
        old shard to a common watermark before reassembling sectors.
        """
        directory = Path(directory)
        ingestor = load_newest_snapshot(directory, up_to_hour)
        snapshot_hour = 0 if ingestor is None else ingestor.hours_seen

        records: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        for segment in sorted(directory.glob("wal-*.log")):
            try:
                records.extend(TickJournal.read_records(segment))
            except ValueError:
                continue  # foreign or headerless file
        records.sort(key=lambda record: record[0])

        replayed = 0
        for hour, values, missing, calendar in records:
            if ingestor is None:
                # Journal-only recovery (crash before the first
                # snapshot): rebuild from the persisted construction
                # meta so anchors/w_max/capacity/score config match the
                # original run; fall back to a shape-derived default
                # only when the meta is absent or unusable.
                ingestor = cls._fresh_ingestor(directory, values.shape)
            if up_to_hour is not None and hour >= up_to_hour:
                break  # caller-bounded recovery (fleet reshard rewind)
            if hour < ingestor.hours_seen:
                continue  # superseded by the snapshot
            if hour > ingestor.hours_seen:
                break  # gap in the journal: nothing after it is replayable
            ingestor.ingest_hour(values, missing, calendar)
            replayed += 1
        return RecoveredState(ingestor, snapshot_hour, replayed)

    @classmethod
    def _fresh_ingestor(
        cls, directory: Path, shape: tuple[int, int]
    ) -> StreamIngestor:
        """Empty ingestor for journal-only replay, shaped like *shape*.

        Prefers the construction parameters persisted in ``meta.json``
        (anchors, ``w_max``, capacity, score config) over defaults; a
        missing, corrupt, or shape-mismatched meta degrades to the
        default configuration rather than failing recovery.
        """
        try:
            meta = json.loads(
                (directory / _META_NAME).read_text(encoding="utf-8")
            )
            if (int(meta["n_sectors"]), int(meta["n_kpis"])) != tuple(shape):
                raise ValueError("meta.json shape does not match the journal")
            return StreamIngestor(
                n_sectors=int(meta["n_sectors"]),
                n_kpis=int(meta["n_kpis"]),
                score_config=ScoreConfig(
                    weights=tuple(float(w) for w in meta["weights"]),
                    thresholds=tuple(float(t) for t in meta["thresholds"]),
                    hotspot_threshold=float(meta["hotspot_threshold"]),
                ),
                w_max=int(meta["w_max"]),
                capacity_hours=int(meta["capacity"]),
                start_weekday=int(meta["start_weekday"]),
                start_hour=int(meta["start_hour"]),
                start_day_of_month=int(meta["start_day_of_month"]),
            )
        except Exception:  # noqa: BLE001 - degrade to defaults, never fail
            return StreamIngestor(n_sectors=shape[0], n_kpis=shape[1])
