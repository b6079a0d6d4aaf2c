"""WAL journal + snapshot crash recovery: the bitwise-parity contract.

The headline assertion (DESIGN.md 3d): a serving process killed at *any*
tick and recovered from its checkpoint directory replays to a state
bitwise-equal to an uninterrupted run — same ring buffers, same float
accumulators, same feature windows, same forecasts.  Kill points cover
mid-day, mid-week, and both sides of a snapshot boundary.
"""

from __future__ import annotations

import io
import json
import struct
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.tensor import HOURS_PER_DAY
from repro.fleet import journal_clock
from repro.resilience import CheckpointManager, ResilientHotSpotService, TickJournal
from repro.serve import (
    HotSpotService,
    ModelRegistry,
    PredictionEngine,
    ServeConfig,
    StreamIngestor,
)

WINDOW = 7
SNAPSHOT_EVERY = 48
TOTAL_HOURS = 14 * HOURS_PER_DAY  # two weeks of replay


def feed(dataset, ingestor, checkpoint, lo_hour, hi_hour):
    """Replay dataset hours [lo, hi) through the WAL-then-ingest path."""
    kpis = dataset.kpis
    for hour in range(lo_hour, hi_hour):
        values = kpis.values[:, hour, :]
        missing = kpis.missing[:, hour, :]
        calendar = dataset.calendar[hour]
        if checkpoint is not None:
            checkpoint.record_tick(hour, values, missing, calendar)
        ingestor.ingest_hour(values, missing, calendar)
        if checkpoint is not None:
            checkpoint.maybe_snapshot(ingestor)


def assert_state_equal(actual: StreamIngestor, expected: StreamIngestor):
    got, want = actual.state_dict(), expected.state_dict()
    assert got["meta"] == want["meta"]
    assert set(got["arrays"]) == set(want["arrays"])
    for name in want["arrays"]:
        np.testing.assert_array_equal(
            got["arrays"][name], want["arrays"][name], err_msg=name
        )


def flip_member_byte(path, member="values.npy"):
    """Flip one byte in the middle of *member*'s data inside zip *path*.

    The zip directory and every other member stay intact, so only a
    reader that decodes *member* (and checks its CRC-32) can notice.
    """
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    with open(path, "r+b") as handle:
        handle.seek(info.header_offset + 26)  # local header name/extra lengths
        name_len, extra_len = struct.unpack("<HH", handle.read(4))
        offset = (
            info.header_offset + 30 + name_len + extra_len + info.compress_size // 2
        )
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ 0xFF]))


def deflate_snapshots(directory):
    """Rewrite every snapshot in *directory* the way older releases did.

    Same file names and members (``meta_json`` plus the state arrays),
    but written with :func:`np.savez_compressed`.
    """
    for path in sorted(directory.glob("snapshot-*.npz")):
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
        np.savez_compressed(path, **members)
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_DEFLATED
            }


@pytest.fixture(scope="module")
def uninterrupted(scored_dataset):
    """The reference: the same replay with no crash and no checkpointing."""
    ingestor = StreamIngestor.for_dataset(scored_dataset, w_max=WINDOW)
    feed(scored_dataset, ingestor, None, 0, TOTAL_HOURS)
    return ingestor


class TestJournal:
    SHAPE = (3, 2)

    def records(self, n):
        rng = np.random.default_rng(7)
        out = []
        for hour in range(n):
            values = rng.normal(size=self.SHAPE)
            missing = rng.random(self.SHAPE) < 0.2
            values[missing] = np.nan
            out.append((hour, values, missing, np.arange(5.0) + hour))
        return out

    def write(self, path, records):
        with TickJournal(path, *self.SHAPE) as journal:
            for hour, values, missing, calendar in records:
                journal.append_block(
                    hour, values[:, None, :], missing[:, None, :], calendar[None, :]
                )

    def test_roundtrip(self, tmp_path):
        records = self.records(5)
        path = tmp_path / "wal.log"
        self.write(path, records)
        read = list(TickJournal.read_records(path))
        assert len(read) == 5
        for (hour, values, missing, calendar), got in zip(records, read):
            assert got[0] == hour
            np.testing.assert_array_equal(got[1], values)
            np.testing.assert_array_equal(got[2], missing)
            assert got[2].dtype == bool
            np.testing.assert_array_equal(got[3], calendar)

    def test_reopen_appends(self, tmp_path):
        records = self.records(6)
        path = tmp_path / "wal.log"
        self.write(path, records[:4])
        self.write(path, records[4:])
        assert [r[0] for r in TickJournal.read_records(path)] == list(range(6))

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "wal.log"
        self.write(path, self.records(5))
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size - 5)  # crash mid-append
        assert len(list(TickJournal.read_records(path))) == 4

    def test_corrupt_tail_crc_rejected(self, tmp_path):
        path = tmp_path / "wal.log"
        self.write(path, self.records(3))
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.seek(size - 20)  # inside the last record's payload
            handle.write(b"\xff")
        assert len(list(TickJournal.read_records(path))) == 2

    def test_reopen_truncates_torn_tail(self, tmp_path):
        # Crash mid-append, then resume: the reopened journal must cut
        # the torn record off before appending, or every post-resume
        # record would be stranded behind it at the next recovery.
        records = self.records(7)
        path = tmp_path / "wal.log"
        self.write(path, records[:5])
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size - 5)  # tear record 4
        self.write(path, records[4:])  # resume re-acknowledges hour 4
        assert [r[0] for r in TickJournal.read_records(path)] == list(range(7))

    def test_reopen_truncates_corrupt_tail(self, tmp_path):
        records = self.records(5)
        path = tmp_path / "wal.log"
        self.write(path, records[:3])
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.seek(size - 20)  # inside the last record's payload
            handle.write(b"\xff")
        self.write(path, records[2:])
        assert [r[0] for r in TickJournal.read_records(path)] == list(range(5))

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "wal.log"
        self.write(path, self.records(1))
        with pytest.raises(ValueError, match="sectors"):
            TickJournal(path, 9, 9)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "not-a-journal.log"
        path.write_bytes(b"garbage that is not a WAL header")
        with pytest.raises(ValueError, match="not a tick journal"):
            list(TickJournal.read_records(path))

    def test_wrong_payload_size_rejected(self, tmp_path):
        with TickJournal(tmp_path / "wal.log", *self.SHAPE) as journal:
            with pytest.raises(ValueError, match="payload"):
                journal.append_block(
                    0, np.zeros((4, 1, 4)), np.zeros((4, 1, 4)), np.zeros((1, 5))
                )


class TestCrashRecoveryParity:
    # Kill points: mid-day, just before a snapshot (hour 96), just after
    # it, and mid-week-2 (several snapshots plus a partial segment).
    KILL_POINTS = (107, 95, 97, 250)

    @pytest.mark.parametrize("kill_hour", KILL_POINTS)
    def test_kill_and_restore_is_bitwise(
        self, scored_dataset, uninterrupted, tmp_path, kill_hour
    ):
        ingestor = StreamIngestor.for_dataset(scored_dataset, w_max=WINDOW)
        manager = CheckpointManager.for_ingestor(
            tmp_path, ingestor, snapshot_every=SNAPSHOT_EVERY
        )
        feed(scored_dataset, ingestor, manager, 0, kill_hour)
        del ingestor, manager  # crash: no close(), no final snapshot

        recovered = CheckpointManager.recover(tmp_path)
        assert recovered.ingestor is not None
        assert recovered.ingestor.hours_seen == kill_hour
        assert recovered.snapshot_hour == (kill_hour // SNAPSHOT_EVERY) * SNAPSHOT_EVERY
        assert recovered.replayed == kill_hour - recovered.snapshot_hour

        # Parity at the kill point itself...
        at_kill = StreamIngestor.for_dataset(scored_dataset, w_max=WINDOW)
        feed(scored_dataset, at_kill, None, 0, kill_hour)
        assert_state_equal(recovered.ingestor, at_kill)

        # ...and after resuming the stream to the end of the replay.
        resumed_manager = CheckpointManager.for_ingestor(
            tmp_path, recovered.ingestor, snapshot_every=SNAPSHOT_EVERY
        )
        feed(
            scored_dataset, recovered.ingestor, resumed_manager,
            kill_hour, TOTAL_HOURS,
        )
        assert_state_equal(recovered.ingestor, uninterrupted)
        t_day = TOTAL_HOURS // HOURS_PER_DAY - 1
        np.testing.assert_array_equal(
            recovered.ingestor.feature_window(t_day, WINDOW),
            uninterrupted.feature_window(t_day, WINDOW),
        )

    def test_corrupt_newest_snapshot_falls_back(self, scored_dataset, tmp_path):
        ingestor = StreamIngestor.for_dataset(scored_dataset, w_max=WINDOW)
        manager = CheckpointManager.for_ingestor(
            tmp_path, ingestor, snapshot_every=SNAPSHOT_EVERY
        )
        feed(scored_dataset, ingestor, manager, 0, 250)
        newest = sorted(tmp_path.glob("snapshot-*.npz"))[-1]
        newest.write_bytes(b"torn snapshot")

        recovered = CheckpointManager.recover(tmp_path)
        assert recovered.snapshot_hour == 192  # the older retained snapshot
        assert recovered.ingestor.hours_seen == 250
        assert_state_equal(recovered.ingestor, ingestor)

    @pytest.mark.parametrize("damage", ["flip_values_byte", "truncate_half"])
    def test_damaged_snapshot_member_falls_back(
        self, scored_dataset, tmp_path, damage
    ):
        # A flipped byte leaves the zip directory intact: only the CRC-32
        # of the stored ``values`` member can reveal it.  A half-length
        # file loses the directory itself.
        ingestor = StreamIngestor.for_dataset(scored_dataset, w_max=WINDOW)
        manager = CheckpointManager.for_ingestor(
            tmp_path, ingestor, snapshot_every=SNAPSHOT_EVERY
        )
        feed(scored_dataset, ingestor, manager, 0, 250)
        newest = sorted(tmp_path.glob("snapshot-*.npz"))[-1]
        if damage == "flip_values_byte":
            flip_member_byte(newest, "values.npy")
        else:
            with open(newest, "r+b") as handle:
                handle.truncate(newest.stat().st_size // 2)

        recovered = CheckpointManager.recover(tmp_path)
        assert recovered.snapshot_hour == 192
        assert recovered.ingestor.hours_seen == 250
        assert_state_equal(recovered.ingestor, ingestor)

    def test_deflated_snapshots_still_recover(
        self, scored_dataset, uninterrupted, tmp_path
    ):
        # A checkpoint directory written by a release that deflated its
        # snapshots: recover it, keep serving on it, recover again.
        ingestor = StreamIngestor.for_dataset(scored_dataset, w_max=WINDOW)
        manager = CheckpointManager.for_ingestor(
            tmp_path, ingestor, snapshot_every=SNAPSHOT_EVERY
        )
        feed(scored_dataset, ingestor, manager, 0, 130)
        del ingestor, manager  # crash
        deflate_snapshots(tmp_path)

        recovered = CheckpointManager.recover(tmp_path)
        assert (recovered.snapshot_hour, recovered.ingestor.hours_seen) == (96, 130)
        reference = StreamIngestor.for_dataset(scored_dataset, w_max=WINDOW)
        feed(scored_dataset, reference, None, 0, 130)
        assert_state_equal(recovered.ingestor, reference)

        resumed = CheckpointManager.for_ingestor(
            tmp_path, recovered.ingestor, snapshot_every=SNAPSHOT_EVERY
        )
        feed(scored_dataset, recovered.ingestor, resumed, 130, TOTAL_HOURS)
        assert resumed.stats()["snapshots_written"] == 5  # hours 144 .. 336
        segments = sorted(p.name for p in tmp_path.glob("wal-*.log"))
        assert segments == ["wal-00000288.log", "wal-00000336.log"]
        assert len(list(TickJournal.read_records(tmp_path / segments[0]))) == 48
        del resumed  # crash again

        final = CheckpointManager.recover(tmp_path)
        assert final.ingestor.hours_seen == TOTAL_HOURS
        assert_state_equal(final.ingestor, uninterrupted)

    def test_resume_after_torn_tail_keeps_later_ticks(
        self, scored_dataset, tmp_path
    ):
        # The full loop the WAL contract promises to survive: crash
        # mid-append (torn tail), recover, resume appending to the same
        # segment, crash again *before the next snapshot* — nothing
        # acknowledged after the resume may be lost to the second
        # recovery (the reopened journal must truncate the torn record,
        # not append behind it).
        ingestor = StreamIngestor.for_dataset(scored_dataset, w_max=WINDOW)
        manager = CheckpointManager.for_ingestor(
            tmp_path, ingestor, snapshot_every=SNAPSHOT_EVERY
        )
        feed(scored_dataset, ingestor, manager, 0, 50)
        del ingestor, manager  # crash...
        segment = sorted(tmp_path.glob("wal-*.log"))[-1]
        with open(segment, "r+b") as handle:
            handle.truncate(segment.stat().st_size - 5)  # ...mid-append

        recovered = CheckpointManager.recover(tmp_path)
        assert recovered.ingestor.hours_seen == 49  # hour 49 was torn
        resumed = CheckpointManager.for_ingestor(
            tmp_path, recovered.ingestor, snapshot_every=SNAPSHOT_EVERY
        )
        feed(scored_dataset, recovered.ingestor, resumed, 49, 90)
        del resumed  # second crash, still before the hour-96 snapshot

        final = CheckpointManager.recover(tmp_path)
        assert final.ingestor.hours_seen == 90
        reference = StreamIngestor.for_dataset(scored_dataset, w_max=WINDOW)
        feed(scored_dataset, reference, None, 0, 90)
        assert_state_equal(final.ingestor, reference)

    def test_journal_only_recovery(self, tmp_path):
        ingestor = StreamIngestor(n_sectors=5)  # default 21-KPI config
        shape = (ingestor.n_sectors, ingestor.n_kpis)
        manager = CheckpointManager.for_ingestor(
            tmp_path, ingestor, snapshot_every=10**6
        )
        rng = np.random.default_rng(3)
        for hour in range(30):
            values = rng.normal(size=shape)
            values[rng.random(shape) < 0.1] = np.nan
            missing = np.isnan(values)
            calendar = ingestor._default_calendar_row(hour)
            manager.record_tick(hour, values, missing, calendar)
            ingestor.ingest_hour(values, missing, calendar)
        manager.close()

        recovered = CheckpointManager.recover(tmp_path)
        assert recovered.snapshot_hour == 0
        assert recovered.replayed == 30
        assert_state_equal(recovered.ingestor, ingestor)

    def test_empty_directory_recovers_nothing(self, tmp_path):
        recovered = CheckpointManager.recover(tmp_path)
        assert recovered.ingestor is None
        assert (recovered.snapshot_hour, recovered.replayed) == (0, 0)

    def _feed_custom(self, tmp_path, hours=30):
        """A non-default ingestor fed pre-first-snapshot, then crashed."""
        ingestor = StreamIngestor(
            n_sectors=4, w_max=9, start_weekday=3, start_hour=5,
            start_day_of_month=12,
        )
        shape = (ingestor.n_sectors, ingestor.n_kpis)
        manager = CheckpointManager.for_ingestor(
            tmp_path, ingestor, snapshot_every=10**6
        )
        rng = np.random.default_rng(17)
        for hour in range(hours):
            values = rng.normal(size=shape)
            missing = np.zeros(shape, dtype=bool)
            calendar = ingestor._default_calendar_row(hour)
            manager.record_tick(hour, values, missing, calendar)
            ingestor.ingest_hour(values, missing, calendar)
        manager.close()
        return ingestor

    def test_journal_only_recovery_restores_construction(self, tmp_path):
        # A crash before the first snapshot must not recover an
        # ingestor with default anchors/w_max/capacity: meta.json
        # persists the construction parameters.
        ingestor = self._feed_custom(tmp_path)
        assert (tmp_path / "meta.json").exists()
        recovered = CheckpointManager.recover(tmp_path)
        assert recovered.snapshot_hour == 0
        assert recovered.replayed == 30
        # assert_state_equal compares state_dict meta too, which covers
        # w_max, capacity, and the calendar anchors.
        assert_state_equal(recovered.ingestor, ingestor)

    def test_corrupt_meta_degrades_to_default_config(self, tmp_path):
        ingestor = self._feed_custom(tmp_path)
        (tmp_path / "meta.json").write_text("{not json", encoding="utf-8")
        recovered = CheckpointManager.recover(tmp_path)
        # Recovery still succeeds (journaled ticks replay into a
        # default-configured ingestor of the right shape).
        assert recovered.replayed == 30
        assert recovered.ingestor.hours_seen == 30
        assert recovered.ingestor.n_sectors == ingestor.n_sectors
        assert recovered.ingestor.w_max == 21  # default, meta unusable


class TestCheckpointHousekeeping:
    def test_snapshot_atomic_and_pruned(self, scored_dataset, tmp_path):
        ingestor = StreamIngestor.for_dataset(scored_dataset, w_max=WINDOW)
        manager = CheckpointManager.for_ingestor(
            tmp_path, ingestor, snapshot_every=SNAPSHOT_EVERY
        )
        feed(scored_dataset, ingestor, manager, 0, 250)
        manager.close()
        assert list(tmp_path.glob("*.tmp")) == []
        snapshots = sorted(p.name for p in tmp_path.glob("snapshot-*.npz"))
        assert snapshots == ["snapshot-00000192.npz", "snapshot-00000240.npz"]
        # Segments before the oldest retained snapshot are superseded.
        segments = sorted(p.name for p in tmp_path.glob("wal-*.log"))
        assert segments == ["wal-00000192.log", "wal-00000240.log"]
        stats = manager.stats()
        assert stats["snapshots_written"] == 5
        assert stats["last_snapshot_hour"] == 240

    def test_snapshot_members_are_stored(self, scored_dataset, tmp_path):
        ingestor = StreamIngestor.for_dataset(scored_dataset, w_max=WINDOW)
        with CheckpointManager.for_ingestor(tmp_path, ingestor) as manager:
            feed(scored_dataset, ingestor, manager, 0, 30)
            path = manager.snapshot(ingestor)
        with zipfile.ZipFile(path) as archive:
            names = sorted(info.filename for info in archive.infolist())
            kinds = {info.compress_type for info in archive.infolist()}
        assert kinds == {zipfile.ZIP_STORED}
        expected = {"meta_json", *ingestor.state_dict()["arrays"]}
        assert names == sorted(f"{name}.npy" for name in expected)

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="snapshot_every"):
            CheckpointManager(tmp_path, 2, 2, snapshot_every=0)


def _clock_case_directory(directory: Path, case: dict) -> None:
    """A checkpoint directory damaged the way *case* says.

    Two sectors fed ``hours`` ticks through a checkpoint manager, one
    hour optionally left out of the journal (a gap), then: an extra
    segment re-journaling hours other segments hold (and possibly
    more), a CRC-covered byte flipped mid-segment, a torn tail on the
    newest segment, a corrupt newest snapshot, a deleted ``meta.json``.
    """
    ingestor = StreamIngestor(n_sectors=2, w_max=7)
    shape = (ingestor.n_sectors, ingestor.n_kpis)

    def tick(hour):
        values = np.random.default_rng(hour).normal(size=shape)
        return values, np.zeros(shape, dtype=bool), ingestor._default_calendar_row(hour)

    manager = CheckpointManager.for_ingestor(
        directory, ingestor, snapshot_every=case["snapshot_every"]
    )
    for hour in range(case["hours"]):
        if hour != case["gap"]:
            manager.record_tick(hour, *tick(hour))
        ingestor.ingest_hour(*tick(hour))
        manager.maybe_snapshot(ingestor)
    manager.close()
    if case["duplicate"] is not None:
        start, length = case["duplicate"]
        with TickJournal(directory / f"wal-{start:08d}.log", *shape) as journal:
            for hour in range(start, start + length):
                values, missing, calendar = tick(hour)
                journal.append_block(
                    hour, values[:, None, :], missing[:, None, :], calendar[None, :]
                )
    segments = sorted(directory.glob("wal-*.log"))
    if case["flip"] is not None:
        which, fraction = case["flip"]
        segment = segments[which % len(segments)]
        size = segment.stat().st_size
        if size > 16:
            offset = 16 + int(fraction * (size - 16))
            with open(segment, "r+b") as handle:
                handle.seek(offset)
                byte = handle.read(1)[0]
                handle.seek(offset)
                handle.write(bytes([byte ^ 0x5A]))
    if case["torn"]:
        newest = segments[-1]
        with open(newest, "r+b") as handle:
            handle.truncate(max(0, newest.stat().st_size - case["torn"]))
    snapshots = sorted(directory.glob("snapshot-*.npz"))
    if case["corrupt_snapshot"] and snapshots:
        flip_member_byte(snapshots[-1])
    if case["drop_meta"]:
        (directory / "meta.json").unlink()


_CLOCK_CASES = st.fixed_dictionaries({
    "hours": st.integers(0, 70),
    "snapshot_every": st.sampled_from([12, 25, 10**6]),
    "gap": st.one_of(st.none(), st.integers(0, 69)),
    "duplicate": st.one_of(st.none(), st.tuples(st.integers(0, 70), st.integers(1, 12))),
    "flip": st.one_of(st.none(), st.tuples(st.integers(0, 5), st.floats(0, 0.999))),
    "torn": st.sampled_from([0, 0, 1, 7, 200, 433]),
    "corrupt_snapshot": st.booleans(),
    "drop_meta": st.booleans(),
})


class TestJournalClock:
    """``journal_clock`` counts exactly what ``recover`` replays."""

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(case=_CLOCK_CASES)
    def test_journal_clock_equals_recovered_hours(self, case):
        with tempfile.TemporaryDirectory() as scratch:
            directory = Path(scratch)
            _clock_case_directory(directory, case)
            recovered = CheckpointManager.recover(directory)
            expected = 0 if recovered.ingestor is None else recovered.ingestor.hours_seen
            assert journal_clock(directory) == expected


class TestGuardIdempotency:
    """Duplicate ticks through the resilient service: ingest-once."""

    @pytest.fixture()
    def guard(self, scored_dataset, tmp_path):
        ingestor = StreamIngestor.for_dataset(scored_dataset, w_max=WINDOW)
        engine = PredictionEngine(
            ingestor, ModelRegistry(tmp_path / "registry"), window=WINDOW
        )
        service = HotSpotService(engine, ServeConfig(start_day=10**6))
        manager = CheckpointManager.for_ingestor(
            tmp_path / "ckpt", ingestor, snapshot_every=10**6
        )
        guard = ResilientHotSpotService(service, checkpoint=manager)
        kpis = scored_dataset.kpis
        for hour in range(30):
            guard.submit_tick(
                kpis.values[:, hour, :], kpis.missing[:, hour, :],
                scored_dataset.calendar[hour], hour=hour,
            )
        return guard

    def tick(self, dataset, hour):
        kpis = dataset.kpis
        return (
            kpis.values[:, hour, :], kpis.missing[:, hour, :],
            dataset.calendar[hour],
        )

    def test_duplicate_tick_is_idempotent(self, scored_dataset, guard):
        state_before = guard.ingestor.state_dict()
        appends_before = guard.checkpoint.stats()["journal_appends"]
        values, missing, calendar = self.tick(scored_dataset, 10)
        events = guard.submit_tick(values, missing, calendar, hour=10)
        assert [e["event"] for e in events] == ["duplicate"]
        assert guard.ingestor.hours_seen == 30
        assert guard.checkpoint.stats()["journal_appends"] == appends_before
        assert guard.telemetry.counter("ticks_reconciled") == 1
        assert_state_equal(
            guard.ingestor, StreamIngestor.from_state(state_before)
        )

    def test_conflicting_duplicate_quarantines(self, scored_dataset, guard):
        values, missing, calendar = self.tick(scored_dataset, 10)
        events = guard.submit_tick(values + 1.0, missing, calendar, hour=10)
        assert [e["event"] for e in events] == ["quarantine"]
        assert events[0]["reason"] == "conflicting_duplicate"
        assert guard.dead_letters.total == 1
        assert guard.ingestor.hours_seen == 30


class TestGuardJsonl:
    """JSONL (``--from-stdin``) ticks take the guarded path: validated,
    quarantined on contract violations, and journaled for recovery."""

    def build(self, tmp_path):
        ingestor = StreamIngestor(n_sectors=3, w_max=8)
        engine = PredictionEngine(
            ingestor, ModelRegistry(tmp_path / "registry"), window=7
        )
        service = HotSpotService(engine, ServeConfig(start_day=10**6))
        manager = CheckpointManager.for_ingestor(
            tmp_path / "ckpt", ingestor, snapshot_every=10**6
        )
        return ResilientHotSpotService(service, checkpoint=manager)

    def test_jsonl_ticks_are_validated_and_journaled(self, tmp_path):
        guard = self.build(tmp_path)
        shape = (guard.ingestor.n_sectors, guard.ingestor.n_kpis)
        rng = np.random.default_rng(9)
        lines = [
            json.dumps({
                "op": "tick",
                "values": rng.normal(size=shape).tolist(),
                "hour": hour,
            })
            for hour in range(5)
        ]
        lines.append(json.dumps({"op": "tick", "values": [[1.0]]}))  # bad shape
        lines.append(json.dumps({"op": "stop"}))
        out = io.StringIO()
        processed = guard.run_jsonl(lines, out)
        events = [json.loads(line) for line in out.getvalue().splitlines()]

        assert processed == 7
        assert guard.ingestor.hours_seen == 5
        # The malformed tick was quarantined, not ingested and not an error.
        assert sum(e.get("event") == "quarantine" for e in events) == 1
        assert guard.telemetry.counter("ticks_quarantined") == 1
        assert guard.dead_letters.total == 1
        # Every accepted tick hit the WAL, so a crash here recovers all 5.
        assert guard.checkpoint.stats()["journal_appends"] == 5
        guard.checkpoint.close()
        recovered = CheckpointManager.recover(tmp_path / "ckpt")
        assert recovered.replayed == 5
        assert_state_equal(recovered.ingestor, guard.ingestor)

    def test_jsonl_duplicate_tick_reconciled(self, tmp_path):
        guard = self.build(tmp_path)
        shape = (guard.ingestor.n_sectors, guard.ingestor.n_kpis)
        rng = np.random.default_rng(11)
        values = rng.normal(size=shape).tolist()
        tick = json.dumps({"op": "tick", "values": values, "hour": 0})
        out = io.StringIO()
        guard.run_jsonl([tick, tick], out)
        events = [json.loads(line) for line in out.getvalue().splitlines()]
        assert guard.ingestor.hours_seen == 1
        assert any(e.get("event") == "duplicate" for e in events)
        assert guard.checkpoint.stats()["journal_appends"] == 1
