"""EventJournal: stable ids, per-hour idempotency, torn-tail recovery."""

from __future__ import annotations

import json

import pytest

from repro.gateway import EventJournal


def _events(*tags):
    return [{"type": "alert", "tag": tag} for tag in tags]


class TestAppendAndIds:
    def test_ids_are_dense_and_stable(self, tmp_path):
        journal = EventJournal(tmp_path / "events.jsonl")
        first = journal.record_hour(0, _events("a", "b"))
        second = journal.record_hour(1, _events("c"))
        assert [i for i, _ in first] == [0, 1]
        assert [i for i, _ in second] == [2]
        assert journal.next_id == 3
        journal.close()

    def test_empty_event_lists_take_no_ids(self, tmp_path):
        journal = EventJournal(tmp_path / "events.jsonl")
        assert journal.record_hour(0, []) == []
        assert journal.record_transient([]) == []
        assert journal.next_id == 0
        assert journal.records_appended == 0
        journal.close()

    def test_hour_dedup_returns_original_ids(self, tmp_path):
        journal = EventJournal(tmp_path / "events.jsonl")
        original = journal.record_hour(5, _events("x", "y"))
        replayed = journal.record_hour(5, _events("x", "y"))
        assert replayed == original
        assert journal.records_appended == 1  # nothing re-appended
        journal.close()
        # The dedup survives a reload, so a resumed gateway re-driving
        # the hour still hands out the same ids.
        reopened = EventJournal(tmp_path / "events.jsonl")
        assert reopened.record_hour(5, _events("x", "y")) == original
        reopened.close()

    def test_hour_dedup_rejects_diverging_replay(self, tmp_path):
        journal = EventJournal(tmp_path / "events.jsonl")
        journal.record_hour(5, _events("x", "y"))
        with pytest.raises(ValueError, match="identical event lists"):
            journal.record_hour(5, _events("x"))
        journal.close()

    def test_transient_records_exempt_from_dedup(self, tmp_path):
        journal = EventJournal(tmp_path / "events.jsonl")
        a = journal.record_transient([{"event": "quarantine"}])
        b = journal.record_transient([{"event": "quarantine"}])
        assert [i for i, _ in a] == [0]
        assert [i for i, _ in b] == [1]
        journal.close()


class TestReplay:
    def test_replay_after_id(self, tmp_path):
        journal = EventJournal(tmp_path / "events.jsonl")
        journal.record_hour(0, _events("a", "b"))
        journal.record_hour(1, _events("c"))
        assert [i for i, _ in journal.replay(-1)] == [0, 1, 2]
        assert [i for i, _ in journal.replay(0)] == [1, 2]
        assert journal.replay(2) == []
        journal.close()

    def test_replay_falls_back_to_file_past_cache(self, tmp_path):
        journal = EventJournal(tmp_path / "events.jsonl")
        for hour in range(4097):
            journal.record_hour(hour, _events(f"h{hour}"))
        # Cache holds the last 4096 records only; replaying from the
        # start must still return everything, in order, from disk.
        assert [i for i, _ in journal.replay(-1)] == list(range(4097))
        assert [e["tag"] for _, e in journal.replay(-1)] == [f"h{h}" for h in range(4097)]
        journal.close()

    def test_memory_only_journal(self):
        journal = EventJournal(None)
        journal.record_hour(0, _events("a"))
        journal.record_transient(_events("t"))
        assert [i for i, _ in journal.replay(-1)] == [0, 1]
        assert journal.stats()["path"] is None
        journal.close()


class TestRecovery:
    def test_reload_restores_clock_and_hours(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = EventJournal(path)
        journal.record_hour(3, _events("a"))
        journal.record_transient(_events("q"))
        journal.record_hour(7, _events("b", "c"))
        journal.close()
        reopened = EventJournal(path)
        assert reopened.next_id == 4
        assert reopened.last_hour == 7
        assert reopened.hours_recorded == 2
        assert [i for i, _ in reopened.replay(-1)] == [0, 1, 2, 3]
        # New appends continue the id sequence.
        assert [i for i, _ in reopened.record_hour(8, _events("d"))] == [4]
        reopened.close()

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = EventJournal(path)
        journal.record_hour(0, _events("a"))
        journal.record_hour(1, _events("b"))
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"hour": 2, "first_id": 2, "events": [{"ty')  # SIGKILL mid-write
        reopened = EventJournal(path)
        assert reopened.torn_tail_dropped == 1
        assert reopened.next_id == 2
        assert [i for i, _ in reopened.replay(-1)] == [0, 1]
        # The torn hour re-records cleanly (tap-before-WAL means the
        # engine never acknowledged it, so it is re-driven on resume).
        assert [i for i, _ in reopened.record_hour(2, _events("b2"))] == [2]
        reopened.close()
        # And the truncation is durable: a third open sees a clean file.
        third = EventJournal(path)
        assert third.torn_tail_dropped == 0
        assert third.next_id == 3
        third.close()

    def test_tail_without_newline_is_torn(self, tmp_path):
        # A crash between a record's JSON and its newline leaves a line
        # that parses; appending behind it would join the next record
        # onto the same line and lose both at the following reload.
        path = tmp_path / "events.jsonl"
        journal = EventJournal(path)
        journal.record_hour(0, _events("a"))
        journal.record_hour(1, _events("b", "c"))
        journal.close()
        path.write_bytes(path.read_bytes()[:-1])
        reopened = EventJournal(path)
        assert reopened.torn_tail_dropped == 1
        assert reopened.next_id == 1
        assert [i for i, _ in reopened.replay(-1)] == [0]
        # The dropped hour was never acknowledged, so it is re-driven.
        assert [i for i, _ in reopened.record_hour(1, _events("b", "c"))] == [1, 2]
        assert [i for i, _ in reopened.record_hour(2, _events("d"))] == [3]
        reopened.close()
        third = EventJournal(path)
        assert third.torn_tail_dropped == 0
        assert third.next_id == 4
        assert [i for i, _ in third.replay(-1)] == [0, 1, 2, 3]
        third.close()

    def test_file_contents_are_plain_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = EventJournal(path)
        journal.record_hour(0, _events("a", "b"))
        journal.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records == [
            {"hour": 0, "first_id": 0, "events": _events("a", "b")}
        ]
