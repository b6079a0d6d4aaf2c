"""The fault-tolerant serving front: validate → apply → release → journal.

:class:`ResilientHotSpotService` wraps a plain
:class:`~repro.serve.service.HotSpotService` as the one-shard case of
the fleet pipeline.  Every incoming tick passes through:

1. **validation** (the admission functions of
   :mod:`repro.resilience.validate`, shared with the fleet coordinator)
   — malformed ticks land in the bounded dead-letter queue with a
   structured reason; idempotent duplicates are reconciled (dropped,
   counted); forward clock gaps within budget are filled with synthetic
   all-missing hours so lost hours read as darkness, not corruption;
2. **apply** — one in-process :class:`~repro.fleet.worker.ShardWorker`
   owning every sector ingests day-aligned chunks, forecasts completed
   days (degrading instead of raising with a
   :class:`~repro.resilience.degrade.ResilientPredictionEngine`), runs
   the service's day hooks and tracks dark sectors;
3. **release** — the fleet's merge
   (:func:`~repro.fleet.coordinator.release_hours`) turns each hour into
   its events, stripping sectors dark past the Sec. II-C threshold from
   alerts, and passes them to the event tap;
4. **journaling** (optional :class:`~repro.resilience.checkpoint
   .CheckpointManager`) — the chunk's WAL append, after the tap and
   before the events are returned, is the commit point; snapshots
   bound replay.  A chunk interrupted before its append is re-processed
   (events re-emitted) on resume, never acknowledged-then-lost.

Resilience events (quarantine, gap_fill, duplicate, sector_dark,
alert_suppressed, degraded, recovered) flow through the shared
:class:`~repro.serve.telemetry.ServeTelemetry` event log and are also
returned inline with the tick's events, so drivers can stream them.
"""

from __future__ import annotations

from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.validate import (
    ACCEPT,
    DarkSectorTracker,
    DeadLetterQueue,
    TickValidator,
    accepted_block,
    admit_block,
    admit_tick,
)
from repro.serve.service import HotSpotService, run_jsonl
from repro.serve.telemetry import ServeTelemetry

__all__ = ["ResilientHotSpotService"]


class ResilientHotSpotService:
    """Fault-tolerant wrapper around a :class:`HotSpotService`.

    Parameters
    ----------
    service:
        The wrapped alerting service (its engine supplies the ingestor,
        telemetry, and forecast path).  Ticks are validated against
        its ingestor's shape and quarantined into a bounded
        :class:`~repro.resilience.validate.DeadLetterQueue`.
    dark_tracker:
        Dark-sector run tracker; defaults to the half-week threshold.
        The worker rebuilds its runs from the ingestor's ring, so a
        recovered ingestor resumes its dark sectors.
    checkpoint:
        Optional checkpoint manager.  When given, every accepted tick is
        journaled before its events are returned and snapshots are
        taken on its cadence.
    """

    def __init__(
        self,
        service: HotSpotService,
        dark_tracker: DarkSectorTracker | None = None,
        checkpoint: CheckpointManager | None = None,
    ) -> None:
        self.service = service
        self.engine = service.engine
        ingestor = self.engine.ingestor
        self.validator = TickValidator(ingestor.n_sectors, ingestor.n_kpis)
        self.dead_letters = DeadLetterQueue()
        self.dark = dark_tracker or DarkSectorTracker(ingestor.n_sectors)
        self.checkpoint = checkpoint
        # Imported here: the fleet package imports this one.
        from repro.fleet.coordinator import release_hours
        from repro.fleet.partition import PartitionPlan
        from repro.fleet.worker import ShardWorker

        self._release_hours = release_hours
        self._plan = PartitionPlan.compute(ingestor.n_sectors, 1)
        self._worker = ShardWorker(
            0, self._plan.sectors_of(0), service.config, ingestor, self.engine,
            checkpoint, self.dark,
        )
        self._worker.day_hooks = service.day_hooks
        #: Optional per-hour event tap: ``tap(hour, events)`` gets each
        #: applied hour's final event list **before** its WAL append, so
        #: every hour the WAL acknowledges already has its events in the
        #: gateway's journal (DESIGN.md 3j).  A crash before the append
        #: re-sends the tick, so the tap must be idempotent per hour.
        self.event_tap = None

    @property
    def telemetry(self) -> ServeTelemetry:
        return self.service.telemetry

    @property
    def ingestor(self):
        return self.engine.ingestor

    @property
    def clock(self) -> int:
        """The next hour the service expects (``ingestor.hours_seen``)."""
        return self.ingestor.hours_seen

    # -------------------------------------------------------------- ticks
    def submit_tick(
        self,
        values,
        missing=None,
        calendar_row=None,
        hour: int | None = None,
    ) -> list[dict]:
        """Validate and (maybe) ingest one tick; returns all events.

        Never raises on bad input: malformed/late/conflicting ticks are
        quarantined, idempotent duplicates reconciled, short forward
        gaps filled with all-missing hours.  An accepted tick is applied
        as a one-hour block led by its gap fills, through the same
        apply step as :meth:`submit_block`.  Returned events mix the
        wrapped service's day/alert events with resilience events.
        """
        verdict, events = admit_tick(
            self.validator,
            self.dead_letters,
            self.telemetry,
            values,
            missing,
            calendar_row,
            hour=hour,
            clock=self.clock,
            ring_payload=self._worker.ring_payload,
        )
        if verdict.action == ACCEPT:
            events = self._apply(
                *accepted_block(verdict, self.clock, self.ingestor._default_calendar_row)
            )
        return events

    def submit_block(
        self,
        values,
        missing=None,
        calendar_rows=None,
        first_hour: int | None = None,
    ) -> list[dict]:
        """Validate and ingest a micro-batch of consecutive hours.

        A block of plain accepts is applied in one call — columnar
        ingest, one batched WAL flush and dark masking per day chunk —
        with the event stream of the per-hour driver; any quarantine,
        duplicate, or gap replays the block through :meth:`submit_tick`
        (:func:`~repro.resilience.validate.admit_block`).  *first_hour*
        is the declared hour of column 0 (``None`` trusts arrival
        order).
        """
        return admit_block(
            self.validator,
            values,
            missing,
            calendar_rows,
            first_hour,
            clock=self.clock,
            default_row=self.ingestor._default_calendar_row,
            submit_tick=self.submit_tick,
            apply=self._apply,
        )

    def run_jsonl(self, lines, out) -> int:
        """JSONL driver (:func:`~repro.serve.service.run_jsonl`): every
        ``tick`` goes through :meth:`submit_tick` and may declare its
        ``"hour"``."""
        return run_jsonl(lines, out, self.engine, self.submit_tick)

    def _apply(self, values, missing, calendar_rows, gap_hours: int) -> list[dict]:
        """Apply → release (tap) → journal → acknowledge accepted hours.

        The block starts at the clock with *gap_hours* gap fills and
        goes to the worker in day-aligned chunks; each chunk's
        responses are released between its apply and its WAL append.  A
        crash before the append leaves the chunk out of the journal, so
        recovery re-processes it and its events are re-emitted rather
        than silently lost — journaling *before* release would
        acknowledge hours whose alerts nobody ever saw.
        """
        clock = self.clock
        gap_end = clock + gap_hours
        events: list[dict] = []

        def release(first_hour: int, responses: list[dict]) -> None:
            events.extend(
                self._release_hours(
                    first_hour, [responses], self._plan, self.service.config,
                    self.engine.default_model, self.telemetry,
                    gap_end=gap_end, tap=self.event_tap,
                )
            )

        self._worker.submit_block(
            clock, values, missing, calendar_rows, release=release
        )
        return events

    # -------------------------------------------------------------- stats
    def stats(self) -> dict:
        snapshot = self.service.stats()
        snapshot["resilience"] = {
            "dead_letters": self.dead_letters.stats(),
            "dark_sectors": self.dark.stats(),
        }
        if self.checkpoint is not None:
            snapshot["resilience"]["checkpoint"] = self.checkpoint.stats()
        return snapshot

    def close(self) -> None:
        """Close the checkpoint's journal, if any; idempotent."""
        self._worker.close()
