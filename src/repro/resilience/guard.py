"""The fault-tolerant serving front: validate → ingest → journal → mask.

:class:`ResilientHotSpotService` wraps a plain
:class:`~repro.serve.service.HotSpotService` with the full resilience
pipeline.  Every incoming tick passes through:

1. **validation** (:class:`~repro.resilience.validate.TickValidator`,
   through the admission functions the fleet coordinator shares) —
   malformed ticks land in the bounded dead-letter queue with a
   structured reason; idempotent duplicates are reconciled (dropped,
   counted); forward clock gaps within budget are filled with synthetic
   all-missing hours so lost hours read as darkness, not corruption;
2. **ingest + alerting** — the wrapped service runs as usual (with a
   :class:`~repro.resilience.degrade.ResilientPredictionEngine` the
   forecast path degrades instead of raising);
3. **journaling** (:class:`~repro.resilience.checkpoint
   .CheckpointManager`, optional) — accepted ticks (gap fills included)
   hit the write-ahead log after they are applied but *before* their
   events are released to the caller, and periodic atomic snapshots
   bound replay time after a crash; a tick interrupted mid-apply is
   absent from the journal and re-processed (events re-emitted) on
   resume, never acknowledged-then-lost;
4. **dark-sector masking** — sectors whose fully-missing run exceeds
   the Sec. II-C threshold are stripped from alert events until they
   report again; an alert emptied this way is replaced by an
   ``alert_suppressed`` event.

Resilience events (quarantine, gap_fill, duplicate, sector_dark,
alert_suppressed, degraded, recovered) flow through the shared
:class:`~repro.serve.telemetry.ServeTelemetry` event log and are also
returned inline with the tick's events, so drivers can stream them.
"""

from __future__ import annotations

import numpy as np

from repro.data.tensor import HOURS_PER_DAY
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.validate import (
    ACCEPT,
    DarkSectorTracker,
    DeadLetterQueue,
    TickValidator,
    accepted_block,
    admit_block,
    admit_tick,
    mask_dark_alerts,
)
from repro.serve.service import HotSpotService
from repro.serve.telemetry import ServeTelemetry

__all__ = ["ResilientHotSpotService"]


class ResilientHotSpotService:
    """Fault-tolerant wrapper around a :class:`HotSpotService`.

    Parameters
    ----------
    service:
        The wrapped alerting service (its engine supplies the ingestor,
        telemetry, and forecast path).
    validator:
        Tick validator; defaults to one shaped for the ingestor.
    dead_letters:
        Quarantine queue; defaults to a 256-record ring.
    dark_tracker:
        Dark-sector run tracker; defaults to the half-week threshold.
    checkpoint:
        Optional checkpoint manager.  When given, every accepted tick is
        journaled before ingest and snapshots are taken on its cadence.
    """

    def __init__(
        self,
        service: HotSpotService,
        validator: TickValidator | None = None,
        dead_letters: DeadLetterQueue | None = None,
        dark_tracker: DarkSectorTracker | None = None,
        checkpoint: CheckpointManager | None = None,
    ) -> None:
        self.service = service
        self.engine = service.engine
        ingestor = self.engine.ingestor
        self.validator = validator or TickValidator.for_ingestor(ingestor)
        if (self.validator.n_sectors, self.validator.n_kpis) != (
            ingestor.n_sectors, ingestor.n_kpis
        ):
            raise ValueError(
                f"validator is shaped ({self.validator.n_sectors}, "
                f"{self.validator.n_kpis}), ingestor ({ingestor.n_sectors}, "
                f"{ingestor.n_kpis})"
            )
        self.dead_letters = dead_letters or DeadLetterQueue()
        self.dark = dark_tracker or DarkSectorTracker(ingestor.n_sectors)
        self.checkpoint = checkpoint
        #: Optional per-hour event tap: ``tap(hour, events)`` is called
        #: with the hour's *final* (dark-masked, gap-prefixed) event
        #: list after the hour is applied but **before** its WAL append,
        #: for ticks and blocks alike.
        #: The gateway points this at its durable event journal: any
        #: hour the WAL acknowledges therefore already has its events
        #: persisted for SSE delivery, so a crash between journal and
        #: delivery re-emits instead of losing them.  The tap must be
        #: idempotent per hour — a crash before the WAL append makes
        #: the re-sent tick recompute the identical event list.
        self.event_tap = None

    @property
    def telemetry(self) -> ServeTelemetry:
        return self.service.telemetry

    @property
    def ingestor(self):
        return self.engine.ingestor

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
            clock=self.ingestor.hours_seen,
            ring_payload=self._ring_payload,
        )
        if verdict.action == ACCEPT:
            events = self._apply([verdict])
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
            clock=self.ingestor.hours_seen,
            ring_payload=self._ring_payload,
            submit_tick=self.submit_tick,
            apply=self._apply,
        )

    def run_jsonl(self, lines, out) -> int:
        """JSONL driver with the resilience pipeline in front.

        Same stream protocol as :meth:`HotSpotService.run_jsonl`, but
        every ``tick`` operation goes through :meth:`submit_tick` —
        validated, quarantined/reconciled/gap-filled as needed, and
        journaled/snapshotted when a checkpoint manager is attached —
        instead of hitting the ingestor directly.  A tick may declare
        its ``"hour"`` for duplicate/gap detection.
        """
        return self.service.run_jsonl(lines, out, tick_handler=self.submit_tick)

    def _apply(self, verdicts) -> list[dict]:
        """Apply → (tap) → journal → acknowledge accepted hours.

        The block (the first verdict's gap hours, then one hour per
        verdict) is ingested in day-aligned chunks.  Per hour the
        released events are its ``gap_fill`` prefix (gap hours only),
        its ``sector_dark`` events and, on the day-completing hour, the
        dark-masked day/alert events; the event tap sees each hour's
        list before the chunk's WAL append.  A crash mid-apply leaves
        the chunk out of the journal, so recovery re-processes it and
        its events are re-emitted rather than silently lost —
        journaling *before* apply would acknowledge hours whose alerts
        nobody ever saw.
        """
        ingestor = self.ingestor
        if self.checkpoint is not None:
            # Snapshot at entry, before the block is applied: the state
            # covered is identical to snapshotting right after the
            # previous call, but the slow npz write never sits between a
            # journaled hour and the release of its events.  Within a
            # block the cadence check waits for the next call, which
            # only bounds recovery replay length, never parity.
            self.checkpoint.maybe_snapshot(ingestor)
        clock = ingestor.hours_seen
        values, missing, calendar_rows = accepted_block(
            verdicts, clock, ingestor._default_calendar_row
        )
        gap_hours = verdicts[0].gap_hours
        n_hours = values.shape[1]
        events: list[dict] = []
        start = 0
        while start < n_hours:
            to_boundary = HOURS_PER_DAY - (clock + start) % HOURS_PER_DAY
            stop = min(start + to_boundary, n_hours)
            day_events = self.service.ingest_block(
                values[:, start:stop, :],
                missing[:, start:stop, :],
                calendar_rows[start:stop],
            )
            for j in range(start, stop):
                hour = clock + j
                released = []
                if j < gap_hours:
                    self.telemetry.inc("ticks_gap_filled")
                    released.append(self.telemetry.event("gap_fill", hour=hour))
                released.extend(
                    self.telemetry.event(
                        "sector_dark", sector=int(sector), hour=hour,
                        missing_run=self.dark.missing_run(int(sector)),
                    )
                    for sector in self.dark.observe(missing[:, j, :])
                )
                if j == stop - 1:
                    released.extend(
                        mask_dark_alerts(
                            day_events, self.dark.dark_mask, self.telemetry
                        )
                    )
                if self.event_tap is not None:
                    self.event_tap(hour, released)
                events.extend(released)
            if self.checkpoint is not None:
                self.checkpoint.record_block(
                    clock + start,
                    values[:, start:stop, :],
                    missing[:, start:stop, :],
                    calendar_rows[start:stop],
                )
            start = stop
        return events

    def _ring_payload(self, hour: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Ring contents for *hour*, for duplicate reconciliation."""
        ingestor = self.ingestor
        if not 0 <= hour < ingestor.hours_seen:
            return None
        if hour < ingestor.hours_seen - ingestor.capacity:
            return None  # evicted: cannot prove idempotency
        slot = hour % ingestor.capacity
        return ingestor.values[:, slot, :], ingestor.missing[:, slot, :]

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
