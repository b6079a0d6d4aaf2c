"""Tick validation, quarantine, and dark-sector tracking.

The serving layer's parity contract (:mod:`repro.serve.ingest`) only
holds for well-formed input: correctly shaped float64 KPI matrices, a
consistent calendar row, and one tick per hour in order.  Real O&M feeds
violate all of that — sectors go dark, hours are lost, payloads arrive
late, duplicated, or corrupted (paper Sec. II-C motivates its filtering
step with exactly this).  This module is the contract's gatekeeper:

* :class:`TickValidator` checks every incoming tick against the
  ingestor's contract (shape, dtype, NaN/inf budget, calendar
  consistency, hour monotonicity via the ring-buffer clock) and renders
  a :class:`TickVerdict` — accept, reconcile (idempotent duplicate), or
  quarantine with a structured reason;
* :class:`DeadLetterQueue` holds quarantined ticks in a bounded ring so
  operators can inspect failures without the queue growing without
  bound;
* :class:`DarkSectorTracker` counts per-sector runs of fully-missing
  hours and flags sectors whose run exceeds the Sec. II-C threshold
  (half a week by default, mirroring the 50 %-missing-per-week sector
  filter) so downstream forecasts and alerts can mask them;
* :func:`admit_tick`, :func:`admit_block` and :func:`accepted_block`
  are the one admission front both serving stacks share — the guarded
  single engine (:mod:`repro.resilience.guard`) and the fleet
  coordinator (:mod:`repro.fleet.coordinator`): validate, quarantine or
  reconcile a tick, check a block in one array pass and fall back to
  per-tick, turn an accepted tick (gap fills included) into a block;
  :func:`mask_dark_alerts` strips dark sectors from alerts in their
  shared release step.

Validation never mutates ingestor state; the callers act on the
verdict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.tensor import HOURS_PER_DAY, HOURS_PER_WEEK
from repro.serve.ingest import StreamIngestor

__all__ = [
    "ACCEPT",
    "QUARANTINE",
    "RECONCILE",
    "TickVerdict",
    "TickValidator",
    "DeadLetterQueue",
    "DarkSectorTracker",
    "accepted_block",
    "admit_block",
    "admit_tick",
    "mask_dark_alerts",
]

#: Verdict actions.
ACCEPT = "accept"
RECONCILE = "reconcile"
QUARANTINE = "quarantine"

#: Calendar rows are 5-element vectors (hour, weekday, day-of-month,
#: weekend flag, holiday flag) — see repro.synth.calendar_info.
_CALENDAR_WIDTH = 5

#: NaN/inf budget: a tick is quarantined when more than this fraction
#: of its entries is missing or non-finite — the Sec. II-C 50 %-missing
#: rule applied to one tick.
_MAX_BAD_FRACTION = 0.5

#: Largest forward clock jump reconciled by synthesising all-missing gap
#: hours; larger jumps point at a clock fault rather than lost hours.
_MAX_GAP_HOURS = HOURS_PER_DAY

#: Quarantined-tick records the dead-letter ring keeps.
_DEAD_LETTER_CAPACITY = 256


@dataclass
class TickVerdict:
    """Outcome of validating one incoming tick.

    Attributes
    ----------
    action:
        One of :data:`ACCEPT`, :data:`RECONCILE` (idempotent duplicate —
        drop silently, already ingested), :data:`QUARANTINE`.
    reason:
        Machine-readable quarantine/reconcile reason (``None`` on plain
        accept).
    detail:
        Human-readable elaboration for the dead-letter record.
    values, missing, calendar_row:
        The normalised payload (float64 values, boolean mask with
        non-finite entries folded in, float64 calendar).  Only populated
        on accept/reconcile; a quarantined payload is left as received.
    gap_hours:
        Number of missing hours to synthesise *before* ingesting this
        tick (declared hour ran ahead of the ring clock).
    declared_hour:
        The hour the tick claimed to be for (the ring clock when the
        tick carried no hour stamp).
    """

    action: str
    reason: str | None = None
    detail: str | None = None
    values: np.ndarray | None = None
    missing: np.ndarray | None = None
    calendar_row: np.ndarray | None = None
    gap_hours: int = 0
    declared_hour: int | None = None


@dataclass
class TickValidator:
    """Check incoming hourly ticks against the ingestor's contract.

    *n_sectors* and *n_kpis* are the expected payload shape.  The NaN/inf
    budget (:data:`_MAX_BAD_FRACTION`) and the largest reconcilable gap
    (:data:`_MAX_GAP_HOURS`) are fixed; a supplied calendar row must be
    a finite 5-vector whose hour-of-day field matches the declared hour.
    """

    n_sectors: int
    n_kpis: int

    # ------------------------------------------------------------ validate
    def validate(
        self,
        values,
        missing=None,
        calendar_row=None,
        hour: int | None = None,
        clock: int = 0,
        ring_payload: Callable[[int], tuple[np.ndarray, np.ndarray] | None] | None = None,
    ) -> TickVerdict:
        """Render a verdict for one incoming tick.

        Parameters
        ----------
        values, missing, calendar_row:
            The payload as received (any types — coercion failures are a
            quarantine reason, not an exception).
        hour:
            The hour the tick claims to be for; ``None`` trusts arrival
            order (treated as the current clock).  A value ``int()``
            cannot convert quarantines as ``dtype``.
        clock:
            The ring-buffer clock (``ingestor.hours_seen``): the next
            hour the ingestor expects.
        ring_payload:
            Optional lookup ``hour -> (values, missing)`` into the ring
            for duplicate reconciliation; ``None`` disables it (all
            stale ticks quarantine).
        """
        try:
            declared = clock if hour is None else int(hour)
        except (TypeError, ValueError, OverflowError) as error:
            return TickVerdict(QUARANTINE, "dtype", f"hour not an integer: {error}")

        # --- payload shape and dtype -----------------------------------
        try:
            values = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError) as error:
            return TickVerdict(
                QUARANTINE, "dtype", f"values not numeric: {error}",
                declared_hour=declared,
            )
        expected = (self.n_sectors, self.n_kpis)
        if values.shape != expected:
            return TickVerdict(
                QUARANTINE, "shape",
                f"values shape {values.shape} != expected {expected}",
                declared_hour=declared,
            )
        if missing is not None:
            try:
                missing = np.asarray(missing, dtype=bool)
            except (TypeError, ValueError) as error:
                return TickVerdict(
                    QUARANTINE, "dtype", f"missing mask not boolean: {error}",
                    declared_hour=declared,
                )
            if missing.shape != expected:
                return TickVerdict(
                    QUARANTINE, "shape",
                    f"missing mask shape {missing.shape} != expected {expected}",
                    declared_hour=declared,
                )

        # --- NaN/inf budget --------------------------------------------
        missing = _bad_entries(values, missing)
        fault = self._budget_fault(missing[:, None, :])
        if fault is not None:
            return TickVerdict(QUARANTINE, "bad_value_budget", fault, declared_hour=declared)

        # --- calendar consistency --------------------------------------
        if calendar_row is not None:
            try:
                calendar_row = np.asarray(calendar_row, dtype=np.float64).reshape(-1)
            except (TypeError, ValueError) as error:
                return TickVerdict(
                    QUARANTINE, "calendar", f"calendar row not numeric: {error}",
                    declared_hour=declared,
                )
            fault = self._calendar_fault(calendar_row[None, :], np.array([declared]))
            if fault is not None:
                return TickVerdict(QUARANTINE, "calendar", fault, declared_hour=declared)

        # --- hour monotonicity via the ring clock ----------------------
        if declared < clock:
            payload = ring_payload(declared) if ring_payload is not None else None
            if payload is not None:
                ring_values, ring_missing = payload
                if np.array_equal(
                    ring_values, values, equal_nan=True
                ) and np.array_equal(ring_missing, missing):
                    return TickVerdict(
                        RECONCILE, "duplicate",
                        f"idempotent duplicate of hour {declared}",
                        values=values, missing=missing, calendar_row=calendar_row,
                        declared_hour=declared,
                    )
                return TickVerdict(
                    QUARANTINE, "conflicting_duplicate",
                    f"hour {declared} already ingested with different payload",
                    declared_hour=declared,
                )
            return TickVerdict(
                QUARANTINE, "late",
                f"hour {declared} is behind the ring clock {clock} "
                "(late/out-of-order tick)",
                declared_hour=declared,
            )
        gap = declared - clock
        if gap > _MAX_GAP_HOURS:
            return TickVerdict(
                QUARANTINE, "gap_too_large",
                f"hour {declared} jumps {gap} h past the ring clock {clock} "
                f"(max reconcilable gap {_MAX_GAP_HOURS} h)",
                declared_hour=declared,
            )
        return TickVerdict(
            ACCEPT,
            values=values, missing=missing, calendar_row=calendar_row,
            gap_hours=gap, declared_hour=declared,
        )

    def plain_block(self, values, missing, calendar_rows, first_hour, clock):
        """:meth:`validate` for every column of a float64 ``(n, h, k)``
        block in one array pass (a tick is the one-hour case).

        Returns ``(missing, calendar_rows)`` — the bad-entry mask and the
        rows as ``(h, 5)`` — when column *j* would be a plain accept (no
        gap) at ``clock + j`` for every *j*, else ``None``.
        """
        n_sectors, n_hours, n_kpis = values.shape
        if (n_sectors, n_kpis) != (self.n_sectors, self.n_kpis) or (
            missing is not None and missing.shape != values.shape
        ):
            return None
        offsets = np.arange(n_hours)
        hours = clock + offsets
        # int() truncates the declared hour, as validate() does.
        if first_hour is not None and (np.trunc(first_hour + offsets) != hours).any():
            return None
        missing = _bad_entries(values, missing)
        if self._budget_fault(missing) is not None:
            return None
        if calendar_rows is not None:
            calendar_rows = calendar_rows.reshape(n_hours, calendar_rows.size // n_hours)
            if self._calendar_fault(calendar_rows, hours) is not None:
                return None
        return missing, calendar_rows

    def _budget_fault(self, bad: np.ndarray) -> str | None:
        """Why an ``(n, h, k)`` bad-entry mask is over the NaN/inf budget
        in some hour, or ``None``.  An hour's share is its exact count
        over its size in float64, which is what ``bad[:, j, :].mean()``
        gives; summing sectors first keeps the reduction contiguous."""
        n_sectors, _, n_kpis = bad.shape
        # No hour can be over budget when the whole mask is within one
        # hour's budget: the common case, at the price of one count.
        if np.count_nonzero(bad) <= _MAX_BAD_FRACTION * n_sectors * n_kpis:
            return None
        shares = bad.sum(axis=0, dtype=np.uint32).sum(axis=1) / (n_sectors * n_kpis)
        over = shares > _MAX_BAD_FRACTION
        if not over.any():
            return None
        return (
            f"{shares[over.argmax()]:.1%} of entries missing/non-finite "
            f"(budget {_MAX_BAD_FRACTION:.1%})"
        )

    def _calendar_fault(self, rows: np.ndarray, hours: np.ndarray) -> str | None:
        """Why ``(h, w)`` calendar *rows* declared for *hours* are
        inconsistent, or ``None``.  They must be finite and their
        hour-of-day field must truncate to the declared one
        (``np.trunc`` equals ``int()`` on finite values)."""
        if rows.shape[1] != _CALENDAR_WIDTH:
            return f"calendar row has {rows.shape[1]} elements, expected {_CALENDAR_WIDTH}"
        if not np.isfinite(rows).all():
            return "calendar row has non-finite entries"
        expected = hours % HOURS_PER_DAY
        wrong = np.trunc(rows[:, 0]) != expected
        if not wrong.any():
            return None
        j = wrong.argmax()
        return (
            f"calendar hour-of-day {rows[j, 0]:.0f} != {expected[j]} "
            f"for hour {hours[j]}"
        )


def _bad_entries(values: np.ndarray, missing: np.ndarray | None) -> np.ndarray:
    """Entries missing or non-finite (NaN and inf sentinel garbage): the
    mask an accepted payload carries."""
    bad = ~np.isfinite(values)
    if missing is not None:
        bad |= missing
    return bad


class DeadLetterQueue:
    """Bounded ring of quarantined-tick records.

    Each record is a JSON-able dict (``hour``, ``reason``, ``detail``
    plus whatever context the caller adds).  When the ring is full — at
    :data:`_DEAD_LETTER_CAPACITY` records — the oldest record is dropped
    and counted, so totals stay exact while memory stays constant.
    """

    def __init__(self) -> None:
        self._items: deque[dict] = deque(maxlen=_DEAD_LETTER_CAPACITY)
        self.total = 0
        self.dropped = 0

    def push(
        self, reason: str, hour: int | None = None, detail: str | None = None, **extra
    ) -> dict:
        """Quarantine one record; returns the stored dict."""
        record = {"hour": hour, "reason": reason, "detail": detail, **extra}
        if len(self._items) == _DEAD_LETTER_CAPACITY:
            self.dropped += 1
        self._items.append(record)
        self.total += 1
        return record

    def __len__(self) -> int:
        return len(self._items)

    def items(self) -> list[dict]:
        """Buffered records, oldest first."""
        return list(self._items)

    def counts_by_reason(self) -> dict[str, int]:
        """Histogram of the *buffered* records' reasons."""
        counts: dict[str, int] = {}
        for record in self._items:
            counts[record["reason"]] = counts.get(record["reason"], 0) + 1
        return counts

    def stats(self) -> dict:
        return {
            "buffered": len(self._items),
            "capacity": _DEAD_LETTER_CAPACITY,
            "total": self.total,
            "dropped": self.dropped,
        }


@dataclass
class DarkSectorTracker:
    """Track per-sector runs of fully-missing hours.

    A sector is *dark* once its current run of hours with every KPI
    missing reaches ``threshold_hours``.  The default threshold is half
    a week — the tick-granular analogue of the paper's Sec. II-C rule
    that discards sectors with more than 50 % of a week missing.  Dark
    sectors carry no signal, so the resilient service masks them out of
    alerts until they report again (one non-missing hour resets the
    run).
    """

    n_sectors: int
    threshold_hours: int = HOURS_PER_WEEK // 2
    _run: np.ndarray = field(init=False, repr=False)
    went_dark_total: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.n_sectors < 1:
            raise ValueError(f"n_sectors must be >= 1, got {self.n_sectors}")
        if self.threshold_hours < 1:
            raise ValueError(
                f"threshold_hours must be >= 1, got {self.threshold_hours}"
            )
        self._run = np.zeros(self.n_sectors, dtype=np.int64)

    def observe(self, missing: np.ndarray) -> np.ndarray:
        """Update runs with one hour's ``(n_sectors, n_kpis)`` mask.

        Returns the indices of sectors that crossed into darkness on
        this observation (for event emission).
        """
        missing = np.asarray(missing, dtype=bool)
        if missing.shape[0] != self.n_sectors:
            raise ValueError(
                f"mask covers {missing.shape[0]} sectors, tracker has {self.n_sectors}"
            )
        # No sector is fully missing when fewer entries than one sector's
        # are: one count instead of a row reduction, the common case.
        fully_missing = (
            np.count_nonzero(missing) >= missing.shape[1] and missing.all(axis=1)
        )
        # A run grows by one or resets to zero, so a sector crosses into
        # darkness exactly when its run reaches the threshold.
        run = self._run
        run += 1
        run *= fully_missing
        newly_dark = np.flatnonzero(run == self.threshold_hours)
        self.went_dark_total += int(newly_dark.size)
        return newly_dark

    @property
    def dark_mask(self) -> np.ndarray:
        """Boolean ``(n_sectors,)`` mask; True = currently dark."""
        return self._run >= self.threshold_hours

    @property
    def dark_sectors(self) -> list[int]:
        return [int(i) for i in np.nonzero(self.dark_mask)[0]]

    def missing_run(self, sector: int) -> int:
        """Current consecutive fully-missing-hour run for *sector*."""
        return int(self._run[sector])

    def backfill_from_ring(self, ingestor: StreamIngestor) -> None:
        """Rebuild the runs from *ingestor*'s ring-buffer missing mask.

        After a crash the tracker's in-memory runs are gone; the ring
        buffer, restored from snapshot+WAL, still holds the last
        ``capacity`` hours of per-KPI missing masks.  The trailing
        fully-missing run per sector is recomputed from it exactly as
        long as ``threshold_hours`` (84 by default) is at most the ring
        capacity (>= 192 h), which :class:`~repro.fleet.worker.ShardWorker`
        enforces: any run long enough to matter then fits inside the
        ring, so the rebuilt state is equal to the uninterrupted
        tracker's (asserted in the fleet parity tests).
        ``went_dark_total`` is a lifetime counter with no ring
        representation; it is left untouched (zero on a fresh tracker).
        """
        if ingestor.n_sectors != self.n_sectors:
            raise ValueError(
                f"ingestor has {ingestor.n_sectors} sectors, "
                f"tracker has {self.n_sectors}"
            )
        hours = min(ingestor.hours_seen, ingestor.capacity)
        if hours == 0:
            self._run = np.zeros(self.n_sectors, dtype=np.int64)
            return
        slots = [
            (ingestor.hours_seen - hours + i) % ingestor.capacity
            for i in range(hours)
        ]
        fully = ingestor.missing[:, slots, :].all(axis=2)  # (n_sectors, hours)
        rev = fully[:, ::-1]
        broke = ~rev  # True where the trailing run stops
        first_false = np.argmax(broke, axis=1)
        run = np.where(broke.any(axis=1), first_false, hours)
        self._run = run.astype(np.int64)

    def stats(self) -> dict:
        return {
            "dark_now": int(self.dark_mask.sum()),
            "went_dark_total": self.went_dark_total,
            "threshold_hours": self.threshold_hours,
            "longest_run": int(self._run.max()) if self.n_sectors else 0,
        }


# --------------------------------------------------------------------------
# admission: the shared front of the guarded service and the fleet
# --------------------------------------------------------------------------
def admit_tick(
    validator: TickValidator,
    dead_letters: DeadLetterQueue,
    telemetry,
    values,
    missing=None,
    calendar_row=None,
    *,
    hour: int | None,
    clock: int,
    ring_payload,
) -> tuple[TickVerdict, list[dict]]:
    """Validate one tick, then quarantine or reconcile it.

    Returns the verdict and the events it releases: a ``quarantine``
    event (its record pushed to *dead_letters*) or a ``duplicate``
    event.  An accepted tick releases nothing here — the caller applies
    it (:func:`accepted_block`) and returns the apply step's events.
    """
    verdict = validator.validate(
        values, missing, calendar_row, hour=hour, clock=clock, ring_payload=ring_payload
    )
    if verdict.action == QUARANTINE:
        telemetry.inc("ticks_quarantined")
        record = dead_letters.push(
            verdict.reason, hour=verdict.declared_hour, detail=verdict.detail
        )
        return verdict, [telemetry.event("quarantine", **record)]
    if verdict.action == RECONCILE:
        telemetry.inc("ticks_reconciled")
        return verdict, [
            telemetry.event(
                "duplicate", hour=verdict.declared_hour, detail=verdict.detail
            )
        ]
    return verdict, []


def admit_block(
    validator: TickValidator,
    values,
    missing=None,
    calendar_rows=None,
    first_hour: int | None = None,
    *,
    clock: int,
    default_row: Callable[[int], np.ndarray],
    submit_tick: Callable[..., list[dict]],
    apply: Callable[..., list[dict]],
) -> list[dict]:
    """Check a block of consecutive hours in one pass and admit it.

    Column *j* declares ``first_hour + j`` (``None`` trusts arrival
    order).  A block of plain accepts (:meth:`TickValidator.plain_block`)
    goes to ``apply(values, missing, calendar_rows, 0)`` as one
    C-contiguous ``(n, h, k)`` copy, rows from ``default_row(hour)`` if
    it carries none; any other block replays every original column
    through *submit_tick*.  A C-contiguous float64 block is not copied,
    so *apply* may get the caller's own buffers: nothing keeps them
    after the call.  A mask or calendar whose hour count differs from
    *values*' raises ``ValueError`` before anything is applied.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 3:
        raise ValueError(f"values must be (n_sectors, n_hours, n_kpis), got {values.shape}")
    n_hours = values.shape[1]
    if missing is not None:
        missing = np.asarray(missing, dtype=bool)
        if missing.ndim != 3 or missing.shape[1] != n_hours:
            raise ValueError(
                f"missing shape {missing.shape} does not match values shape {values.shape}"
            )
    if calendar_rows is not None:
        calendar_rows = np.asarray(calendar_rows, dtype=np.float64)
        if calendar_rows.ndim == 0 or len(calendar_rows) != n_hours:
            raise ValueError(
                f"calendar_rows shape {calendar_rows.shape} does not match "
                f"values shape {values.shape}"
            )
    if not n_hours:
        return []
    plain = validator.plain_block(values, missing, calendar_rows, first_hour, clock)
    if plain is not None:
        bad, rows = plain
        if rows is None:
            rows = np.array([default_row(clock + j) for j in range(n_hours)], dtype=np.float64)
        return apply(values, bad, rows, 0)
    events: list[dict] = []
    for j in range(n_hours):
        tick_missing = None if missing is None else missing[:, j, :]
        calendar_row = None if calendar_rows is None else calendar_rows[j]
        hour = None if first_hour is None else first_hour + j
        events.extend(submit_tick(values[:, j, :], tick_missing, calendar_row, hour=hour))
    return events


def accepted_block(
    verdict: TickVerdict,
    clock: int,
    default_row: Callable[[int], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """An accepted tick as ``apply`` arguments: ``(values, missing,
    calendar_rows, gap_hours)`` of a block starting at *clock*.

    The verdict's gap hours lead the block as all-missing hours.  A row
    the tick does not carry comes from ``default_row(hour)``, exactly
    what the ingestor would derive itself, so the journal records
    concrete rows.
    """
    gap = verdict.gap_hours
    values = verdict.values[:, None, :]
    missing = verdict.missing[:, None, :]
    if gap:
        n_sectors, _, n_kpis = values.shape
        values = np.concatenate(
            [np.full((n_sectors, gap, n_kpis), np.nan), values], axis=1
        )
        missing = np.concatenate(
            [np.ones((n_sectors, gap, n_kpis), dtype=bool), missing], axis=1
        )
    rows = [default_row(clock + j) for j in range(gap)]
    rows.append(default_row(clock + gap) if verdict.calendar_row is None else verdict.calendar_row)
    return values, missing, np.array(rows, dtype=np.float64), gap


def mask_dark_alerts(events: list[dict], dark_mask: np.ndarray, telemetry) -> list[dict]:
    """Strip dark sectors out of alert events (never alert on them).

    An alert left with no sectors is replaced by an ``alert_suppressed``
    event; other events pass through unchanged.
    """
    if not dark_mask.any():
        return events
    out: list[dict] = []
    for event in events:
        if event.get("type") != "alert":
            out.append(event)
            continue
        keep = [i for i, s in enumerate(event["sectors"]) if not dark_mask[s]]
        removed = len(event["sectors"]) - len(keep)
        if removed:
            telemetry.inc("alert_sectors_suppressed_dark", removed)
        if not keep:
            out.append(
                telemetry.event(
                    "alert_suppressed",
                    t_day=event["t_day"],
                    horizon=event["horizon"],
                    reason="all alerted sectors are dark",
                )
            )
            continue
        if removed:
            event = {
                **event,
                "sectors": [event["sectors"][i] for i in keep],
                "scores": [event["scores"][i] for i in keep],
            }
        out.append(event)
    return out
