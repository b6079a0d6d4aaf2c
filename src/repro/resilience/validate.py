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
  reconcile, probe a block and fall back to per-tick, turn accepted
  verdicts (gap fills included) into one block of hours;
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

    Parameters
    ----------
    n_sectors, n_kpis:
        Expected payload shape.
    max_bad_fraction:
        NaN/inf budget: the tick is quarantined when more than this
        fraction of its entries is missing or non-finite.  The default
        of 0.5 mirrors the Sec. II-C per-week filtering threshold
        applied at tick granularity.
    max_gap_hours:
        Largest forward clock jump that is reconciled by synthesising
        all-missing gap hours; larger jumps are quarantined (they point
        at a clock fault rather than lost hours).
    check_calendar:
        When True, a supplied calendar row must be a finite 5-vector
        whose hour-of-day field matches the ring clock.
    """

    n_sectors: int
    n_kpis: int
    max_bad_fraction: float = 0.5
    max_gap_hours: int = HOURS_PER_DAY
    check_calendar: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.max_bad_fraction <= 1.0:
            raise ValueError(
                f"max_bad_fraction must be in (0, 1], got {self.max_bad_fraction}"
            )
        if self.max_gap_hours < 0:
            raise ValueError(f"max_gap_hours must be >= 0, got {self.max_gap_hours}")

    @classmethod
    def for_ingestor(cls, ingestor: StreamIngestor, **overrides) -> "TickValidator":
        """A validator shaped for *ingestor*."""
        return cls(
            n_sectors=ingestor.n_sectors, n_kpis=ingestor.n_kpis, **overrides
        )

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
            order (treated as the current clock).
        clock:
            The ring-buffer clock (``ingestor.hours_seen``): the next
            hour the ingestor expects.
        ring_payload:
            Optional lookup ``hour -> (values, missing)`` into the ring
            for duplicate reconciliation; ``None`` disables it (all
            stale ticks quarantine).
        """
        declared = clock if hour is None else int(hour)

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
        if missing is None:
            missing = np.isnan(values)
        else:
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
            missing = missing | np.isnan(values)

        # --- NaN/inf budget --------------------------------------------
        # Non-finite non-NaN entries (inf sentinel garbage) are folded
        # into the missing mask; the tick as a whole must stay under the
        # bad-entry budget or it carries no usable signal.
        bad = missing | ~np.isfinite(values)
        bad_fraction = float(bad.mean())
        if bad_fraction > self.max_bad_fraction:
            return TickVerdict(
                QUARANTINE, "bad_value_budget",
                f"{bad_fraction:.1%} of entries missing/non-finite "
                f"(budget {self.max_bad_fraction:.1%})",
                declared_hour=declared,
            )
        missing = bad

        # --- calendar consistency --------------------------------------
        if calendar_row is not None:
            try:
                calendar_row = np.asarray(calendar_row, dtype=np.float64).reshape(-1)
            except (TypeError, ValueError) as error:
                return TickVerdict(
                    QUARANTINE, "calendar", f"calendar row not numeric: {error}",
                    declared_hour=declared,
                )
            if calendar_row.shape != (_CALENDAR_WIDTH,):
                return TickVerdict(
                    QUARANTINE, "calendar",
                    f"calendar row has {calendar_row.size} elements, "
                    f"expected {_CALENDAR_WIDTH}",
                    declared_hour=declared,
                )
            if self.check_calendar:
                if not np.isfinite(calendar_row).all():
                    return TickVerdict(
                        QUARANTINE, "calendar", "calendar row has non-finite entries",
                        declared_hour=declared,
                    )
                expected_hod = declared % HOURS_PER_DAY
                if int(calendar_row[0]) != expected_hod:
                    return TickVerdict(
                        QUARANTINE, "calendar",
                        f"calendar hour-of-day {calendar_row[0]:.0f} != "
                        f"{expected_hod} for hour {declared}",
                        declared_hour=declared,
                    )

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
        if gap > self.max_gap_hours:
            return TickVerdict(
                QUARANTINE, "gap_too_large",
                f"hour {declared} jumps {gap} h past the ring clock {clock} "
                f"(max reconcilable gap {self.max_gap_hours} h)",
                declared_hour=declared,
            )
        return TickVerdict(
            ACCEPT,
            values=values, missing=missing, calendar_row=calendar_row,
            gap_hours=gap, declared_hour=declared,
        )


class DeadLetterQueue:
    """Bounded ring of quarantined-tick records.

    Each record is a JSON-able dict (``hour``, ``reason``, ``detail``
    plus whatever context the caller adds).  When the ring is full the
    oldest record is dropped and counted, so totals stay exact while
    memory stays constant.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: deque[dict] = deque(maxlen=capacity)
        self.total = 0
        self.dropped = 0

    def push(
        self, reason: str, hour: int | None = None, detail: str | None = None, **extra
    ) -> dict:
        """Quarantine one record; returns the stored dict."""
        record = {"hour": hour, "reason": reason, "detail": detail, **extra}
        if len(self._items) == self.capacity:
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
            "capacity": self.capacity,
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
        fully_missing = missing.all(axis=1)
        was_dark = self.dark_mask
        self._run = np.where(fully_missing, self._run + 1, 0)
        newly_dark = np.nonzero(~was_dark & self.dark_mask)[0]
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
        fully-missing run per sector is recomputed from it exactly:
        because ``threshold_hours`` (84 by default) is far below the
        ring capacity (>= 192 h), any run long enough to matter fits
        entirely inside the ring, so the rebuilt state is equal to the
        uninterrupted tracker's (asserted in the fleet parity tests).
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
def _plain(verdict: TickVerdict) -> bool:
    return verdict.action == ACCEPT and verdict.gap_hours == 0


def _screen(validator: TickValidator, columns, clock: int, ring_payload) -> list[TickVerdict]:
    """Verdicts for consecutive ticks, each against the clock it would
    meet in per-hour order, up to and including the first one that is
    not a plain accept.

    *columns* holds ``(values, missing, calendar_row, hour)`` tuples.
    The validator is stateless, so a discarded verdict costs nothing.
    """
    verdicts: list[TickVerdict] = []
    for j, (values, missing, calendar_row, hour) in enumerate(columns):
        verdict = validator.validate(
            values, missing, calendar_row,
            hour=hour, clock=clock + j, ring_payload=ring_payload,
        )
        verdicts.append(verdict)
        if not _plain(verdict):
            break
    return verdicts


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
    it (with its gap hours) and returns the apply step's events.
    """
    [verdict] = _screen(
        validator, [(values, missing, calendar_row, hour)], clock, ring_payload
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
    ring_payload,
    submit_tick: Callable[..., list[dict]],
    apply: Callable[[list[TickVerdict]], list[dict]],
) -> list[dict]:
    """Probe-validate a block of consecutive hours and admit it.

    Every column is validated against the clock it would meet in
    per-hour order (column *j* declares ``first_hour + j``; ``None``
    trusts arrival order).  When all of them are plain accepts the
    verdicts go to *apply* in one call; any quarantine, duplicate, or
    gap verdict discards the probe and replays every original column
    through *submit_tick*, whose handling is the per-tick one.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3:
        raise ValueError(
            f"values must be (n_sectors, n_hours, n_kpis), got {values.shape}"
        )
    if missing is not None:
        missing = np.asarray(missing, dtype=bool)
    if calendar_rows is not None:
        calendar_rows = np.asarray(calendar_rows, dtype=np.float64)
    columns = [
        (
            values[:, j, :],
            None if missing is None else missing[:, j, :],
            None if calendar_rows is None else calendar_rows[j],
            None if first_hour is None else first_hour + j,
        )
        for j in range(values.shape[1])
    ]
    if not columns:
        return []
    verdicts = _screen(validator, columns, clock, ring_payload)
    if len(verdicts) == len(columns) and _plain(verdicts[-1]):
        return apply(verdicts)
    events: list[dict] = []
    for tick_values, tick_missing, calendar_row, hour in columns:
        events.extend(submit_tick(tick_values, tick_missing, calendar_row, hour=hour))
    return events


def accepted_block(
    verdicts: list[TickVerdict],
    clock: int,
    default_row: Callable[[int], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(values, missing, calendar_rows)`` for accepted *verdicts*.

    The block starts at *clock*.  The first verdict's gap hours lead it
    as all-missing hours (only a single tick's verdict can carry a gap;
    a probed block of plain accepts has none), so a tick is applied as
    a block of one hour plus its gap fills.  Calendar rows the verdicts
    do not carry come from ``default_row(hour)``, exactly what the
    ingestor would derive itself, so the journal records concrete rows.
    """
    gap = verdicts[0].gap_hours
    if len(verdicts) == 1:
        values = verdicts[0].values[:, None, :]
        missing = verdicts[0].missing[:, None, :]
    else:
        values = np.stack([v.values for v in verdicts], axis=1)
        missing = np.stack([v.missing for v in verdicts], axis=1)
    if gap:
        n_sectors, _, n_kpis = values.shape
        values = np.concatenate(
            [np.full((n_sectors, gap, n_kpis), np.nan), values], axis=1
        )
        missing = np.concatenate(
            [np.ones((n_sectors, gap, n_kpis), dtype=bool), missing], axis=1
        )
    rows = [default_row(clock + j) for j in range(gap)]
    rows += [
        default_row(clock + gap + j) if v.calendar_row is None else v.calendar_row
        for j, v in enumerate(verdicts)
    ]
    return values, missing, np.array(rows, dtype=np.float64)


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
