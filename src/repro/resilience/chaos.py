"""Deterministic fault injection for the resilient serving stack.

Chaos testing here is **replayable**: every fault decision derives from
``default_rng([seed, hour])``, so a schedule is a pure function of its
config — two runs with the same seed inject byte-identical faults and
produce identical event logs.  The harness covers the fault model end to
end:

* *drop* — the tick for an hour never arrives (the next tick's declared
  hour runs ahead of the ring clock; the guard gap-fills);
* *duplicate* — the tick is delivered twice (second is reconciled);
* *reorder* — two adjacent ticks swap (first gap-fills one hour, the
  late one quarantines);
* *corrupt* — the payload is damaged (wrong shape, inf-flooded values,
  or garbage calendar; all quarantine);
* *dark sector* — one sector's KPIs go fully missing for a span of
  hours (the dark tracker must mask its alerts);
* *registry failure* — model loads raise at scheduled hours (the
  engine must degrade, then recover).

The fleet supervision layer (PR 8) extends the fault model to the
**process level**: :class:`ProcessFault` schedules a worker-process
SIGKILL or hang at one of the existing crash seams
(``mid_apply``/``mid_journal``/``post_journal``), and
:class:`ProcessChaos` collects a schedule plus optional per-shard WAL
tail corruption applied at respawn.  Faults are one-shot by default —
a fired fault leaves a marker file so the respawned worker does not
re-die on the re-driven hour — while ``persistent=True`` models a
poison block that kills its worker on every delivery (the supervisor
must quarantine it instead of burning its restart budget).  The
schedule is a pure function of its config, so supervised chaos runs
are replayable: the same faults fire at the same seams every run, and
only the wall-clock timing of detection varies.

:func:`run_chaos_replay` drives a
:class:`~repro.resilience.guard.ResilientHotSpotService` through a
faulted dataset replay and returns a :class:`ChaosReport` pairing the
injected-fault ledger with the observed events — the contract checked by
tests and ``benchmarks/bench_chaos_replay.py`` is *no unhandled
exceptions, every fault evented, no alerts from dark sectors*.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.data.dataset import Dataset
from repro.serve.registry import ModelRegistry

if TYPE_CHECKING:  # the guard is a fleet front, and the fleet imports this module
    from repro.resilience.guard import ResilientHotSpotService

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "FlakyRegistry",
    "ProcessChaos",
    "ProcessFault",
    "chaos_stream",
    "corrupt_wal_tail",
    "install_process_faults",
    "run_chaos_replay",
]


@dataclass(frozen=True)
class ChaosConfig:
    """Fault schedule knobs (all probabilities are per-hour).

    At most one stream fault (drop/duplicate/reorder/corrupt) fires per
    hour, chosen by a deterministic per-hour draw.
    """

    seed: int = 0
    p_drop: float = 0.0
    p_duplicate: float = 0.0
    p_reorder: float = 0.0
    p_corrupt: float = 0.0
    #: Sector forced fully missing over ``dark_span`` (None disables).
    dark_sector: int | None = None
    #: Hour interval ``[lo, hi)`` for the forced dark sector.
    dark_span: tuple[int, int] = (0, 0)
    #: Hours at which the model registry starts failing loads.
    registry_fail_hours: tuple[int, ...] = ()
    #: Consecutive loads that fail per scheduled registry fault.
    registry_fail_count: int = 1

    def __post_init__(self) -> None:
        total = self.p_drop + self.p_duplicate + self.p_reorder + self.p_corrupt
        if total > 1.0:
            raise ValueError(f"fault probabilities sum to {total} > 1")
        for name in ("p_drop", "p_duplicate", "p_reorder", "p_corrupt"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


class FlakyRegistry:
    """Registry proxy whose loads fail on demand.

    Wraps a real :class:`~repro.serve.registry.ModelRegistry`;
    :meth:`fail_next` arms the next *n* ``get``/``load`` calls to raise
    :class:`OSError`, simulating registry I/O faults.  Everything else
    delegates.
    """

    def __init__(self, inner: ModelRegistry) -> None:
        self.inner = inner
        self._fail_remaining = 0
        self.failures_injected = 0

    def fail_next(self, count: int = 1) -> None:
        self._fail_remaining += count

    def _maybe_fail(self) -> None:
        if self._fail_remaining > 0:
            self._fail_remaining -= 1
            self.failures_injected += 1
            raise OSError("injected registry I/O failure (chaos)")

    def get(self, key):
        self._maybe_fail()
        return self.inner.get(key)

    def load(self, key):
        self._maybe_fail()
        return self.inner.load(key)

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __contains__(self, key) -> bool:
        return key in self.inner


# --------------------------------------------------------------------------
# process-level faults (fleet supervision chaos)
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class ProcessFault:
    """One scheduled worker-process fault at a crash seam.

    ``action`` is ``"sigkill"`` (the process dies instantly, mid-
    protocol, exactly as ``kill -9`` would) or ``"hang"`` (the process
    sleeps ``hang_secs`` at the seam, so the supervisor's heartbeat
    deadline — not process death — must detect it).  One-shot faults
    fire at most once per marker directory; ``persistent`` faults
    re-fire on every delivery of the armed hour, modelling a poison
    block.
    """

    shard: int
    seam: str  # mid_apply | mid_journal | post_journal
    hour: int
    action: str = "sigkill"  # sigkill | hang
    hang_secs: float = 3600.0
    persistent: bool = False

    def __post_init__(self) -> None:
        if self.seam not in ("mid_apply", "mid_journal", "post_journal"):
            raise ValueError(f"unknown seam {self.seam!r}")
        if self.action not in ("sigkill", "hang"):
            raise ValueError(f"unknown action {self.action!r}")

    def marker(self) -> str:
        return f"shard{self.shard}-{self.seam}-{self.hour}-{self.action}"


@dataclass(frozen=True)
class ProcessChaos:
    """A deterministic process-level fault schedule for a supervised fleet.

    ``marker_dir`` holds the one-shot bookkeeping: a fault writes
    ``<marker_dir>/<fault marker>`` *before* acting, so the respawned
    worker skips it when the same hour is re-driven.  ``wal_tail_shards``
    lists shards whose newest WAL segment gets garbage bytes appended
    once, at the supervisor's next respawn of that shard — simulating a
    torn tail left by a writer killed mid-append, which recovery must
    truncate cleanly.
    """

    faults: tuple[ProcessFault, ...] = ()
    marker_dir: str = ""
    wal_tail_shards: tuple[int, ...] = ()

    def for_shard(self, shard: int) -> tuple[ProcessFault, ...]:
        return tuple(f for f in self.faults if f.shard == shard)

    def disarm(self, shard: int, lo: int, hi: int | None = None) -> None:
        """Permanently disarm *shard*'s faults for hours ``[lo, hi)``.

        The supervisor calls this when it quarantines a poison block:
        dropping the offending payload removes whatever was killing the
        worker, so the matching (persistent) faults must stop firing —
        the disarm marker models exactly that, deterministically.
        """
        hi = lo + 1 if hi is None else hi
        marker_dir = Path(self.marker_dir)
        marker_dir.mkdir(parents=True, exist_ok=True)
        for fault in self.faults:
            if fault.shard == shard and lo <= fault.hour < hi:
                (marker_dir / f"disarm-{fault.marker()}").touch()


def install_process_faults(worker, chaos: ProcessChaos) -> None:
    """Arm *chaos*'s faults for *worker* inside its hosting process.

    Installs a :attr:`ShardWorker.seam_hook` that, when a scheduled
    ``(seam, hour)`` is reached, records the one-shot marker and then
    either SIGKILLs the hosting process or hangs it.  Called by the
    supervised shard host after building (or recovering) its worker.
    """
    faults = chaos.for_shard(worker.shard_id)
    if not faults:
        return
    marker_dir = Path(chaos.marker_dir)
    marker_dir.mkdir(parents=True, exist_ok=True)

    def hook(point: str, hour: int) -> None:
        for fault in faults:
            if (fault.seam, fault.hour) != (point, int(hour)):
                continue
            marker = marker_dir / fault.marker()
            if not fault.persistent and marker.exists():
                continue
            if (marker_dir / f"disarm-{fault.marker()}").exists():
                continue
            marker.touch()
            if fault.action == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(fault.hang_secs)

    worker.seam_hook = hook


def corrupt_wal_tail(shard_dir: str | Path, n_bytes: int = 74) -> Path | None:
    """Append garbage to the newest WAL segment under *shard_dir*.

    Models the torn tail a ``kill -9`` mid-append leaves behind: the
    garbage never forms an intact CRC-guarded record, so reopening the
    journal (or replaying it) must truncate it and recover every intact
    record before it.  Returns the corrupted segment path, or ``None``
    when the directory holds no segment yet.
    """
    segments = sorted(Path(shard_dir).glob("wal-*.log"))
    if not segments:
        return None
    with open(segments[-1], "ab") as handle:
        handle.write(b"\xde\xad\xbe\xef" * (n_bytes // 4 + 1))
    return segments[-1]


def _hour_rng(seed: int, hour: int) -> np.random.Generator:
    return np.random.default_rng([seed, hour])


def _corrupt(
    rng: np.random.Generator,
    values: np.ndarray,
    missing: np.ndarray,
    calendar: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Damage one payload; returns (values, missing, calendar, kind)."""
    kind = ("shape", "inf_flood", "calendar")[int(rng.integers(3))]
    if kind == "shape":
        return values[:-1], missing[:-1], calendar, kind
    if kind == "inf_flood":
        flooded = values.copy()
        flooded[rng.random(flooded.shape) < 0.75] = np.inf
        return flooded, missing, calendar, kind
    return values, missing, np.full(calendar.shape, np.nan), kind


def chaos_stream(
    dataset: Dataset,
    config: ChaosConfig,
    start_hour: int = 0,
    end_hour: int | None = None,
) -> Iterator[tuple[dict, dict | None]]:
    """Yield ``(envelope, fault)`` pairs for a faulted dataset replay.

    Each envelope is ``{"hour", "values", "missing", "calendar"}`` as
    the wire would deliver it; ``fault`` describes the injected fault
    (``None`` for clean ticks).  Dropped hours yield a fault entry with
    no envelope (``envelope is None``) so callers can ledger them.
    """
    kpis = dataset.kpis
    end = kpis.n_hours if end_hour is None else min(end_hour, kpis.n_hours)
    thresholds = np.cumsum(
        [config.p_drop, config.p_duplicate, config.p_reorder, config.p_corrupt]
    )
    hour = start_hour
    while hour < end:
        values = kpis.values[:, hour, :].copy()
        missing = kpis.missing[:, hour, :].copy()
        calendar = np.asarray(dataset.calendar[hour], dtype=np.float64).copy()
        if (
            config.dark_sector is not None
            and config.dark_span[0] <= hour < config.dark_span[1]
        ):
            values[config.dark_sector] = np.nan
            missing[config.dark_sector] = True
        envelope = {
            "hour": hour, "values": values, "missing": missing,
            "calendar": calendar,
        }
        rng = _hour_rng(config.seed, hour)
        draw = rng.random()
        if draw < thresholds[0]:
            yield None, {"hour": hour, "fault": "drop"}
            hour += 1
            continue
        if draw < thresholds[1]:
            yield envelope, {"hour": hour, "fault": "duplicate"}
            yield dict(envelope), None  # the duplicate delivery itself
            hour += 1
            continue
        if draw < thresholds[2] and hour + 1 < end:
            later_values = kpis.values[:, hour + 1, :].copy()
            later_missing = kpis.missing[:, hour + 1, :].copy()
            later = {
                "hour": hour + 1,
                "values": later_values,
                "missing": later_missing,
                "calendar": np.asarray(
                    dataset.calendar[hour + 1], dtype=np.float64
                ).copy(),
            }
            yield later, {"hour": hour, "fault": "reorder"}
            yield envelope, None  # the displaced (now late) tick
            hour += 2
            continue
        if draw < thresholds[3]:
            bad_values, bad_missing, bad_calendar, kind = _corrupt(
                rng, values, missing, calendar
            )
            yield (
                {
                    "hour": hour, "values": bad_values, "missing": bad_missing,
                    "calendar": bad_calendar,
                },
                {"hour": hour, "fault": "corrupt", "kind": kind},
            )
            hour += 1
            continue
        yield envelope, None
        hour += 1


@dataclass
class ChaosReport:
    """Ledger of a chaos replay: what was injected, what was observed."""

    injected: list[dict] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    unhandled: list[str] = field(default_factory=list)
    ticks_submitted: int = 0
    alerts: int = 0

    @property
    def injected_by_fault(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for fault in self.injected:
            counts[fault["fault"]] = counts.get(fault["fault"], 0) + 1
        return counts

    def events_of(self, kind: str) -> list[dict]:
        return [event for event in self.events if event.get("event") == kind]

    def summary(self) -> dict:
        return {
            "ticks_submitted": self.ticks_submitted,
            "alerts": self.alerts,
            "injected": self.injected_by_fault,
            "events": {
                kind: len(self.events_of(kind))
                for kind in (
                    "quarantine", "gap_fill", "duplicate", "sector_dark",
                    "alert_suppressed", "degraded", "recovered",
                )
            },
            "unhandled_exceptions": len(self.unhandled),
        }


def run_chaos_replay(
    dataset: Dataset,
    service: ResilientHotSpotService,
    config: ChaosConfig,
    start_hour: int = 0,
    end_hour: int | None = None,
    flaky_registry: FlakyRegistry | None = None,
) -> ChaosReport:
    """Drive *service* through a faulted replay of *dataset*.

    Registry faults are armed on *flaky_registry* (which must be the
    registry the service's engine actually uses) at the configured
    hours.  Every exception escaping ``submit_tick`` is recorded in
    ``report.unhandled`` — the resilience contract is that this list is
    empty for any schedule.
    """
    report = ChaosReport()
    fail_hours = set(config.registry_fail_hours)
    telemetry = service.telemetry
    for envelope, fault in chaos_stream(dataset, config, start_hour, end_hour):
        if fault is not None:
            report.injected.append(fault)
        if envelope is None:
            continue  # dropped tick: nothing arrives
        if flaky_registry is not None and envelope["hour"] in fail_hours:
            flaky_registry.fail_next(config.registry_fail_count)
            fail_hours.discard(envelope["hour"])
        report.ticks_submitted += 1
        seen_before = telemetry.events_seen
        try:
            events = service.submit_tick(
                envelope["values"],
                envelope["missing"],
                envelope["calendar"],
                hour=envelope["hour"],
            )
        except Exception as error:  # noqa: BLE001 - the ledger, not the crash
            report.unhandled.append(f"hour {envelope['hour']}: "
                                    f"{type(error).__name__}: {error}")
            continue
        # Engine-level events (degraded/recovered) reach the telemetry
        # log but are not returned by submit_tick; fold the fresh tail
        # in, skipping records submit_tick already returned.
        buffered = telemetry.events()
        delta = telemetry.events_seen - seen_before
        fresh = buffered[len(buffered) - delta:] if delta else []
        returned = {id(event) for event in events}
        events = events + [e for e in fresh if id(e) not in returned]
        for event in events:
            if event.get("type") == "alert":
                report.alerts += 1
            report.events.append(event)
    return report
