"""Fleet coordinator: the one admission front, over one or many shards.

:class:`FleetCoordinator` owns the *global* halves of the resilience
pipeline: tick validation against the full network shape, the
dead-letter queue, gap synthesis and dark-alert masking.  It drives
every shard worker with the rows it owns, then merges the shards'
response fragments into one deterministic event stream through
:func:`release_hours` (its rules are in DESIGN.md 3f).  The stream is
bitwise identical (as JSON lines) for any shard count and backend.

A front has one of two commit orders:

* **Release, then WAL** (:class:`LocalBackend`).  One in-process worker
  owns every sector.  It hands each day chunk to the coordinator's
  release before that chunk's WAL append, which is the commit point, so
  the tap fires inside the chunk and no watermark is kept.  The clock is
  the worker's ingest clock.  The guarded single engine,
  :class:`~repro.resilience.guard.ResilientHotSpotService`, is this
  front.
* **Journal, then watermark** (:class:`SerialBackend`, or
  :class:`~repro.fleet.supervisor.FleetSupervisor`, which forks one
  restartable host process per shard).  A block is acknowledged (its
  events returned, ``watermark.json`` advanced) only after every shard
  has applied *and journaled* it.  A crash anywhere leaves either no
  shard or every shard at or past the watermark.
  :func:`repro.fleet.recovery.recover_fleet` rewinds every shard to the
  watermark and the coordinator re-drives the unacknowledged hours,
  which re-apply to a bitwise-identical continuation.  A block that
  raises instead sets the clock back to its entry and resumes every
  shard there before the error propagates, so a retry is in step.  A
  host that cannot fork degrades to serial with the same merged stream.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from repro.data.store import write_json_atomic
from repro.data.tensor import HOURS_PER_DAY
from repro.fleet.partition import PartitionPlan
from repro.fleet.worker import (
    FleetConfig,
    ShardWorker,
    SimulatedKill,
    build_worker,
)
from repro.parallel.pool import PoolUnavailable
from repro.resilience.validate import (
    QUARANTINE,
    RECONCILE,
    DeadLetterQueue,
    TickValidator,
    accepted_block,
    admit_block,
    mask_dark_alerts,
)
from repro.serve.ingest import default_calendar_row
from repro.serve.service import build_alert, run_jsonl
from repro.serve.telemetry import ServeTelemetry

__all__ = [
    "WATERMARK_NAME",
    "FleetCoordinator",
    "LocalBackend",
    "SerialBackend",
    "build_fleet",
    "recovered_clock",
    "release_hours",
]

#: Fleet-level acknowledge file: the number of hours whose events have
#: been merged and released to the caller.
WATERMARK_NAME = "watermark.json"


# --------------------------------------------------------------------------
# backends
# --------------------------------------------------------------------------
class SerialBackend:
    """All shard workers of the fleet in *directory*, in the coordinator's process.

    The reference backend: trivially deterministic, no IPC, and the one
    the kill-point suites use (workers stay reachable so tests can arm
    :attr:`ShardWorker.kill_at` directly).
    """

    name = "serial"

    #: No broadcast buffer to size: blocks pass whole (None = unlimited).
    block_capacity: int | None = None

    def __init__(
        self,
        directory: Path,
        plan: PartitionPlan,
        config: FleetConfig,
        resume_at: int | None = None,
    ) -> None:
        self.directory = directory
        self.plan = plan
        self.config = config
        self.workers: list[ShardWorker] = []
        self.resume(resume_at)

    def resume(self, clock: int | None) -> None:
        """Rebuild every worker resumed at the fleet *clock* (``None``: fresh).

        Each shard is recovered to the clock and its directory rewound
        there (:func:`~repro.fleet.worker.build_worker`).
        """
        self.close()
        self.workers = [
            build_worker(self.directory, self.plan, shard, self.config, resume_at=clock)
            for shard in range(self.plan.n_shards)
        ]

    def submit_block(
        self, first_hour, values, missing, calendar_rows, released_before=None
    ) -> list[list[dict]]:
        return [
            worker.submit_block(
                first_hour,
                values[worker.sector_ids, :, :],
                missing[worker.sector_ids, :, :],
                calendar_rows,
                released_before=released_before,
            )
            for worker in self.workers
        ]

    def ring(self, hour: int) -> list:
        return [worker.ring_payload(hour) for worker in self.workers]

    def predict(self, horizon, model=None, window=None) -> list[np.ndarray]:
        return [
            worker.predict_fragment(horizon, model=model, window=window)
            for worker in self.workers
        ]

    def shard_hours(self) -> list[int]:
        return [worker.ingestor.hours_seen for worker in self.workers]

    def stats(self) -> list[dict]:
        return [worker.stats() for worker in self.workers]

    def telemetries(self) -> list[ServeTelemetry]:
        return [worker.engine.telemetry for worker in self.workers]

    def close(self) -> None:
        for worker in self.workers:
            worker.close()


class LocalBackend(SerialBackend):
    """One in-process worker that owns every sector.

    The worker owns ``arange(n)``, so blocks pass without a row gather,
    and it hands each applied day chunk to ``release(first_hour,
    shard_responses)`` before that chunk's WAL append.  It is never
    resumed: the front's clock is its worker's.
    """

    name = "local"

    def __init__(self, worker: ShardWorker) -> None:
        self.workers = [worker]

    def submit_block(self, first_hour, values, missing, calendar_rows, release) -> None:
        self.workers[0].submit_block(
            first_hour, values, missing, calendar_rows,
            release=lambda hour0, chunk: release(hour0, [chunk]),
        )


# --------------------------------------------------------------------------
# coordinator
# --------------------------------------------------------------------------
class FleetCoordinator:
    """Global validation, shard routing, and deterministic event merge.

    *directory* holds the fleet's watermark; a :class:`LocalBackend`
    front keeps none and passes ``None``.
    """

    def __init__(
        self,
        directory: str | Path | None,
        plan: PartitionPlan,
        config: FleetConfig,
        backend,
        clock: int = 0,
    ) -> None:
        self.directory = None if directory is None else Path(directory)
        self.plan = plan
        self.config = config
        self.backend = backend
        self._acknowledged = int(clock)
        #: The in-process worker of a :class:`LocalBackend`, else None.
        self._local = backend.workers[0] if isinstance(backend, LocalBackend) else None
        self.validator = TickValidator(n_sectors=config.n_sectors, n_kpis=config.n_kpis)
        self.dead_letters = DeadLetterQueue()
        # In process, front and worker share the engine's one sink.
        self.telemetry = (
            ServeTelemetry() if self._local is None else self._local.engine.telemetry
        )
        #: ``("mid_merge", hour)`` → raise :class:`SimulatedKill` after
        #: the shards applied the hour but before the merge/acknowledge.
        self.kill_at: tuple | None = None
        #: Optional per-hour event tap: ``tap(hour, events)`` fires with
        #: each hour's merged (gap-prefixed) event list before the hour
        #: is acknowledged: for shard backends after every shard applied
        #: and journaled it, before the watermark advances; in process
        #: before the chunk's WAL append.  A crash after the tap and
        #: before the acknowledge re-drives the hour on resume, so the
        #: tap sees an identical list and must be idempotent per hour.
        #: The gateway points this at its durable event journal for SSE
        #: delivery (DESIGN.md 3j).
        self.event_tap = None

    # -------------------------------------------------------------- ticks
    @property
    def clock(self) -> int:
        """The next hour the front expects.

        For shard backends, the acknowledged watermark.  In process, the
        worker's ingest clock: a block that fails after a chunk's apply
        leaves the clock where the engine stands, so the next tick is
        neither a gap nor a duplicate.
        """
        if self._local is not None:
            return self._local.ingestor.hours_seen
        return self._acknowledged

    @property
    def t_day(self) -> int:
        """Last fully merged day (-1 before the first completes)."""
        return self.clock // HOURS_PER_DAY - 1

    def submit_tick(
        self,
        values,
        missing=None,
        calendar_row=None,
        hour: int | None = None,
    ) -> list[dict]:
        """Validate, route, merge, acknowledge one tick.

        Never raises on bad input: malformed, late or conflicting ticks
        are quarantined, idempotent duplicates reconciled, short forward
        gaps filled with all-missing hours.  An accepted tick and its gap
        fills go through the shards as one block.
        """
        clock = self.clock
        verdict = self.validator.validate(
            values, missing, calendar_row, hour=hour, clock=clock,
            ring_payload=self._ring_payload,
        )
        if verdict.action == QUARANTINE:
            self.telemetry.inc("ticks_quarantined")
            record = self.dead_letters.push(
                verdict.reason, hour=verdict.declared_hour, detail=verdict.detail
            )
            return [self.telemetry.event("quarantine", **record)]
        if verdict.action == RECONCILE:
            self.telemetry.inc("ticks_reconciled")
            return [
                self.telemetry.event(
                    "duplicate", hour=verdict.declared_hour, detail=verdict.detail
                )
            ]
        return self._drive(*accepted_block(verdict, clock, self._default_calendar))

    def submit_block(
        self,
        values,
        missing=None,
        calendar_rows=None,
        first_hour: int | None = None,
    ) -> list[dict]:
        """Validate, broadcast, and merge a micro-batch of hours.

        A block of plain accepts goes to the shards in one
        :meth:`_drive`; any quarantine, duplicate or gap replays the
        block through :meth:`submit_tick`
        (:func:`~repro.resilience.validate.admit_block`).  *first_hour*
        is the declared hour of column 0 (``None`` trusts arrival order).
        """
        return admit_block(
            self.validator,
            values,
            missing,
            calendar_rows,
            first_hour,
            clock=self.clock,
            default_row=self._default_calendar,
            submit_tick=self.submit_tick,
            apply=self._drive,
        )

    def _drive(self, values, missing, calendar_rows, gap_hours: int) -> list[dict]:
        """Broadcast accepted hours to the shards, merge, acknowledge.

        The block is led by *gap_hours* gap fills.  Each hour's merged
        events (:func:`release_hours`) pass the event tap.  In process,
        the worker releases each day chunk before its WAL append, which
        commits it.  Shard backends get the block in ``block_capacity``
        slices and the watermark advances once, after the whole block.
        Every slice carries the acknowledged boundary — the clock at
        entry — which a crash anywhere in the block rewinds the shards
        to, so their snapshots keep one at or below it.  A block that
        raises on a shard backend (other than :class:`SimulatedKill`,
        which models a process death) does that rewind in place: the
        clock falls back to the entry clock and every shard is resumed
        there, so a retry drives them all in step.
        """
        released = self.clock
        events: list[dict] = []

        def release(first_hour: int, responses: list[list[dict]]) -> None:
            events.extend(
                release_hours(
                    first_hour, responses, self.plan, self.config, self.telemetry,
                    gap_end=released + gap_hours, tap=self.event_tap,
                )
            )

        if self._local is not None:
            self.backend.submit_block(released, values, missing, calendar_rows, release)
            return events
        n_hours = values.shape[1]
        capacity = self.backend.block_capacity or n_hours
        try:
            for start in range(0, n_hours, capacity):
                stop = min(start + capacity, n_hours)
                hour0 = self.clock
                responses = self.backend.submit_block(
                    hour0,
                    values[:, start:stop, :],
                    missing[:, start:stop, :],
                    calendar_rows[start:stop],
                    released_before=released,
                )
                if (
                    self.kill_at is not None
                    and self.kill_at[0] == "mid_merge"
                    and hour0 <= self.kill_at[1] < hour0 + (stop - start)
                ):
                    self.kill_at = None
                    raise SimulatedKill(
                        f"simulated crash: coordinator at mid_merge of block "
                        f"[{hour0}, {hour0 + stop - start})"
                    )
                self._acknowledged = hour0 + (stop - start)
                release(hour0, responses)
            write_json_atomic(
                self.directory / WATERMARK_NAME, {"emitted_hours": self.clock}
            )
        except SimulatedKill:
            raise
        except Exception:
            self._acknowledged = released
            self.backend.resume(released)
            raise
        return events

    def _ring_payload(self, hour: int):
        payloads = self.backend.ring(hour)
        if any(payload is None for payload in payloads):
            return None
        if len(payloads) == 1:  # one shard owns arange(n)
            return payloads[0]
        values = np.empty((self.config.n_sectors, self.config.n_kpis))
        missing = np.empty((self.config.n_sectors, self.config.n_kpis), dtype=bool)
        for shard, (shard_values, shard_missing) in enumerate(payloads):
            ids = self.plan.sectors_of(shard)
            values[ids, :] = shard_values
            missing[ids, :] = shard_missing
        return values, missing

    def _default_calendar(self, hour: int) -> np.ndarray:
        return default_calendar_row(
            hour,
            start_weekday=self.config.start_weekday,
            start_hour=self.config.start_hour,
            start_day_of_month=self.config.start_day_of_month,
        )

    # ------------------------------------------------------------ serving
    def predict(self, horizon: int, model=None, window=None) -> np.ndarray:
        fragments = self.backend.predict(horizon, model=model, window=window)
        scores = np.empty(self.config.n_sectors, dtype=np.float64)
        for shard, fragment in enumerate(fragments):
            scores[self.plan.sectors_of(shard)] = fragment
        return scores

    def run_jsonl(self, lines: Iterable[str], out: IO[str]) -> int:
        """JSONL driver (:func:`repro.serve.service.run_jsonl`).

        ``tick`` goes through :meth:`submit_tick` and may declare its
        ``"hour"``.  ``predict``, ``stats`` and ``t_day`` answer from
        this front for every backend (one shard owns ``arange(n)``, so
        in process the scattered scores are the engine's).
        """
        return run_jsonl(lines, out, self, self.submit_tick)

    # -------------------------------------------------------------- stats
    def stats(self) -> dict:
        """Merged fleet snapshot: pooled telemetry + per-shard counters."""
        shard_stats = self.backend.stats()
        merged = self.telemetry.merge(self.backend.telemetries())
        snapshot = merged.stats()
        snapshot["fleet"] = {
            "n_shards": self.plan.n_shards,
            "generation": self.plan.generation,
            "clock": self.clock,
            "backend": self.backend.name,
            "per_shard": [s.get("shard", {}) for s in shard_stats],
        }
        snapshot["resilience"] = {"dead_letters": self.dead_letters.stats()}
        if hasattr(self.backend, "supervisor_stats"):
            snapshot["fleet"]["supervisor"] = self.backend.supervisor_stats()
        return snapshot

    def close(self) -> None:
        """Shut the backend down (terminate/join forked workers); idempotent."""
        backend, self.backend = self.backend, None
        if backend is not None:
            backend.close()

    def __enter__(self) -> "FleetCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------------
# release: the merge of every front
# --------------------------------------------------------------------------
def release_hours(
    first_hour: int,
    shard_responses: list[list[dict]],
    plan: PartitionPlan,
    config: FleetConfig,
    telemetry: ServeTelemetry,
    gap_end: int = 0,
    tap=None,
) -> list[dict]:
    """Merge shard responses into the events of consecutive applied hours.

    The release step of every front (the guarded service is its
    one-shard case).  *shard_responses* holds one list per shard of
    *plan*, one response per hour from *first_hour*; *config* gives the
    horizons, first alerted day, top-k rule and the alerts' model name.
    Per hour: a ``gap_fill`` event before *gap_end*, supervision events, ``sector_dark`` events by global id,
    then on a day-completing hour the ``day`` event (ascending union of
    hot sectors), the alerts built from the scattered global scores and
    dark-masked, and lifecycle events by shard id (DESIGN.md 3f).  *tap*
    sees each hour's final list.
    """
    events: list[dict] = []
    for j, responses in enumerate(zip(*shard_responses)):
        hour = first_hour + j
        hour_events: list[dict] = []
        if hour < gap_end:
            telemetry.inc("ticks_gap_filled")
            hour_events.append(telemetry.event("gap_fill", hour=hour))
        # Supervision transitions ride on the response that triggered
        # them; healthy runs carry none.
        for response in responses:
            hour_events.extend(response.get("supervisor", ()))
        newly_dark = sorted(
            (int(sector), int(run))
            for response in responses
            for sector, run in response["dark_new"]
        )
        hour_events.extend(
            telemetry.event("sector_dark", sector=sector, hour=hour, missing_run=run)
            for sector, run in newly_dark
        )
        if responses[0]["day_completed"]:
            hour_events.extend(_day_events(responses, plan, config, telemetry))
        if tap is not None:
            tap(hour, hour_events)
        events.extend(hour_events)
    return events


def _day_events(responses, plan, config, telemetry) -> list[dict]:
    """The merged ``day`` event, masked alerts and lifecycle events."""
    sectors = [plan.sectors_of(shard) for shard in range(plan.n_shards)]
    t_day = int(responses[0]["t_day"])
    hot = sorted(int(sector) for response in responses for sector in response["hot"])
    events = [{"type": "day", "t_day": t_day, "hot_sectors": hot}]
    if t_day >= config.start_day:
        alerts = []
        for horizon in config.horizons:
            key = str(int(horizon))
            if any(key not in response["scores"] for response in responses):
                continue
            scores = np.empty(plan.n_sectors, dtype=np.float64)
            for ids, response in zip(sectors, responses):
                scores[ids] = response["scores"][key]
            alert = build_alert(t_day, int(horizon), scores, config.model, config)
            if alert is not None:
                telemetry.inc("alerts_emitted")
                alerts.append(alert)
        mask = np.zeros(plan.n_sectors, dtype=bool)
        for ids, response in zip(sectors, responses):
            if len(response["dark_mask"]):
                mask[ids] = response["dark_mask"]
        events.extend(mask_dark_alerts(alerts, mask, telemetry))
    for response in responses:
        events.extend(response["lifecycle"])
    return events


# --------------------------------------------------------------------------
# factory
# --------------------------------------------------------------------------
def build_fleet(
    directory: str | Path,
    config: FleetConfig,
    n_shards: int,
    plan: PartitionPlan | None = None,
    resume_at: int | None = None,
    supervise=None,
    chaos=None,
    on_event=None,
) -> FleetCoordinator:
    """Construct a fresh fleet, or resume one at the clock *resume_at*.

    Use :func:`~repro.fleet.recovery.recover_fleet` to resume a fleet:
    it computes the plan and the clock, and every shard is rewound to
    that clock (:func:`~repro.fleet.worker.build_worker`).

    ``supervise`` (a :class:`~repro.fleet.supervisor.SupervisorConfig`)
    selects the self-healing one-process-per-shard backend; ``chaos``
    (a :class:`~repro.resilience.chaos.ProcessChaos`) arms its
    deterministic process-fault schedule and ``on_event`` observes
    out-of-stream supervision events.  Without it, or on a host that
    cannot fork, the shards run in-process on the serial backend with
    the identical merged stream.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if plan is None:
        if resume_at is not None:
            plan = PartitionPlan.load(directory)
        else:
            plan = PartitionPlan.compute(config.n_sectors, n_shards)
            plan.save(directory)
    backend = None
    if supervise is not None:
        from repro.fleet.supervisor import FleetSupervisor

        try:
            backend = FleetSupervisor(
                directory, plan, config, resume_at,
                supervise=supervise, chaos=chaos, on_event=on_event,
            )
        except PoolUnavailable:
            backend = None
    if backend is None:
        backend = SerialBackend(directory, plan, config, resume_at)
    coordinator = FleetCoordinator(
        directory, plan, config, backend, clock=resume_at or 0
    )
    if hasattr(backend, "bind"):
        backend.bind(coordinator)
    return coordinator


def recovered_clock(directory: str | Path, shard_hours: list[int]) -> int:
    """The resume clock implied by the watermark and the shard WALs.

    ``m = min(shard hours)`` bounds how far every shard verifiably got;
    the watermark ``w`` records the last acknowledged hour + 1.  The
    fleet resumes from ``w``: everything before it was released to the
    consumer, everything in ``[w, m)`` was journaled by (some or all)
    shards but never acknowledged — a per-tick crash leaves that window
    at most one tick plus its gap fills wide, a mid-block crash up to a
    block wide.  Every shard is rewound to ``w`` and the window is
    re-driven and re-applied (at-most-once with respect to the
    watermark, exactly once with respect to the WALs).  ``w`` can never
    validly exceed ``m``; clamping guards against a hand-edited
    watermark.
    """
    m = min(shard_hours)
    path = Path(directory) / WATERMARK_NAME
    watermark = 0
    if path.exists():
        watermark = int(
            json.loads(path.read_text(encoding="utf-8"))["emitted_hours"]
        )
    return max(0, min(watermark, m))
