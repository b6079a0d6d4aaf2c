"""Fleet coordinator: route ticks to shards, merge one event stream.

:class:`FleetCoordinator` is the fleet's single front door.  It owns the
*global* halves of the resilience pipeline — tick validation against the
full network shape, the dead-letter queue, gap synthesis, and dark-alert
masking — and drives every shard worker with the rows it owns, then
merges the shards' response fragments back into one deterministic event
stream.

The merged stream is, by construction, bitwise identical (as JSON
lines) to what a single-engine
:class:`~repro.resilience.guard.ResilientHotSpotService` over the whole
network emits, for any shard count and either backend.  The merge rules
that guarantee it (DESIGN.md 3f):

* ``sector_dark`` events sort by global sector id (each shard reports
  its newly-dark sectors in ascending local order, which is ascending
  global order within the shard; the merge interleaves shards);
* the ``day`` event's ``hot_sectors`` is the ascending union of the
  shards' local hot sets;
* alerts are assembled from *full local score vectors*: the coordinator
  scatters each shard's fragment into a global score array and applies
  the exact single-engine policy — stable argsort, top-k, optional
  threshold, then global dark masking — because per-shard top-k would
  not commute with the global ranking;
* lifecycle events append in ascending shard-id order.

Watermark protocol: a tick is acknowledged (its events returned / its
``watermark.json`` advanced) only after every shard has applied *and
journaled* it.  A crash anywhere leaves either no shard or every shard
at-or-past the watermark, which is what
:func:`repro.fleet.recovery.recover_fleet` relies on to resume to a
bitwise-identical continuation.

Two backends drive the shards: :class:`SerialBackend` runs the workers
in-process (the fallback and the kill-point test harness);
:class:`~repro.fleet.supervisor.FleetSupervisor` forks one restartable
host process per shard.  A host that cannot fork degrades to serial
with the same merged stream.
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
    ACCEPT,
    QUARANTINE,
    RECONCILE,
    DeadLetterQueue,
    TickValidator,
)
from repro.serve.ingest import default_calendar_row
from repro.serve.service import run_jsonl
from repro.serve.telemetry import ServeTelemetry

__all__ = [
    "WATERMARK_NAME",
    "FleetCoordinator",
    "SerialBackend",
    "build_fleet",
    "recovered_clock",
]

#: Fleet-level acknowledge file: the number of hours whose events have
#: been merged and released to the caller.
WATERMARK_NAME = "watermark.json"


# --------------------------------------------------------------------------
# backends
# --------------------------------------------------------------------------
class SerialBackend:
    """All shard workers in the coordinator's process.

    The reference backend: trivially deterministic, no IPC, and the only
    one the kill-point suite uses (workers stay reachable so tests can
    arm :attr:`ShardWorker.kill_at` directly).
    """

    name = "serial"

    #: No broadcast buffer to size: blocks pass whole (None = unlimited).
    block_capacity: int | None = None

    def __init__(self, workers: list[ShardWorker]) -> None:
        self.workers = workers

    @classmethod
    def build(
        cls,
        directory: Path,
        plan: PartitionPlan,
        config: FleetConfig,
        resume: bool,
    ) -> "SerialBackend":
        return cls(
            [
                build_worker(directory, plan, shard, config, resume=resume)
                for shard in range(plan.n_shards)
            ]
        )

    def submit_hour(self, hour, values, missing, calendar_row) -> list[dict]:
        return [
            worker.submit(
                hour,
                values[worker.sector_ids, :],
                missing[worker.sector_ids, :],
                calendar_row,
            )
            for worker in self.workers
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


# --------------------------------------------------------------------------
# coordinator
# --------------------------------------------------------------------------
class FleetCoordinator:
    """Global validation, shard routing, and deterministic event merge."""

    def __init__(
        self,
        directory: str | Path,
        plan: PartitionPlan,
        config: FleetConfig,
        backend,
        clock: int = 0,
        validator: TickValidator | None = None,
        dead_letters: DeadLetterQueue | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.plan = plan
        self.config = config
        self.backend = backend
        self.clock = int(clock)
        self.validator = validator or TickValidator(
            n_sectors=config.n_sectors, n_kpis=config.n_kpis
        )
        self.dead_letters = dead_letters or DeadLetterQueue()
        self.telemetry = ServeTelemetry()
        #: ``("mid_merge", hour)`` → raise :class:`SimulatedKill` after
        #: the shards applied the hour but before the merge/acknowledge.
        self.kill_at: tuple | None = None
        #: Optional per-hour event tap: ``tap(hour, events)`` fires with
        #: each hour's merged (gap-prefixed) event list after the shards
        #: applied and journaled it but **before** the fleet watermark
        #: advances.  A crash between shard journaling and the tap
        #: leaves the watermark behind, so resume re-drives the hour
        #: and the shards re-emit their persisted responses — the tap
        #: sees an identical list and must be idempotent per hour.  The
        #: gateway points this at its durable event journal for SSE
        #: delivery (DESIGN.md 3j).
        self.event_tap = None

    # -------------------------------------------------------------- ticks
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

        The exact control flow of
        :meth:`ResilientHotSpotService.submit_tick`, with the per-row
        work delegated to the shards: quarantine and duplicate verdicts
        are handled entirely here; accepted ticks (gap fills included)
        are broadcast to every shard, and the merged events are released
        only after every shard journaled the hour (then the fleet
        watermark advances).
        """
        verdict = self.validator.validate(
            values,
            missing,
            calendar_row,
            hour=hour,
            clock=self.clock,
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
        assert verdict.action == ACCEPT
        events: list[dict] = []
        for _ in range(verdict.gap_hours):
            hour_now = self.clock
            gap_values = np.full((self.config.n_sectors, self.config.n_kpis), np.nan)
            gap_missing = np.ones_like(gap_values, dtype=bool)
            self.telemetry.inc("ticks_gap_filled")
            events.extend(
                self._drive_hour(
                    hour_now,
                    gap_values,
                    gap_missing,
                    self._default_calendar(hour_now),
                    prefix=[self.telemetry.event("gap_fill", hour=hour_now)],
                )
            )
        events.extend(
            self._drive_hour(
                self.clock, verdict.values, verdict.missing, verdict.calendar_row
            )
        )
        write_json_atomic(
            self.directory / WATERMARK_NAME, {"emitted_hours": self.clock}
        )
        return events

    def submit_block(
        self,
        values,
        missing=None,
        calendar_rows=None,
        first_hour: int | None = None,
    ) -> list[dict]:
        """Validate, broadcast, and merge a micro-batch of hours.

        Fleet twin of :meth:`ResilientHotSpotService.submit_block`:
        every column is probe-validated against the clock it would meet
        in per-hour order; a block of plain accepts is broadcast to the
        shards in ``block_capacity`` slices (each shard applies and
        journals it in day chunks) and the per-hour fragments are merged
        in order, producing the identical event stream.  Any quarantine,
        duplicate, or gap verdict discards the probe and replays the
        original columns through per-hour :meth:`submit_tick`.  The
        watermark advances once, after the whole block is merged — a
        mid-block crash re-drives from the last acknowledged hour and
        shards re-emit what they already journaled.
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
        n_hours = values.shape[1]
        if n_hours == 0:
            return []
        verdicts = []
        for j in range(n_hours):
            verdict = self.validator.validate(
                values[:, j, :],
                None if missing is None else missing[:, j, :],
                None if calendar_rows is None else calendar_rows[j],
                hour=None if first_hour is None else first_hour + j,
                clock=self.clock + j,
                ring_payload=self._ring_payload,
            )
            if verdict.action != ACCEPT or verdict.gap_hours != 0:
                break
            verdicts.append(verdict)
        if len(verdicts) < n_hours:
            events: list[dict] = []
            for j in range(n_hours):
                events.extend(
                    self.submit_tick(
                        values[:, j, :],
                        None if missing is None else missing[:, j, :],
                        None if calendar_rows is None else calendar_rows[j],
                        hour=None if first_hour is None else first_hour + j,
                    )
                )
            return events
        block_values = np.stack([v.values for v in verdicts], axis=1)
        block_missing = np.stack([v.missing for v in verdicts], axis=1)
        calendar_block = (
            None
            if calendar_rows is None
            else np.stack([v.calendar_row for v in verdicts])
        )
        events = []
        capacity = self.backend.block_capacity or n_hours
        # The acknowledged boundary for this whole block: shards keep
        # every non-trivial response from here on so a mid-block crash
        # re-emits faithfully across capacity slices and day chunks.
        released = self.clock
        start = 0
        while start < n_hours:
            stop = min(start + capacity, n_hours)
            hour0 = self.clock
            responses = self.backend.submit_block(
                hour0,
                block_values[:, start:stop, :],
                block_missing[:, start:stop, :],
                None if calendar_block is None else calendar_block[start:stop],
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
            self.clock = hour0 + (stop - start)
            for j in range(stop - start):
                hour_events = self._merge(hour0 + j, [shard[j] for shard in responses])
                if self.event_tap is not None:
                    self.event_tap(hour0 + j, hour_events)
                events.extend(hour_events)
            start = stop
        write_json_atomic(
            self.directory / WATERMARK_NAME, {"emitted_hours": self.clock}
        )
        return events

    def _drive_hour(
        self, hour, values, missing, calendar_row, prefix: list[dict] | None = None
    ) -> list[dict]:
        """Broadcast one accepted hour to the shards and merge fragments."""
        responses = self.backend.submit_hour(hour, values, missing, calendar_row)
        if self.kill_at == ("mid_merge", hour):
            self.kill_at = None
            raise SimulatedKill(
                f"simulated crash: coordinator at mid_merge of hour {hour}"
            )
        self.clock = hour + 1
        events = (prefix or []) + self._merge(hour, responses)
        if self.event_tap is not None:
            self.event_tap(hour, events)
        return events

    def _merge(self, hour: int, responses: list[dict]) -> list[dict]:
        events: list[dict] = []
        # Supervision transitions (shard_degraded / shard_recovered /
        # poison_block) ride on the response that triggered them and are
        # released first; healthy runs carry none, so stream parity with
        # the single engine is untouched.
        for response in responses:
            events.extend(response.get("supervisor", ()))
        newly_dark = sorted(
            (int(sector), int(run))
            for response in responses
            for sector, run in response["dark_new"]
        )
        for sector, run in newly_dark:
            events.append(
                self.telemetry.event(
                    "sector_dark", sector=sector, hour=hour, missing_run=run
                )
            )
        if not responses[0]["day_completed"]:
            return events
        t_day = int(responses[0]["t_day"])
        hot = sorted(
            int(sector) for response in responses for sector in response["hot"]
        )
        events.append({"type": "day", "t_day": t_day, "hot_sectors": hot})
        if t_day >= self.config.start_day:
            dark_mask = self._assemble_mask(responses)
            for horizon in self.config.horizons:
                scores = self._assemble_scores(responses, horizon)
                if scores is None:
                    continue
                alert = self._build_alert(t_day, int(horizon), scores)
                if alert is None:
                    continue
                self.telemetry.inc("alerts_emitted")
                events.append(self._mask_alert(alert, dark_mask))
        for response in responses:
            events.extend(response["lifecycle"])
        return events

    def _assemble_scores(self, responses, horizon) -> np.ndarray | None:
        key = str(int(horizon))
        scores = np.empty(self.config.n_sectors, dtype=np.float64)
        for shard, response in enumerate(responses):
            fragment = response["scores"].get(key)
            if fragment is None:
                return None
            scores[self.plan.sectors_of(shard)] = np.asarray(
                fragment, dtype=np.float64
            )
        return scores

    def _assemble_mask(self, responses) -> np.ndarray:
        mask = np.zeros(self.config.n_sectors, dtype=bool)
        for shard, response in enumerate(responses):
            local = response["dark_mask"]
            if local:
                mask[self.plan.sectors_of(shard)] = np.asarray(local, dtype=bool)
        return mask

    def _build_alert(self, t_day, horizon, scores) -> dict | None:
        order = np.argsort(-scores, kind="stable")[: self.config.top_k]
        if self.config.alert_threshold is not None:
            order = order[scores[order] >= self.config.alert_threshold]
        if order.size == 0:
            return None
        return {
            "type": "alert",
            "t_day": t_day,
            "horizon": horizon,
            "forecast_day": t_day + horizon,
            "model": self.config.model,
            "sectors": [int(i) for i in order],
            "scores": [float(scores[i]) for i in order],
        }

    def _mask_alert(self, alert: dict, dark_mask: np.ndarray) -> dict:
        if not dark_mask.any():
            return alert
        keep = [i for i, s in enumerate(alert["sectors"]) if not dark_mask[s]]
        removed = len(alert["sectors"]) - len(keep)
        if removed:
            self.telemetry.inc("alert_sectors_suppressed_dark", removed)
        if not keep:
            return self.telemetry.event(
                "alert_suppressed",
                t_day=alert["t_day"],
                horizon=alert["horizon"],
                reason="all alerted sectors are dark",
            )
        if removed:
            alert = {
                **alert,
                "sectors": [alert["sectors"][i] for i in keep],
                "scores": [alert["scores"][i] for i in keep],
            }
        return alert

    def _ring_payload(self, hour: int):
        payloads = self.backend.ring(hour)
        if any(payload is None for payload in payloads):
            return None
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
        """JSONL driver, same protocol as the single-engine service.

        ``tick`` goes through :meth:`submit_tick`; ``predict`` and
        ``stats`` answer from the merged fleet (see
        :func:`repro.serve.service.run_jsonl`).
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
# factory
# --------------------------------------------------------------------------
def build_fleet(
    directory: str | Path,
    config: FleetConfig,
    n_shards: int,
    resume: bool = False,
    plan: PartitionPlan | None = None,
    clock: int | None = None,
    supervise=None,
    chaos=None,
    on_event=None,
) -> FleetCoordinator:
    """Construct a fresh fleet (use :func:`~repro.fleet.recovery
    .recover_fleet` to resume one — it computes the plan and clock).

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
        if resume:
            plan = PartitionPlan.load(directory)
        else:
            plan = PartitionPlan.compute(config.n_sectors, n_shards)
            plan.save(directory)
    backend = None
    if supervise is not None:
        from repro.fleet.supervisor import FleetSupervisor

        try:
            backend = FleetSupervisor(
                directory, plan, config, resume,
                supervise=supervise, chaos=chaos, on_event=on_event,
            )
        except PoolUnavailable:
            backend = None
    if backend is None:
        backend = SerialBackend.build(directory, plan, config, resume)
    if clock is None:
        clock = recovered_clock(directory, backend.shard_hours()) if resume else 0
    coordinator = FleetCoordinator(
        directory, plan, config, backend, clock=clock
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
    shards but never acknowledged — a per-hour crash leaves that window
    at most one hour wide, a mid-block crash up to a block wide — and
    re-driving it makes shards re-emit their persisted responses
    (at-most-once with respect to the watermark, exactly once with
    respect to the WALs).  ``w`` can never validly exceed ``m``;
    clamping guards against a hand-edited watermark.
    """
    m = min(shard_hours)
    path = Path(directory) / WATERMARK_NAME
    watermark = 0
    if path.exists():
        watermark = int(
            json.loads(path.read_text(encoding="utf-8"))["emitted_hours"]
        )
    return max(0, min(watermark, m))
