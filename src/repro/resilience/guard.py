"""The guarded single engine: the fleet's front over one in-process shard.

:class:`ResilientHotSpotService` is a
:class:`~repro.fleet.coordinator.FleetCoordinator` over a
:class:`~repro.fleet.coordinator.LocalBackend`: one worker that owns
every sector of a plain :class:`~repro.serve.service.HotSpotService`.
Every incoming tick passes through the front's one pipeline:

1. **validation** (:mod:`repro.resilience.validate`) — malformed ticks
   land in the bounded dead-letter queue with a structured reason;
   idempotent duplicates are reconciled (dropped, counted); forward
   clock gaps within budget are filled with synthetic all-missing hours
   so lost hours read as darkness, not corruption;
2. **apply** — the worker ingests day-aligned chunks, forecasts
   completed days (degrading instead of raising with a
   :class:`~repro.resilience.degrade.ResilientPredictionEngine`), runs
   the service's day hooks and tracks dark sectors;
3. **release** — :func:`~repro.fleet.coordinator.release_hours` turns
   each hour into its events, stripping sectors dark past the Sec. II-C
   threshold from alerts, and passes them to the event tap;
4. **journaling** (optional :class:`~repro.resilience.checkpoint
   .CheckpointManager`) — the chunk's WAL append, after the release and
   before the events are returned, is the commit point; snapshots bound
   replay.  A chunk interrupted before its append is re-processed
   (events re-emitted) on resume, never acknowledged-then-lost.  No
   watermark or response store is written: the checkpoint directory
   holds the WAL and snapshots only.

Resilience events (quarantine, gap_fill, duplicate, sector_dark,
alert_suppressed, degraded, recovered) flow through the engine's
:class:`~repro.serve.telemetry.ServeTelemetry` event log and are also
returned inline with the tick's events, so drivers can stream them.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.fleet.coordinator import FleetCoordinator, LocalBackend
from repro.fleet.partition import PartitionPlan
from repro.fleet.worker import FleetConfig, ShardWorker
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.validate import DarkSectorTracker
from repro.serve.service import HotSpotService

__all__ = ["ResilientHotSpotService"]


class ResilientHotSpotService(FleetCoordinator):
    """Fault-tolerant front of a :class:`HotSpotService`.

    Parameters
    ----------
    service:
        The wrapped alerting service.  Its engine supplies the ingestor,
        the telemetry and the forecast path; its config and the engine's
        default model set the alert policy.
    dark_tracker:
        Dark-sector run tracker; defaults to the half-week threshold.
        The worker rebuilds its runs from the ingestor's ring, so a
        recovered ingestor resumes its dark sectors.
    checkpoint:
        Optional checkpoint manager.  When given, every accepted chunk
        is journaled before its events are returned and snapshots are
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
        self.dark = dark_tracker or DarkSectorTracker(ingestor.n_sectors)
        self.checkpoint = checkpoint
        # The front reads the shape, calendar anchors, alert policy and
        # model of this config; the worker reads horizons and start_day.
        config = FleetConfig(
            ingestor.n_sectors, ingestor.n_kpis, str(self.engine.registry.root),
            model=self.engine.default_model,
            start_weekday=ingestor.start_weekday,
            start_hour=ingestor.start_hour,
            start_day_of_month=ingestor.start_day_of_month,
            **asdict(service.config),
        )
        plan = PartitionPlan.compute(ingestor.n_sectors, 1)
        worker = ShardWorker(
            0, plan.sectors_of(0), config, ingestor, self.engine, checkpoint, self.dark
        )
        worker.day_hooks = service.day_hooks
        super().__init__(None, plan, config, LocalBackend(worker))

    @property
    def ingestor(self):
        return self.engine.ingestor

    # The span tracer of the end-to-end benchmark wraps methods defined
    # on this class, so it pins these two delegations until stage
    # timing lives in the runtime (ROADMAP item 1).
    def submit_tick(self, values, missing=None, calendar_row=None, hour=None) -> list[dict]:
        return super().submit_tick(values, missing, calendar_row, hour=hour)

    def submit_block(
        self, values, missing=None, calendar_rows=None, first_hour=None
    ) -> list[dict]:
        return super().submit_block(values, missing, calendar_rows, first_hour=first_hour)

    def stats(self) -> dict:
        snapshot = self.service.stats()
        snapshot["resilience"] = {
            "dead_letters": self.dead_letters.stats(),
            "dark_sectors": self.dark.stats(),
        }
        if self.checkpoint is not None:
            snapshot["resilience"]["checkpoint"] = self.checkpoint.stats()
        return snapshot
