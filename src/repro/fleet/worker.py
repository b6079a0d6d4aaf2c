"""Shard worker: one engine, one WAL, one slice of the sector space.

A :class:`ShardWorker` owns the rows of the KPI tensor assigned to it by
the :class:`~repro.fleet.partition.PartitionPlan` and wraps the same
primitives the single-engine serve path composes — a
:class:`~repro.serve.ingest.StreamIngestor` over its local sectors, a
:class:`~repro.resilience.degrade.ResilientPredictionEngine`, its own
:class:`~repro.resilience.checkpoint.CheckpointManager` (WAL + atomic
snapshots) and :class:`~repro.resilience.validate.DarkSectorTracker`.

Tick *validation* and dark-alert *masking* are global decisions (a
tick is quarantined for the whole network or not at all, and top-k
alert selection must see every sector's score before dark sectors are
stripped), so they live in front of the workers.  The worker's job is
the per-row part: apply the tick, answer with *fragments* — local hot
sectors, the full local score vector per horizon, newly-dark sectors —
that :func:`~repro.fleet.coordinator.release_hours` merges into one
event stream.

Crash consistency per day chunk of a block — a tick is a one-hour
block — (apply → journal → acknowledge):

1. ``maybe_snapshot`` — snapshot boundaries land *between* chunks;
2. apply — engine ingest, fragment computation, day hooks (the guard's
   lifecycle controller commits ``lifecycle.json`` first, DESIGN.md 3e),
   dark-tracker update;
3. the in-process worker of the guarded front
   (:class:`~repro.fleet.coordinator.LocalBackend`) hands the chunk's
   responses to the front's release; a shard returns them with the
   block;
4. journal the chunk into the WAL (one flushed append, the commit
   point; a worker without a checkpoint skips it and step 1).  A chunk
   whose step 2 or 3 raises is journaled before the error propagates,
   so the WAL stays level with the engine.

A worker killed anywhere in that sequence recovers to a state from
which re-driving the same hours yields the identical responses, since
they are deterministic functions of the journaled ticks.  The
in-process front resumes at its recovered clock.  A shard resumes at
the *fleet* clock: :func:`build_worker` recovers it bounded to that
hour and rewinds its checkpoint directory there, so hours the shard
journaled but the coordinator never acknowledged are re-applied, and a
block below the shard's clock is a :class:`FleetProtocolError`.
:attr:`ShardWorker.kill_at` injects :class:`SimulatedKill` at the three
seams for the kill-point suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data.tensor import HOURS_PER_DAY, HOURS_PER_WEEK
from repro.fleet.partition import PartitionPlan
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.degrade import ResilientPredictionEngine
from repro.resilience.validate import DarkSectorTracker
from repro.serve.ingest import StreamIngestor
from repro.serve.registry import ModelRegistry

__all__ = [
    "FleetConfig",
    "FleetProtocolError",
    "ShardWorker",
    "SimulatedKill",
    "build_worker",
    "recover_shard",
]

#: Hours a sector must be fully missing before it is considered dark
#: (mirrors :class:`DarkSectorTracker`'s default; overridable per fleet
#: so tests can exercise masking without replaying half a week).
DEFAULT_DARK_THRESHOLD = HOURS_PER_WEEK // 2


class SimulatedKill(RuntimeError):
    """Injected crash for the kill-point suite — never raised in prod."""


class FleetProtocolError(RuntimeError):
    """A shard was driven out of protocol (wrong hour, wrong shape)."""


@dataclass(frozen=True)
class FleetConfig:
    """Everything a worker or coordinator needs to rebuild the fleet.

    Plain picklable data — it crosses the fork boundary into process
    workers and is reconstructed from CLI flags on resume.  Anchors
    (``start_weekday`` etc.) pin every shard's calendar derivation to
    the dataset's time axis so gap synthesis is identical across shards
    and identical to the single-engine path.
    """

    n_sectors: int
    n_kpis: int
    registry_root: str
    model: str = "RF-F1"
    target: str = "hot"
    window: int = 7
    horizons: tuple = (1,)
    start_day: int = 0
    top_k: int = 5
    alert_threshold: float | None = None
    w_max: int = 21
    start_weekday: int = 0
    start_hour: int = 0
    start_day_of_month: int = 1
    snapshot_every: int = 168
    dark_threshold_hours: int = DEFAULT_DARK_THRESHOLD

    @classmethod
    def for_dataset(cls, dataset, registry_root: str | Path, **overrides) -> "FleetConfig":
        """Config anchored to *dataset*'s shape and time axis.

        Mirrors :meth:`StreamIngestor.for_dataset` exactly (anchors from
        the time axis, ``start_day_of_month`` left at its default) so a
        fleet over *dataset* synthesises the same gap calendar rows as a
        single engine built the usual way.
        """
        axis = dataset.time_axis
        overrides.setdefault("start_weekday", axis.start_weekday)
        overrides.setdefault("start_hour", axis.start_hour)
        return cls(
            n_sectors=dataset.n_sectors,
            n_kpis=dataset.kpis.n_kpis,
            registry_root=str(registry_root),
            **overrides,
        )


class ShardWorker:
    """One shard's engine, checkpoint, and dark tracker.

    Of *config* only ``horizons`` and ``start_day`` are read.
    """

    def __init__(
        self,
        shard_id: int,
        sector_ids: np.ndarray,
        config: FleetConfig,
        ingestor: StreamIngestor,
        engine: ResilientPredictionEngine,
        checkpoint: CheckpointManager | None,
        dark: DarkSectorTracker,
    ) -> None:
        self.shard_id = shard_id
        self.sector_ids = np.asarray(sector_ids, dtype=np.int64)
        self.config = config
        self.ingestor = ingestor
        self.engine = engine
        self.checkpoint = checkpoint
        # The dark runs are not checkpointed: rebuild them from the ring,
        # which holds at most `capacity` hours of any run.
        if dark.threshold_hours > ingestor.capacity:
            raise ValueError(
                f"dark threshold of {dark.threshold_hours} h exceeds the "
                f"{ingestor.capacity}-hour ingest ring, so a resumed shard "
                "could not rebuild its dark runs; lower the threshold or "
                "raise w_max"
            )
        dark.backfill_from_ring(ingestor)
        self.dark = dark
        #: ``hook(tick) -> events`` run on each completed day after its
        #: forecasts (the guarded front shares its service's hook list).
        self.day_hooks = []
        #: ``(point, hour)`` → raise :class:`SimulatedKill` at that seam.
        self.kill_at: tuple | None = None
        #: Optional ``hook(point, hour)`` invoked at every crash seam
        #: before the in-process kill check.  The process-level chaos
        #: harness installs one that SIGKILLs or hangs the hosting
        #: process (:func:`repro.resilience.chaos.install_process_faults`)
        #: so the supervisor sees a real worker death, not an exception.
        self.seam_hook = None

    # ------------------------------------------------------------ driving
    def submit(
        self,
        hour: int,
        values: np.ndarray,
        missing: np.ndarray,
        calendar_row: np.ndarray,
    ) -> dict:
        """Apply one tick (local rows): a one-hour :meth:`submit_block`."""
        rows = np.asarray(calendar_row)[None, :]
        return self.submit_block(hour, values[:, None, :], missing[:, None, :], rows)[0]

    def submit_block(
        self,
        first_hour: int,
        values: np.ndarray,
        missing: np.ndarray,
        calendar_rows: np.ndarray,
        released_before: int | None = None,
        release=None,
    ) -> list[dict]:
        """Apply a micro-batch of validated consecutive hours.

        *calendar_rows* are concrete (the coordinator fills defaults, so
        every shard journals identical rows).  Returns one response dict
        per block column — the shard's only apply path; a single tick is
        a one-hour block.  Score fragments and the dark mask are arrays.
        The block must start at the shard clock.  It is applied in
        day-aligned chunks via the columnar engine ingest, with the
        per-hour crash contract at chunk granularity: each chunk is
        journaled with one batched WAL flush, so a crash mid-chunk
        leaves every hour of that chunk out of the journal.

        *released_before* is the coordinator's acknowledged boundary
        (its clock at block entry).  A crash anywhere in the block
        rewinds the shard to it on resume, so snapshots keep the newest
        one at or below it (:meth:`CheckpointManager.maybe_snapshot`).

        *release*, when given, receives each applied chunk as
        ``release(first_hour, responses)`` before its WAL append (the
        in-process front merges and taps there).

        Kill seams fire when the armed hour falls anywhere inside the
        chunk being processed — ``mid_apply`` before the chunk is
        applied, ``mid_journal``/``post_journal`` around its WAL append.
        """
        first_hour = int(first_hour)
        clock = self.ingestor.hours_seen
        if first_hour != clock:
            raise FleetProtocolError(
                f"shard {self.shard_id} at hour {clock} was driven with "
                f"hour {first_hour}"
            )
        n_hours = int(values.shape[1])
        responses: list[dict] = []
        start = 0
        while start < n_hours:
            hour0 = first_hour + start
            stop = min(start + HOURS_PER_DAY - hour0 % HOURS_PER_DAY, n_hours)
            block = (
                values[:, start:stop, :], missing[:, start:stop, :],
                calendar_rows[start:stop],
            )
            if self.checkpoint is not None:
                self.checkpoint.maybe_snapshot(self.ingestor, retain=released_before)
            self._maybe_kill_range("mid_apply", hour0, first_hour + stop)
            ticks = self.engine.ingest_block(*block)
            try:
                chunk = []
                for j, tick in enumerate(ticks):
                    chunk.append(self._respond(tick, block[1][:, j, :]))
                if release is not None:
                    release(hour0, chunk)
            except Exception:
                # The engine applied the chunk and the front goes on
                # serving past it, so the WAL must hold it too.
                self._journal(hour0, block)
                raise
            self._maybe_kill_range("mid_journal", hour0, first_hour + stop)
            self._journal(hour0, block)
            self._maybe_kill_range("post_journal", hour0, first_hour + stop)
            responses.extend(chunk)
            start = stop
        return responses

    def _respond(self, tick, missing: np.ndarray) -> dict:
        """The response for one applied hour (*missing*: its local mask)."""
        response = self._trivial_response(tick.hour)
        if tick.day_completed:
            labels = self.ingestor.labels_daily
            hot_local = np.flatnonzero(labels[:, tick.t_day] == 1)
            response["hot"] = self.sector_ids[hot_local].tolist()
            if tick.t_day >= self.config.start_day:
                for horizon in self.config.horizons:
                    response["scores"][str(int(horizon))] = self.engine.predict(
                        int(horizon)
                    )
            response["lifecycle"] = [e for hook in self.day_hooks for e in hook(tick)]
        response["dark_new"] = [
            [int(self.sector_ids[local]), self.dark.missing_run(int(local))]
            for local in self.dark.observe(missing)
        ]
        if tick.day_completed:
            response["dark_mask"] = self.dark.dark_mask
        return response

    def _journal(self, hour0: int, block: tuple) -> None:
        if self.checkpoint is not None:
            self.checkpoint.record_block(hour0, *block)

    @staticmethod
    def _trivial_response(hour: int) -> dict:
        return {
            "hour": int(hour),
            "day_completed": (hour + 1) % HOURS_PER_DAY == 0,
            "t_day": (hour + 1) // HOURS_PER_DAY - 1,
            "hot": [],
            "scores": {},
            "dark_new": [],
            "dark_mask": [],
            "lifecycle": [],
        }

    def _maybe_kill_range(self, point: str, lo: int, hi: int) -> None:
        """Kill seam: fire when the armed hour is in [lo, hi)."""
        if self.seam_hook is not None:
            for hour in range(lo, hi):
                self.seam_hook(point, hour)
        if self.kill_at is not None and self.kill_at[0] == point:
            hour = self.kill_at[1]
            if lo <= hour < hi:
                self.kill_at = None
                raise SimulatedKill(
                    f"simulated crash: shard {self.shard_id} at {point} of "
                    f"hour {hour} (block chunk [{lo}, {hi}))"
                )

    # ------------------------------------------------------------ queries
    def ring_payload(self, hour: int):
        """Local ring rows for *hour*, or None if outside the window."""
        clock = self.ingestor.hours_seen
        if not 0 <= hour < clock or hour < clock - self.ingestor.capacity:
            return None
        slot = hour % self.ingestor.capacity
        return (
            self.ingestor.values[:, slot, :].copy(),
            self.ingestor.missing[:, slot, :].copy(),
        )

    def predict_fragment(
        self, horizon: int, model: str | None = None, window: int | None = None
    ) -> np.ndarray:
        """Local score vector for *horizon* (full slice, no top-k)."""
        return np.asarray(
            self.engine.predict(int(horizon), model=model, window=window),
            dtype=np.float64,
        )

    def stats(self) -> dict:
        snapshot = self.engine.stats()
        snapshot["shard"] = {
            "shard_id": self.shard_id,
            "n_sectors": int(self.sector_ids.size),
            "hours_seen": self.ingestor.hours_seen,
            "dark_sectors": int(self.dark.dark_mask.sum()),
        }
        return snapshot

    def close(self) -> None:
        if self.checkpoint is not None:
            self.checkpoint.close()


def build_worker(
    directory: str | Path,
    plan: PartitionPlan,
    shard_id: int,
    config: FleetConfig,
    resume_at: int | None = None,
) -> ShardWorker:
    """Construct the worker for *shard_id*, or resume it at *resume_at*.

    *resume_at* is the fleet clock: the shard is recovered to exactly
    that hour (:func:`recover_shard`) and its checkpoint directory is
    rewound there (:meth:`CheckpointManager.rewind`), so the hours it
    journaled past the clock are re-applied when the coordinator
    re-drives them.  The worker rebuilds its dark tracker from the
    recovered ring (:meth:`DarkSectorTracker.backfill_from_ring`).
    """
    shard_dir = Path(directory) / plan.shard_dir(shard_id)
    sector_ids = plan.sectors_of(shard_id)
    n_local = int(sector_ids.size)
    ingestor: StreamIngestor | None = None
    if resume_at is not None:
        ingestor = recover_shard(directory, plan, shard_id, resume_at)
        CheckpointManager.rewind(shard_dir, resume_at)
    if ingestor is None:
        ingestor = StreamIngestor(
            n_sectors=n_local,
            n_kpis=config.n_kpis,
            w_max=config.w_max,
            start_weekday=config.start_weekday,
            start_hour=config.start_hour,
            start_day_of_month=config.start_day_of_month,
        )
    checkpoint = CheckpointManager.for_ingestor(
        shard_dir, ingestor, snapshot_every=config.snapshot_every
    )
    engine = ResilientPredictionEngine(
        ingestor,
        ModelRegistry(config.registry_root),
        target=config.target,
        model=config.model,
        window=config.window,
    )
    dark = DarkSectorTracker(
        n_local, threshold_hours=config.dark_threshold_hours
    )
    return ShardWorker(
        shard_id=shard_id,
        sector_ids=sector_ids,
        config=config,
        ingestor=ingestor,
        engine=engine,
        checkpoint=checkpoint,
        dark=dark,
    )


def recover_shard(
    directory: str | Path, plan: PartitionPlan, shard_id: int, clock: int
) -> StreamIngestor | None:
    """Shard *shard_id*'s ingestor recovered to exactly the fleet *clock*.

    Read-only: a recovery bounded to *clock* (``CheckpointManager
    .recover(..., up_to_hour=clock)``).  ``None`` when the shard holds
    nothing and the clock is 0; :class:`RuntimeError` when its snapshots
    and journal do not reach the clock.
    """
    recovered = CheckpointManager.recover(
        Path(directory) / plan.shard_dir(shard_id), up_to_hour=clock
    )
    hours = 0 if recovered.ingestor is None else recovered.ingestor.hours_seen
    if hours != clock:
        raise RuntimeError(
            f"shard {shard_id} cannot be recovered to fleet clock {clock} "
            f"(journal covers {hours} hours)"
        )
    return recovered.ingestor
