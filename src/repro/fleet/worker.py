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
event stream.  The guarded service is the one-shard case: one
in-process worker that owns every sector.

Crash consistency per day chunk of a block — a tick is a one-hour
block — (apply → journal → acknowledge):

1. ``maybe_snapshot`` — snapshot boundaries land *between* chunks;
2. apply — engine ingest, fragment computation, day hooks (the guard's
   lifecycle controller commits ``lifecycle.json`` first, DESIGN.md 3e),
   dark-tracker update;
3. persist the response into ``last_events.json`` (atomic, only when
   the response is non-trivial — the empty ⇔ not-persisted invariant;
   the file holds every non-trivial response since the coordinator's
   acknowledged boundary, so mid-block crashes re-emit faithfully),
   or, for the guard's worker, release the chunk's events;
4. journal the chunk into the WAL (one flushed append, the commit
   point; a worker without a checkpoint skips it and step 1).

A worker killed anywhere in that sequence recovers to a state from
which re-driving the same hours yields the identical responses: before
step 4 the chunk is simply re-applied; after step 4 the worker re-emits
the persisted response (or reconstructs the trivial one) without
touching state.  :attr:`ShardWorker.kill_at` injects
:class:`SimulatedKill` at the three seams for the kill-point suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data.store import write_json_atomic
from repro.data.tensor import HOURS_PER_DAY, HOURS_PER_WEEK
from repro.fleet.partition import PartitionPlan
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.degrade import ResilientPredictionEngine
from repro.resilience.validate import DarkSectorTracker
from repro.serve.ingest import StreamIngestor
from repro.serve.registry import ModelRegistry
from repro.serve.service import ServeConfig

__all__ = [
    "EVENTS_NAME",
    "FleetConfig",
    "FleetProtocolError",
    "ShardWorker",
    "SimulatedKill",
    "build_worker",
    "load_responses",
]

#: Per-shard file holding the non-trivial responses of the current
#: unacknowledged window, keyed by hour (``{"hours": {hour: response}}``).
EVENTS_NAME = "last_events.json"

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

    Of *config* only ``horizons`` and ``start_day`` are read, so the
    guarded service passes its ``ServeConfig``.
    """

    def __init__(
        self,
        shard_id: int,
        sector_ids: np.ndarray,
        config: FleetConfig | ServeConfig,
        ingestor: StreamIngestor,
        engine: ResilientPredictionEngine,
        checkpoint: CheckpointManager | None,
        dark: DarkSectorTracker,
        events_path: Path | None = None,
        responses: dict | None = None,
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
        #: forecasts (the guarded service shares its own hook list).
        self.day_hooks = []
        self._events_path = events_path
        self._responses: dict[int, dict] = dict(responses or {})
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
        a one-hour block.  Score fragments and the dark mask are arrays
        (lists once reloaded from the response store).  Hours below the
        shard clock re-emit (the post-journal crash window covers whole
        journaled chunks after a mid-block crash); the remainder is
        applied in day-aligned chunks via the columnar engine ingest,
        with the per-hour crash contract at chunk granularity: persist
        every non-trivial response of the chunk, then journal the whole
        chunk with one batched WAL flush.  A crash mid-chunk leaves
        every hour of that chunk out of the journal, so the coordinator
        re-drives the chunk from its first hour on resume.

        *released_before* is the coordinator's acknowledged boundary
        (its watermark at block entry): persisted responses at or past
        it must survive this call's persists, because a crash anywhere
        in the block re-drives from that boundary and every non-trivial
        hour since then must re-emit faithfully — not collapse to the
        trivial response.  When ``None`` (direct single-call use) the
        block's own first hour is the boundary.

        *release*, when given, replaces the response store: each
        applied chunk goes to ``release(first_hour, responses)`` before
        its WAL append (the guarded service merges and taps there).

        Kill seams fire when the armed hour falls anywhere inside the
        chunk being processed — ``mid_apply`` before the chunk is
        applied, ``mid_journal``/``post_journal`` around its WAL append.
        """
        keep_from = int(first_hour if released_before is None else released_before)
        first_hour = int(first_hour)
        n_hours = int(values.shape[1])
        clock = self.ingestor.hours_seen
        responses: list[dict] = []
        start = 0
        while start < n_hours and first_hour + start < clock:
            responses.append(self._reemit(first_hour + start))
            start += 1
        if start == n_hours:
            return responses
        if first_hour + start != clock:
            raise FleetProtocolError(
                f"shard {self.shard_id} at hour {clock} was driven with "
                f"hour {first_hour + start}"
            )
        while start < n_hours:
            hour0 = first_hour + start
            to_boundary = HOURS_PER_DAY - hour0 % HOURS_PER_DAY
            stop = min(start + to_boundary, n_hours)
            if self.checkpoint is not None:
                self.checkpoint.maybe_snapshot(self.ingestor)
            self._maybe_kill_range("mid_apply", hour0, first_hour + stop)
            ticks = self.engine.ingest_block(
                values[:, start:stop, :],
                missing[:, start:stop, :],
                calendar_rows[start:stop],
            )
            chunk: list[dict] = []
            for j, tick in enumerate(ticks):
                response = self._trivial_response(hour0 + j)
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
                    for local in self.dark.observe(missing[:, start + j, :])
                ]
                if tick.day_completed:
                    response["dark_mask"] = self.dark.dark_mask
                chunk.append(response)
            if release is not None:
                release(hour0, chunk)
            else:
                fresh = {
                    hour0 + j: response
                    for j, response in enumerate(chunk)
                    if self._nontrivial(response)
                }
                if fresh:
                    self._persist_responses(fresh, keep_from=keep_from)
            self._maybe_kill_range("mid_journal", hour0, first_hour + stop)
            if self.checkpoint is not None:
                self.checkpoint.record_block(
                    hour0,
                    values[:, start:stop, :],
                    missing[:, start:stop, :],
                    calendar_rows[start:stop],
                )
            self._maybe_kill_range("post_journal", hour0, first_hour + stop)
            responses.extend(chunk)
            start = stop
        return responses

    def _reemit(self, hour: int) -> dict:
        """Response for an hour already journaled by this shard.

        Non-trivial responses were persisted *before* the journal append
        (the empty ⇔ not-persisted invariant), so a journaled hour with
        no persisted record was trivial — reconstruct it.  The store
        covers every hour since the coordinator's acknowledged boundary;
        hours older than that only occur when the coordinator replays a
        window the consumer already saw (at-most-once delivery,
        DESIGN.md 3f), and re-emit as trivial.
        """
        persisted = self._responses.get(int(hour))
        if persisted is not None:
            return persisted
        return self._trivial_response(hour)

    def _persist_responses(self, fresh: dict, keep_from: int) -> None:
        """Atomically persist non-trivial responses for the re-emit path.

        The coordinator acknowledges nothing until its whole block
        returns, so entries at or past *keep_from* — the acknowledged
        boundary — survive later chunks' persists; older ones are
        pruned.
        """
        store = {h: r for h, r in self._responses.items() if h >= int(keep_from)}
        store.update({int(h): r for h, r in fresh.items()})
        self._responses = store
        if self._events_path is not None:
            write_json_atomic(
                self._events_path,
                {"hours": {str(h): _jsonable(store[h]) for h in sorted(store)}},
            )

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

    @staticmethod
    def _nontrivial(response: dict) -> bool:
        return bool(
            response["day_completed"]
            or response["dark_new"]
            or response["lifecycle"]
        )

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
    resume: bool = False,
) -> ShardWorker:
    """Construct (or recover) the worker for *shard_id*.

    With ``resume`` the shard's checkpoint directory is replayed
    (snapshot + WAL), so the worker rebuilds its dark tracker from the
    recovered ring (:meth:`DarkSectorTracker.backfill_from_ring`), and
    the last persisted response is reloaded for the re-emit path.
    """
    shard_dir = Path(directory) / plan.shard_dir(shard_id)
    sector_ids = plan.sectors_of(shard_id)
    n_local = int(sector_ids.size)
    ingestor: StreamIngestor | None = None
    if resume:
        recovered = CheckpointManager.recover(shard_dir)
        ingestor = recovered.ingestor
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
    events_path = shard_dir / EVENTS_NAME
    responses = load_responses(events_path) if resume else {}
    return ShardWorker(
        shard_id=shard_id,
        sector_ids=sector_ids,
        config=config,
        ingestor=ingestor,
        engine=engine,
        checkpoint=checkpoint,
        dark=dark,
        events_path=events_path,
        responses=responses,
    )


def load_responses(path: Path) -> dict[int, dict]:
    """Hour → persisted response, read from a shard's response store.

    ``{}`` when the store is absent.  The pre-block layout held a single
    response (``{"hour": h, ...}``) and still reads.
    """
    if not path.exists():
        return {}
    payload = json.loads(path.read_text(encoding="utf-8"))
    if "hours" in payload:
        return {int(h): r for h, r in payload["hours"].items()}
    if "hour" in payload:  # pre-block single-response layout
        return {int(payload["hour"]): payload}
    return {}


def _jsonable(response: dict) -> dict:
    """*response* with its score fragments and dark mask as JSON lists."""
    return {
        **response,
        "scores": {h: np.asarray(s).tolist() for h, s in response["scores"].items()},
        "dark_mask": np.asarray(response["dark_mask"]).tolist(),
    }

