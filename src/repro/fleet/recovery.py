"""Fleet-wide crash recovery, including reshard (shard-count changes).

:func:`recover_fleet` is the one entry point: given the fleet directory
and its config it reloads the persisted partition plan, rebuilds every
shard worker from its own snapshot + WAL, computes the resume clock
from the watermark protocol (:func:`~repro.fleet.coordinator
.recovered_clock`), and returns a coordinator whose continued merged
stream is bitwise identical to the uninterrupted run — no matter which
worker or the coordinator was killed, at any point.

When the requested shard count differs from the persisted plan,
:func:`reshard` re-partitions first:

1. every old-generation shard is recovered *bounded* to the fleet clock
   (``CheckpointManager.recover(..., up_to_hour=clock)``), so shards
   that had journaled an in-flight hour the fleet never acknowledged
   all land on the same state;
2. the shards' ingestor states are gathered row-wise into one global
   state (every per-sector array has the sector on axis 0; the calendar
   ring and the meta are shard-independent, taken from shard 0);
3. the new plan (generation + 1) scatters the rows into fresh shard
   ingestors, each snapshotted into its *new-generation* directory —
   old-generation files are never touched;
4. the new plan is committed by atomically replacing
   ``partition.json`` — the single commit point.  A crash anywhere
   before it leaves the old plan in force and the reshard simply
   re-runs; a crash after it finds complete new-generation checkpoints.
   Only then is the old generation pruned (best effort).

Reshard is refused for lifecycle fleets: per-shard controllers own
versioned registries and drift state bound to their sector slice, and
that state has no well-defined row-wise re-partition.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from repro.data.store import write_json_atomic
from repro.fleet.coordinator import (
    WATERMARK_NAME,
    FleetCoordinator,
    build_fleet,
    recovered_clock,
)
from repro.fleet.partition import PartitionPlan
from repro.fleet.worker import FleetConfig
from repro.resilience.checkpoint import (
    CheckpointManager,
    TickJournal,
    load_newest_snapshot,
)
from repro.serve.ingest import StreamIngestor

__all__ = ["journal_clock", "recover_fleet", "reshard"]


def journal_clock(directory: str | Path) -> int:
    """Durable hour count recoverable from a shard checkpoint directory.

    The newest *readable* snapshot's hour plus the contiguous run of
    journal records on top of it — exactly the ``hours_seen`` a
    :meth:`CheckpointManager.recover` of the directory would restore.
    The snapshot is judged by the same loader ``recover`` uses, so a
    snapshot with a corrupt member counts for neither; the journal
    records on top are counted, not replayed.  The fleet supervisor uses
    it to find where a dead shard's durable state ends, so degraded-mode
    spooling appends precisely the hours the shard is missing.
    """
    directory = Path(directory)
    snapshot = load_newest_snapshot(directory)
    clock = 0 if snapshot is None else snapshot.hours_seen
    hours: set[int] = set()
    for segment in sorted(directory.glob("wal-*.log")):
        try:
            for hour, _values, _missing, _calendar in TickJournal.read_records(
                segment
            ):
                hours.add(hour)
        except ValueError:
            continue  # foreign or headerless file
    while clock in hours:
        clock += 1
    return clock


def recover_fleet(
    directory: str | Path,
    config: FleetConfig,
    n_shards: int | None = None,
    supervise=None,
    chaos=None,
    on_event=None,
) -> FleetCoordinator:
    """Resume the fleet persisted in *directory*.

    ``n_shards`` requests a different shard count (triggering
    :func:`reshard`); ``None`` keeps the persisted plan.  ``supervise``
    / ``chaos`` / ``on_event`` select and configure the self-healing
    backend exactly as in :func:`~repro.fleet.coordinator.build_fleet`.
    """
    directory = Path(directory)
    plan = PartitionPlan.load(directory)
    target = plan.n_shards if n_shards is None else int(n_shards)
    if target != plan.n_shards:
        plan = reshard(directory, config, plan, target)
    return build_fleet(
        directory, config, plan.n_shards, resume=True, plan=plan,
        supervise=supervise, chaos=chaos, on_event=on_event,
    )


def reshard(
    directory: Path,
    config: FleetConfig,
    old_plan: PartitionPlan,
    n_shards: int,
) -> PartitionPlan:
    """Re-partition the fleet's persisted state onto *n_shards* shards."""
    if config.lifecycle is not None:
        raise ValueError(
            "cannot reshard a lifecycle fleet: per-shard controllers hold "
            "versioned registries and drift state that have no row-wise "
            "re-partition; retire the fleet cleanly and retrain instead"
        )
    ingestors = _recover_old_shards(directory, old_plan)
    clock = recovered_clock(directory, [i.hours_seen for i in ingestors])
    for shard, ingestor in enumerate(ingestors):
        if ingestor.hours_seen != clock:
            bounded = CheckpointManager.recover(
                directory / old_plan.shard_dir(shard), up_to_hour=clock
            )
            if bounded.ingestor is None or bounded.ingestor.hours_seen != clock:
                raise RuntimeError(
                    f"shard {shard} cannot be recovered to fleet clock {clock} "
                    f"(journal covers "
                    f"{0 if bounded.ingestor is None else bounded.ingestor.hours_seen} "
                    "hours)"
                )
            ingestors[shard] = bounded.ingestor
    meta, global_arrays = _gather(old_plan, ingestors)
    new_plan = PartitionPlan.compute(
        old_plan.n_sectors, n_shards, generation=old_plan.generation + 1
    )
    for shard in range(new_plan.n_shards):
        ids = new_plan.sectors_of(shard)
        arrays = {
            key: (array.copy() if key == "calendar" else array[ids])
            for key, array in global_arrays.items()
        }
        ingestor = StreamIngestor.from_state({"meta": meta, "arrays": arrays})
        shard_dir = directory / new_plan.shard_dir(shard)
        if shard_dir.exists():
            # Leftovers of a reshard that crashed before its commit
            # point; the whole generation is rebuilt from scratch.
            shutil.rmtree(shard_dir)
        manager = CheckpointManager.for_ingestor(
            shard_dir, ingestor, snapshot_every=config.snapshot_every
        )
        try:
            manager.snapshot(ingestor)
        finally:
            manager.close()
    write_json_atomic(directory / WATERMARK_NAME, {"emitted_hours": clock})
    new_plan.save(directory)  # commit point: recovery now sees the new generation
    for shard in range(old_plan.n_shards):
        shutil.rmtree(
            directory / old_plan.shard_dir(shard), ignore_errors=True
        )
    return new_plan


def _recover_old_shards(
    directory: Path, plan: PartitionPlan
) -> list[StreamIngestor]:
    ingestors: list[StreamIngestor] = []
    for shard in range(plan.n_shards):
        recovered = CheckpointManager.recover(directory / plan.shard_dir(shard))
        if recovered.ingestor is None:
            raise FileNotFoundError(
                f"no checkpoint state for shard {shard} under "
                f"{directory / plan.shard_dir(shard)}"
            )
        ingestors.append(recovered.ingestor)
    return ingestors


def _gather(
    plan: PartitionPlan, ingestors: list[StreamIngestor]
) -> tuple[dict, dict]:
    """Assemble the shards' ingestor states into one global state dict.

    Every state array is per-sector on axis 0 except the shared
    ``calendar`` ring; the meta block (clock, capacity, anchors, score
    config) is identical across shards once they are recovered to the
    same hour.  Both are taken from shard 0 and the per-sector rows are
    scattered by each shard's sector ids.
    """
    states = [ingestor.state_dict() for ingestor in ingestors]
    meta = states[0]["meta"]
    global_arrays: dict[str, np.ndarray] = {}
    for key, array in states[0]["arrays"].items():
        if key == "calendar":
            global_arrays[key] = array.copy()
        else:
            global_arrays[key] = np.empty(
                (plan.n_sectors,) + array.shape[1:], dtype=array.dtype
            )
    for shard, state in enumerate(states):
        ids = plan.sectors_of(shard)
        for key, array in state["arrays"].items():
            if key != "calendar":
                global_arrays[key][ids] = array
    return meta, global_arrays
