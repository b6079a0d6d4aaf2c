"""Deterministic sector → shard assignment for the serving fleet.

The fleet's partitioning contract (DESIGN.md 3f) has three parts:

* **stable hashing** — a sector's home shard is a pure function of the
  sector id and the shard count (:func:`sector_shard`, CRC32 of a
  canonical token), so two processes computing the assignment always
  agree without coordination;
* **explicit persistence** — the computed assignment is materialised as
  a :class:`PartitionPlan` and persisted next to the shard checkpoints
  (``partition.json``), so recovery routes every journaled tick to the
  shard that owns its rows even if the hash function ever changes;
* **generations** — when the shard count changes between runs,
  :func:`~repro.fleet.recovery.reshard` computes the next-generation
  plan, gathers every shard's ingestor state row-wise and scatters it
  by the new plan.

Assignments are near-balanced by the hash; shards that come out empty
(possible at tiny sector counts) are repaired deterministically by
moving the highest-index sector off the currently largest shard, so a
plan never contains a shard with nothing to do.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data.store import write_json_atomic

__all__ = ["PARTITION_NAME", "PartitionPlan", "sector_shard"]

#: File the active plan is persisted to inside the fleet directory.
PARTITION_NAME = "partition.json"


def sector_shard(sector: int, n_shards: int) -> int:
    """Stable home shard for *sector* under *n_shards* shards.

    CRC32 of a canonical ``sector:<id>`` token, reduced modulo the shard
    count — platform- and process-independent, like the sweep's cell
    seeds (DESIGN.md section on derived randomness).
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return zlib.crc32(f"sector:{int(sector)}".encode("ascii")) % n_shards


@dataclass(frozen=True)
class PartitionPlan:
    """A persisted sector → shard assignment table.

    Attributes
    ----------
    n_sectors, n_shards:
        Global shape of the fleet.
    generation:
        Monotone reshard counter.  Each reshard bumps it, and shard
        checkpoint directories are namespaced by it
        (:meth:`shard_dir`), so a crashed reshard can never mix old- and
        new-generation WAL segments.
    assignment:
        ``(n_sectors,)`` int64 array; ``assignment[s]`` is the shard
        owning sector ``s``.
    """

    n_sectors: int
    n_shards: int
    generation: int
    assignment: np.ndarray

    # ------------------------------------------------------------ compute
    @classmethod
    def compute(
        cls, n_sectors: int, n_shards: int, generation: int = 0
    ) -> "PartitionPlan":
        """The deterministic plan for *n_sectors* over *n_shards*."""
        if n_sectors < 1:
            raise ValueError(f"n_sectors must be >= 1, got {n_sectors}")
        if not 1 <= n_shards <= n_sectors:
            raise ValueError(
                f"n_shards must be in [1, {n_sectors} sectors], got {n_shards}"
            )
        if generation < 0:
            raise ValueError(f"generation must be >= 0, got {generation}")
        assignment = np.array(
            [sector_shard(sector, n_shards) for sector in range(n_sectors)],
            dtype=np.int64,
        )
        # Deterministic empty-shard repair: every shard must own at least
        # one sector or its worker would journal an empty-width WAL.  Move
        # the highest-index sector off the currently largest shard (ties:
        # lowest shard id) onto the lowest empty shard, repeating until
        # no shard is empty — pure function of (n_sectors, n_shards).
        counts = np.bincount(assignment, minlength=n_shards)
        while (counts == 0).any():
            empty = int(np.flatnonzero(counts == 0)[0])
            donor = int(np.argmax(counts))
            mover = int(np.flatnonzero(assignment == donor)[-1])
            assignment[mover] = empty
            counts[donor] -= 1
            counts[empty] += 1
        return cls(
            n_sectors=n_sectors,
            n_shards=n_shards,
            generation=generation,
            assignment=assignment,
        )

    # ------------------------------------------------------------ queries
    def sectors_of(self, shard: int) -> np.ndarray:
        """Global sector ids owned by *shard*, ascending."""
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard {shard} outside [0, {self.n_shards})")
        return np.flatnonzero(self.assignment == shard)

    def counts(self) -> np.ndarray:
        """Sectors per shard, shape ``(n_shards,)``."""
        return np.bincount(self.assignment, minlength=self.n_shards)

    def shard_dir(self, shard: int) -> str:
        """Generation-scoped checkpoint directory name for *shard*."""
        return f"g{self.generation:04d}-shard-{shard:04d}"

    # -------------------------------------------------------- persistence
    def save(self, directory: str | Path) -> Path:
        """Atomically persist this plan as ``partition.json``.

        The write is the reshard's commit point: recovery trusts
        whatever generation the file names, so it must flip from old to
        new plan atomically (temp file + ``os.replace`` via
        :func:`~repro.data.store.write_json_atomic`).
        """
        path = Path(directory) / PARTITION_NAME
        write_json_atomic(
            path,
            {
                "n_sectors": self.n_sectors,
                "n_shards": self.n_shards,
                "generation": self.generation,
                "assignment": [int(s) for s in self.assignment],
            },
        )
        return path

    @classmethod
    def load(cls, directory: str | Path) -> "PartitionPlan":
        """Load the persisted plan from *directory* (raises if absent)."""
        path = Path(directory) / PARTITION_NAME
        payload = json.loads(path.read_text(encoding="utf-8"))
        assignment = np.asarray(payload["assignment"], dtype=np.int64)
        plan = cls(
            n_sectors=int(payload["n_sectors"]),
            n_shards=int(payload["n_shards"]),
            generation=int(payload["generation"]),
            assignment=assignment,
        )
        if assignment.shape != (plan.n_sectors,):
            raise ValueError(
                f"partition table covers {assignment.size} sectors, "
                f"header says {plan.n_sectors}"
            )
        if assignment.size and not (
            (0 <= assignment) & (assignment < plan.n_shards)
        ).all():
            raise ValueError("partition table references out-of-range shards")
        return plan

