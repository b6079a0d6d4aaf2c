"""repro.fleet — shard-capable serving: partition, route, merge, recover.

The single-engine serve path (:mod:`repro.serve`, hardened by
:mod:`repro.resilience`) scales up here without giving up any of its
guarantees:

* :mod:`repro.fleet.partition` — deterministic sector → shard
  assignment, persisted with the checkpoints, diffable into rebalance
  plans;
* :mod:`repro.fleet.worker` — one shard's engine + WAL + dark tracker,
  crash-consistent per tick;
* :mod:`repro.fleet.coordinator` — the one admission front: global
  validation, tick routing and the deterministic merge, over one
  in-process worker (the guarded single engine), in-process shards
  (the serial backend) or shards forked by the supervisor;
* :mod:`repro.fleet.recovery` — fleet-wide crash recovery and
  reshard (shard-count changes between runs), resuming to a
  bitwise-identical continuation of the merged stream;
* :mod:`repro.fleet.supervisor` — the forked backend, one host process
  per shard: per-shard heartbeats, live restart-with-recovery,
  poison-block quarantine, and degraded-shard serving through the
  fallback ladder.
"""

from repro.fleet.coordinator import (
    WATERMARK_NAME,
    FleetCoordinator,
    SerialBackend,
    build_fleet,
    recovered_clock,
)
from repro.fleet.partition import (
    PARTITION_NAME,
    PartitionPlan,
    rebalance_moves,
    sector_shard,
)
from repro.fleet.recovery import journal_clock, recover_fleet, reshard
from repro.fleet.supervisor import FleetSupervisor, SupervisorConfig
from repro.fleet.worker import (
    FleetConfig,
    FleetProtocolError,
    ShardWorker,
    SimulatedKill,
    build_worker,
)

__all__ = [
    "FleetConfig",
    "FleetCoordinator",
    "FleetProtocolError",
    "FleetSupervisor",
    "PARTITION_NAME",
    "PartitionPlan",
    "SerialBackend",
    "ShardWorker",
    "SimulatedKill",
    "SupervisorConfig",
    "WATERMARK_NAME",
    "build_fleet",
    "build_worker",
    "journal_clock",
    "rebalance_moves",
    "recover_fleet",
    "recovered_clock",
    "reshard",
    "sector_shard",
]
