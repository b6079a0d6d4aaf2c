"""Fault-tolerant serving: validation, checkpointing, degradation, chaos.

The serving stack (:mod:`repro.serve`) maintains bitwise-parity state
under the assumption of a clean, ordered, lossless telemetry feed and an
immortal process.  This package removes those assumptions:

* :mod:`repro.resilience.validate` — per-tick contract checks, bounded
  dead-letter quarantine, and Sec. II-C dark-sector tracking;
* :mod:`repro.resilience.checkpoint` — a CRC-guarded write-ahead tick
  journal plus atomic ingestor snapshots, with crash recovery that
  restores state bitwise-equal to an uninterrupted run;
* :mod:`repro.resilience.degrade` — a prediction engine that falls back
  through cached-forecast → Persist → Random instead of raising, with
  bounded retry/backoff and automatic recovery;
* :mod:`repro.resilience.guard` — the composed fault-tolerant service
  front, a one-shard fleet (validate → apply → release → journal);
* :mod:`repro.resilience.chaos` — a deterministic fault-injection
  harness (drop/duplicate/reorder/corrupt ticks, dark sectors, registry
  I/O failures) for tests and the chaos bench.
"""

from repro.resilience.chaos import (
    ChaosConfig,
    ChaosReport,
    FlakyRegistry,
    ProcessChaos,
    ProcessFault,
    chaos_stream,
    corrupt_wal_tail,
    install_process_faults,
    run_chaos_replay,
)
from repro.resilience.checkpoint import CheckpointManager, RecoveredState, TickJournal
from repro.resilience.degrade import ResilientPredictionEngine, fallback_scores
from repro.resilience.guard import ResilientHotSpotService
from repro.resilience.validate import (
    DarkSectorTracker,
    DeadLetterQueue,
    TickValidator,
    TickVerdict,
)

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "CheckpointManager",
    "DarkSectorTracker",
    "DeadLetterQueue",
    "FlakyRegistry",
    "ProcessChaos",
    "ProcessFault",
    "RecoveredState",
    "ResilientHotSpotService",
    "ResilientPredictionEngine",
    "TickJournal",
    "TickValidator",
    "TickVerdict",
    "chaos_stream",
    "corrupt_wal_tail",
    "fallback_scores",
    "install_process_faults",
    "run_chaos_replay",
]
