"""The engine adapter: one uniform surface over every serving front.

The gateway's HTTP layer speaks to a *backend* — a thin adapter over a
:class:`~repro.fleet.coordinator.FleetCoordinator`: the guarded single
engine (:class:`~repro.resilience.guard.ResilientHotSpotService`, the
coordinator over one in-process shard) or a sharded fleet.  One
:class:`ResilientBackend` adapts either behind five verbs:

``submit``
    apply one tick (runs on the gateway's single ingest worker thread,
    so per-hour ordering is preserved end to end);
``install_tap``
    point the front's pre-acknowledge event tap at the gateway's
    durable journal;
``clock``
    the front's hour clock — also the client-facing *resume hour*: a
    client that re-POSTs its stream from here after a gateway crash
    produces zero duplicate verdicts and a bitwise-identical SSE tail;
``gauge_samples`` / ``telemetry_snapshot``
    point-in-time gauges and the counter/histogram source for
    ``GET /metrics``;
``status``
    the operator JSON for ``GET /status`` (champion + provenance and
    shadow Δ when a lifecycle controller is attached, quarantine
    depth, dark sectors and checkpoint of a guarded engine, shard
    table with degraded/restart state of a fleet).
"""

from __future__ import annotations

from repro.fleet.coordinator import LocalBackend
from repro.serve.telemetry import ServeTelemetry

__all__ = ["ResilientBackend"]


class ResilientBackend:
    """A guarded engine or a fleet, optionally with a lifecycle controller."""

    def __init__(self, front, controller=None) -> None:
        self.front = front
        self.controller = controller
        #: The fleet's shard backend (serial or supervised); ``None``
        #: for the guarded single engine, whose one in-process worker
        #: shares the front's telemetry and reports its own dark sectors.
        self.shards = None if isinstance(front.backend, LocalBackend) else front.backend
        self.name = "resilient" if self.shards is None else "fleet"

    def install_tap(self, tap) -> None:
        self.front.event_tap = tap

    @property
    def clock(self) -> int:
        return self.front.clock

    def submit(self, values, missing, calendar_row, hour=None) -> list[dict]:
        return self.front.submit_tick(values, missing, calendar_row, hour=hour)

    def telemetry_snapshot(self) -> ServeTelemetry:
        if self.shards is None:
            return self.front.telemetry
        return self.front.telemetry.merge(self.shards.telemetries())

    def _shard_rows(self) -> list[dict]:
        degraded = set(getattr(self.shards, "degraded_shards", []))
        return [
            {"shard": shard_id, "hours": int(hours), "degraded": shard_id in degraded}
            for shard_id, hours in enumerate(self.shards.shard_hours())
        ]

    def gauge_samples(self) -> list:
        samples = [
            ("clock_hours", None, self.clock),
            ("dlq_depth", None, len(self.front.dead_letters)),
        ]
        if self.shards is None:
            samples.append(
                ("dark_sectors", None, int(self.front.dark.dark_mask.sum()))
            )
        else:
            rows = self._shard_rows()
            samples.append(("fleet_shards", None, self.front.plan.n_shards))
            samples.append(
                ("fleet_degraded_shards", None, sum(row["degraded"] for row in rows))
            )
            for row in rows:
                labels = {"shard": str(row["shard"])}
                samples.append(("shard_hours", labels, row["hours"]))
                samples.append(("shard_degraded", labels, int(row["degraded"])))
            if hasattr(self.shards, "supervisor_stats"):
                supervisor = self.shards.supervisor_stats()
                samples.append(("worker_restarts", None, supervisor["worker_restarts"]))
                samples.append(("poison_blocks", None, supervisor["poison_blocks"]))
        if self.controller is not None:
            state = self.controller.state
            samples.append(
                ("lifecycle_champion_version", None, state.champion_version)
            )
            samples.append(("lifecycle_phase", {"phase": state.phase}, 1))
            samples.append(
                ("lifecycle_shadow_days", None, len(state.shadow_rows))
            )
        return samples

    def status(self) -> dict:
        stats = self.front.stats()
        dead_letters = self.front.dead_letters
        status = {
            "backend": self.name,
            "clock": self.clock,
            "quarantine": {
                **dead_letters.stats(),
                "by_reason": dead_letters.counts_by_reason(),
            },
        }
        if self.shards is None:
            status["dark_sectors"] = self.front.dark.stats()
            checkpoint = stats["resilience"].get("checkpoint")
            if checkpoint is not None:
                status["checkpoint"] = checkpoint
        else:
            fleet = stats["fleet"]
            status["fleet"] = {
                "n_shards": fleet["n_shards"],
                "generation": fleet["generation"],
                "backend": fleet["backend"],
                "shards": self._shard_rows(),
            }
            if "supervisor" in fleet:
                status["fleet"]["supervisor"] = fleet["supervisor"]
        if self.controller is not None:
            lifecycle = self.controller.status()
            status["lifecycle"] = {
                "phase": lifecycle["phase"],
                "champion": lifecycle["champion"],
                "shadow": lifecycle["shadow"],
                "drift_checks": lifecycle["drift_checks"],
            }
        return status

    def close(self) -> None:
        self.front.close()
