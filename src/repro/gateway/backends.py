"""Engine adapters: one uniform surface over the two serving stacks.

The gateway's HTTP layer speaks to a *backend* — a thin adapter that
normalises :class:`~repro.resilience.guard.ResilientHotSpotService` and
:class:`~repro.fleet.coordinator.FleetCoordinator` behind five verbs:

``submit``
    apply one tick (runs on the gateway's single ingest worker thread,
    so per-hour ordering is preserved end to end);
``install_tap``
    point the engine's pre-acknowledge event tap at the gateway's
    durable journal;
``clock``
    the engine's hour clock — also the client-facing *resume hour*: a
    client that re-POSTs its stream from here after a gateway crash
    produces zero duplicate verdicts and a bitwise-identical SSE tail;
``gauge_samples`` / ``telemetry_snapshot``
    point-in-time gauges and the counter/histogram source for
    ``GET /metrics``;
``status``
    the operator JSON for ``GET /status`` (champion + provenance and
    shadow Δ when a lifecycle controller is attached, quarantine
    depth, dark sectors, shard table with degraded/restart state).
"""

from __future__ import annotations

from repro.serve.telemetry import ServeTelemetry

__all__ = ["ResilientBackend", "FleetBackend"]


class ResilientBackend:
    """Single guarded engine, optionally with a lifecycle controller."""

    name = "resilient"

    def __init__(self, guarded, controller=None) -> None:
        self.guarded = guarded
        self.controller = controller

    def install_tap(self, tap) -> None:
        self.guarded.event_tap = tap

    @property
    def clock(self) -> int:
        return self.guarded.ingestor.hours_seen

    def submit(self, values, missing, calendar_row, hour=None) -> list[dict]:
        return self.guarded.submit_tick(values, missing, calendar_row, hour=hour)

    def telemetry_snapshot(self) -> ServeTelemetry:
        return self.guarded.telemetry

    def gauge_samples(self) -> list:
        dlq = self.guarded.dead_letters
        samples = [
            ("clock_hours", None, self.clock),
            ("dlq_depth", None, len(dlq)),
            ("dark_sectors", None, int(self.guarded.dark.dark_mask.sum())),
        ]
        if self.controller is not None:
            state = self.controller.state
            samples.append(
                ("lifecycle_champion_version", None, state.champion_version)
            )
            samples.append(
                ("lifecycle_phase", {"phase": state.phase}, 1)
            )
            samples.append(
                ("lifecycle_shadow_days", None, len(state.shadow_rows))
            )
        return samples

    def stats(self) -> dict:
        return self.guarded.stats()

    def status(self) -> dict:
        stats = self.guarded.stats()
        status = {
            "backend": self.name,
            "clock": self.clock,
            "quarantine": {
                **self.guarded.dead_letters.stats(),
                "by_reason": self.guarded.dead_letters.counts_by_reason(),
            },
            "dark_sectors": self.guarded.dark.stats(),
        }
        checkpoint = stats.get("resilience", {}).get("checkpoint")
        if checkpoint is not None:
            status["checkpoint"] = checkpoint
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
        if self.guarded.checkpoint is not None:
            self.guarded.checkpoint.close()


class FleetBackend:
    """Sharded fleet behind a coordinator (incl. supervised workers)."""

    name = "fleet"

    def __init__(self, coordinator) -> None:
        self.coordinator = coordinator

    def install_tap(self, tap) -> None:
        self.coordinator.event_tap = tap

    @property
    def clock(self) -> int:
        return self.coordinator.clock

    def submit(self, values, missing, calendar_row, hour=None) -> list[dict]:
        return self.coordinator.submit_tick(values, missing, calendar_row, hour=hour)

    def telemetry_snapshot(self) -> ServeTelemetry:
        coordinator = self.coordinator
        return coordinator.telemetry.merge(coordinator.backend.telemetries())

    def gauge_samples(self) -> list:
        coordinator = self.coordinator
        backend = coordinator.backend
        degraded = set(getattr(backend, "degraded_shards", []) or [])
        samples = [
            ("clock_hours", None, self.clock),
            ("dlq_depth", None, len(coordinator.dead_letters)),
            ("fleet_shards", None, coordinator.plan.n_shards),
            ("fleet_degraded_shards", None, len(degraded)),
        ]
        for shard_id, hours in enumerate(backend.shard_hours()):
            labels = {"shard": str(shard_id)}
            samples.append(("shard_hours", labels, hours))
            samples.append(("shard_degraded", labels, int(shard_id in degraded)))
        if hasattr(backend, "supervisor_stats"):
            supervisor = backend.supervisor_stats()
            samples.append(("worker_restarts", None, supervisor["worker_restarts"]))
            samples.append(("poison_blocks", None, supervisor["poison_blocks"]))
        return samples

    def stats(self) -> dict:
        return self.coordinator.stats()

    def status(self) -> dict:
        coordinator = self.coordinator
        stats = coordinator.stats()
        fleet = stats["fleet"]
        degraded = set(getattr(coordinator.backend, "degraded_shards", []) or [])
        shard_table = [
            {
                "shard": int(shard_id),
                "hours": int(hours),
                "degraded": shard_id in degraded,
            }
            for shard_id, hours in enumerate(coordinator.backend.shard_hours())
        ]
        status = {
            "backend": self.name,
            "clock": self.clock,
            "fleet": {
                "n_shards": fleet["n_shards"],
                "generation": fleet["generation"],
                "backend": fleet["backend"],
                "shards": shard_table,
            },
            "quarantine": {
                **coordinator.dead_letters.stats(),
                "by_reason": coordinator.dead_letters.counts_by_reason(),
            },
        }
        if "supervisor" in fleet:
            status["fleet"]["supervisor"] = fleet["supervisor"]
        return status

    def close(self) -> None:
        self.coordinator.close()
