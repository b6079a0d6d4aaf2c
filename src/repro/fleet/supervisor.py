"""Self-healing fleet backend: heartbeats, live restart, degraded shards.

:class:`FleetSupervisor` is the fleet's only forked backend (DESIGN.md
3h): it runs **one host process per shard** and survives that process
dying or hanging mid-stream; the in-process
:class:`~repro.fleet.coordinator.SerialBackend` is the other backend.
Payloads travel over the pipe itself (no shared-memory broadcast): each
shard's request is self-contained, so the supervisor can re-send it
verbatim to a respawned worker — the price is a pickle per request, the
prize is restartability.

Every backend call is one **request round** in two phases, so the
shards work at the same time:

* **send** — each live shard gets its request in shard order; a
  degraded shard first attempts its rejoin (below);
* **gather** — in shard order, each reply is awaited under the
  liveness rules below.  A shard's deadline starts when the gather
  reaches it, so it gets at least the full window after every earlier
  shard's reply, never less than if the shards ran one at a time.

Responses are merged in shard order and in-stream events ride on their
own shard's response, so the merged stream does not depend on which
shard finished first.  The liveness rules for one reply:

* the reply is awaited under a ``heartbeat_secs`` deadline; a worker
  that is *alive* but silent past it is **slow** — the deadline doubles
  for up to two patience windows (each one a counted
  ``heartbeat_timeout``) before the worker is declared **hung** and
  SIGKILLed onto the dead path;
* a worker whose process exited (or whose pipe broke) is **dead**
  immediately — no patience windows.

Dead workers go through **restart-with-recovery**: respawn the host
resumed at the coordinator's clock, which is the in-flight request's
first hour (snapshot + WAL replay bounded to it, and the shard
directory rewound there, via :func:`~repro.fleet.worker.build_worker`),
then re-send the request unchanged.  Hours the dead worker journaled
are re-applied, and responses are deterministic functions of the
journaled ticks, so the re-driven request returns a bitwise-identical
response and a within-budget recovery is invisible in the merged
stream — restart bookkeeping is reported *out of stream* (telemetry +
``on_event``), not as JSONL events.

Two conditions end the restart loop:

* **poison**: ``poison_threshold`` consecutive deaths on the *same*
  request quarantine it — the offending payload goes to the
  coordinator's dead-letter queue, the worker is respawned, and the
  shard's rows are re-driven as all-missing (the same synthesis a gap
  fill uses), with an in-stream ``poison_block`` event;
* **budget**: more than ``max_restarts`` consecutive deaths (the
  counter resets on any successful response) put the shard in
  **degraded mode** — an in-stream ``shard_degraded`` event fires, and
  until a restart succeeds the supervisor serves the shard itself:
  the shard directory is rewound to the fleet clock and ticks are
  *spooled* into the shard's own WAL from there (so full-fleet recovery
  and a later rejoin see an unbroken journal), score fragments come
  from the shared degradation ladder
  (:func:`~repro.resilience.degrade.fallback_scores`: last good
  fragment → seeded random; the Persist rung needs ring state, which
  died with the worker), and the shard's sectors are dark-masked so
  merged alerts never claim knowledge of them.  Every tick block's
  send phase first attempts a rejoin; when the respawn recovers
  through the spooled WAL to the fleet clock, the next successful
  response emits ``shard_recovered`` and the stream is back on the
  baseline — bitwise, because the spool holds the true validated rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data.store import write_json_atomic
from repro.data.tensor import HOURS_PER_DAY
from repro.fleet.partition import PartitionPlan
from repro.fleet.worker import FleetConfig, ShardWorker, build_worker
from repro.parallel.pool import PoolUnavailable
from repro.resilience.chaos import (
    ProcessChaos,
    corrupt_wal_tail,
    install_process_faults,
)
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.degrade import fallback_scores
from repro.serve.telemetry import ServeTelemetry

__all__ = ["STATE_NAME", "FleetSupervisor", "SupervisorConfig"]

#: Fleet-level supervisor status file (restart counts, degraded shards),
#: written atomically on every supervision transition and at close.
STATE_NAME = "supervisor.json"

#: Doubled patience windows granted to a slow-but-alive worker before
#: it is declared hung.
_SLOW_RETRIES = 2

#: Seed of the random rung of degraded-shard score fragments.
_FALLBACK_SEED = 0


@dataclass(frozen=True)
class SupervisorConfig:
    """Liveness and recovery policy for :class:`FleetSupervisor`.

    Parameters
    ----------
    heartbeat_secs:
        Base reply deadline per request.  Workers silent past it while
        still alive get two exponentially doubled patience windows
        before being declared hung.
    max_restarts:
        Consecutive-death restart budget per shard (reset by any
        successful response).  ``0`` degrades on the first death.
    poison_threshold:
        Consecutive deaths on the *same* request that quarantine it as
        a poison block instead of burning the whole budget.  Detection
        requires the budget to allow at least this many deliveries.
    """

    heartbeat_secs: float = 5.0
    max_restarts: int = 3
    poison_threshold: int = 2

    def __post_init__(self) -> None:
        if self.heartbeat_secs <= 0:
            raise ValueError(
                f"heartbeat_secs must be > 0, got {self.heartbeat_secs}"
            )
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.poison_threshold < 1:
            raise ValueError(
                f"poison_threshold must be >= 1, got {self.poison_threshold}"
            )


def _shard_host_main(conn, directory, plan, config, shard_id, resume_at, chaos):
    """Supervised child: host exactly one shard worker over a pipe.

    Payload arrays arrive *in* the request (no shared memory), so the
    parent can replay a request verbatim after respawning this process
    resumed at the fleet clock *resume_at*.
    """
    try:
        worker = build_worker(Path(directory), plan, shard_id, config, resume_at=resume_at)
        if chaos is not None:
            install_process_faults(worker, chaos)
        conn.send(("hello", worker.ingestor.hours_seen))
    except Exception as error:  # noqa: BLE001 - report, then die
        try:
            conn.send(("fatal", f"{type(error).__name__}: {error}"))
        except OSError:
            pass
        return
    try:
        while True:
            try:
                request = conn.recv()
            except EOFError:
                break
            op = request[0]
            try:
                if op == "tick_block":
                    _, first_hour, values, missing, rows, released = request
                    payload = worker.submit_block(
                        first_hour, values, missing, rows,
                        released_before=released,
                    )
                elif op == "ring":
                    payload = worker.ring_payload(request[1])
                elif op == "predict":
                    _, horizon, model, window = request
                    payload = worker.predict_fragment(
                        horizon, model=model, window=window
                    )
                elif op == "stats":
                    payload = worker.stats()
                elif op == "telemetry":
                    payload = worker.engine.telemetry
                elif op == "close":
                    worker.close()
                    conn.send(("ok", None))
                    break
                else:
                    raise ValueError(f"unknown supervised fleet op {op!r}")
                conn.send(("ok", payload))
            except Exception as error:  # noqa: BLE001 - relay to the parent
                conn.send(("err", f"{type(error).__name__}: {error}"))
    finally:
        try:
            worker.checkpoint.close()
        except Exception:  # noqa: BLE001 - exiting anyway
            pass


class _ShardHost:
    """Parent-side record of one supervised shard host process."""

    def __init__(self, shard_id: int, n_local: int) -> None:
        self.shard_id = shard_id
        self.n_local = n_local
        self.process = None
        self.conn = None
        self.hours = 0  # clock: its last hello, then each block applied or spooled
        self.restarts = 0  # successful respawns, lifetime
        self.consecutive_deaths = 0  # since the last successful response
        self.death_key = None  # request identity of the last death
        self.deaths_on_key = 0
        self.degraded = False
        self.degraded_since: float | None = None
        self.last_good: dict[str, list[float]] = {}  # horizon -> fragment
        self.pending: list[dict] = []  # in-stream events awaiting a response
        self.spool: CheckpointManager | None = None
        self.wal_corrupted = False  # chaos tail corruption already applied


def _request_key(request: tuple) -> tuple:
    """Identity of a request for death counting: op plus hour or horizon.

    A tick block is keyed by its first hour and length, so a re-driven
    block counts against the same key.
    """
    if request[0] == "tick_block":
        return ("tick_block", request[1], int(request[2].shape[1]))
    return tuple(request[:2])


def _quarantined(request: tuple) -> tuple:
    """A poisoned tick block re-driven as all-missing (gap-fill rows)."""
    op, first_hour, values, missing, calendar_rows, released = request
    return (
        op, first_hour, np.full_like(values, np.nan), np.ones_like(missing),
        calendar_rows, released,
    )


def _key_label(key: tuple) -> dict:
    """Human/JSON-facing identity of an in-flight request key.

    A one-hour block is a tick and keeps the tick label.
    """
    if key[0] == "tick_block" and key[2] == 1:
        return {"op": "tick", "hour": int(key[1])}
    if key[0] == "tick_block":
        return {"op": "tick_block", "first_hour": int(key[1]), "n_hours": int(key[2])}
    return {"op": str(key[0])}


class FleetSupervisor:
    """Backend running one supervised, restartable process per shard.

    Same driving surface as :class:`~repro.fleet.coordinator
    .SerialBackend` plus the supervision protocol
    described in the module docstring.  Raises
    :class:`~repro.parallel.pool.PoolUnavailable` when the platform
    cannot fork, letting :func:`~repro.fleet.coordinator.build_fleet`
    degrade to the serial backend.
    """

    name = "supervised"

    #: Hours per pipe-shipped block; larger blocks are split by the
    #: coordinator so a restart never replays more than a day's payload.
    block_capacity: int = HOURS_PER_DAY

    def __init__(
        self,
        directory: str | Path,
        plan: PartitionPlan,
        config: FleetConfig,
        resume_at: int | None,
        supervise: SupervisorConfig | None = None,
        chaos: ProcessChaos | None = None,
        on_event=None,
    ) -> None:
        import multiprocessing

        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as error:
            raise PoolUnavailable(
                f"fork start method unavailable: {error}"
            ) from error
        self.directory = Path(directory)
        self.plan = plan
        self.config = config
        self.supervise = supervise or SupervisorConfig()
        self.chaos = chaos
        self.on_event = on_event
        self.telemetry = ServeTelemetry()
        self._coordinator = None
        self._degraded_seconds = 0.0
        self.hosts = [
            _ShardHost(shard, int(plan.sectors_of(shard).size))
            for shard in range(plan.n_shards)
        ]
        try:
            for host in self.hosts:
                self._spawn(host, resume_at)
            for host in self.hosts:
                reply = self._await(host)
                if reply is None or reply[0] != "hello":
                    raise RuntimeError(
                        f"shard host {host.shard_id} failed to start: "
                        f"{None if reply is None else reply[1]}"
                    )
                host.hours = int(reply[1])
        except Exception as error:  # noqa: BLE001 - leave no children behind
            self.close()
            if isinstance(error, PoolUnavailable):
                raise
            raise PoolUnavailable(
                f"cannot start supervised shard hosts: {error}"
            ) from error

    def bind(self, coordinator) -> None:
        """Attach the owning coordinator (dead-letter queue, fleet clock)."""
        self._coordinator = coordinator

    # -------------------------------------------------------------- driving
    def submit_hour(self, hour, values, missing, calendar_row) -> list[dict]:
        """One hour per shard: a one-hour :meth:`submit_block`."""
        rows = np.asarray(calendar_row)[None, :]
        blocks = self.submit_block(hour, values[:, None, :], missing[:, None, :], rows)
        return [responses[0] for responses in blocks]

    def submit_block(
        self, first_hour, values, missing, calendar_rows, released_before=None
    ) -> list[list[dict]]:
        first_hour = int(first_hour)
        requests = [
            (
                "tick_block", first_hour, values[ids], missing[ids],
                calendar_rows, released_before,
            )
            for ids in map(self.plan.sectors_of, range(self.plan.n_shards))
        ]
        return [
            self._degraded_block(host, *request[1:5])
            if payload is None
            else self._success(host, payload)
            for (host, payload), request in zip(
                self._round(requests, rejoin=True), requests
            )
        ]

    def resume(self, clock: int) -> None:
        """Resume every shard at the fleet *clock* after a failed block.

        The coordinator has already set its clock back to *clock*.  A
        live host is respawned there (:meth:`_respawn`); a degraded one
        only closes its spool, since its next slice, or its rejoin,
        rewinds the shard directory to the clock.
        """
        for host in self.hosts:
            if host.degraded:
                self._close_spool(host)
            else:
                self._respawn(host)

    # ------------------------------------------------------- liveness core
    def _round(self, requests, rejoin=False, tolerate_errors=False):
        """One request round over every shard: send all, then gather.

        *requests* holds one request tuple per shard.  **Send:** each
        live shard gets its request in shard order; a degraded shard is
        skipped, or, with *rejoin*, first attempts its rejoin.
        **Gather:** yields ``(host, payload)`` in shard order, each reply
        supervised by :meth:`_collect`; *payload* is ``None`` for a
        skipped or degraded shard.  The caller's per-shard work runs
        between yields, so supervision events keep shard order.

        Every sent request has its reply read before the round ends.  An
        ``err`` reply yields ``None`` under *tolerate_errors*; otherwise
        the round stops yielding, drains the remaining replies and
        raises the first error.
        """
        delivered = []  # per shard: None when skipped, else whether sent
        for host, request in zip(self.hosts, requests):
            # A rejoin runs before the block is spooled: a respawn that
            # recovers through the spooled WAL to the fleet clock, the
            # block's first hour, then serves the request live.
            live = not host.degraded or (rejoin and self._respawn(host))
            delivered.append(self._send(host, request) if live else None)
        error = None
        for host, request, sent in zip(self.hosts, requests, delivered):
            payload = None
            if sent is not None:
                try:
                    payload = self._collect(host, request, sent)
                except RuntimeError as exc:
                    if not tolerate_errors:
                        error = error or exc
            if error is None:
                yield host, payload
        if error is not None:
            raise error

    def _send(self, host, request) -> bool:
        """Write *request* to *host*'s pipe; ``False`` when it is dead."""
        if host.conn is None:
            return False
        try:
            host.conn.send(request)
        except (BrokenPipeError, OSError):
            return False
        return True

    def _collect(self, host, request, sent: bool):
        """Supervise the reply to *request*, already *sent* or not.

        Returns the payload, or ``None`` once the shard is degraded.
        Worker deaths respawn-and-resend within the budget; repeated
        deaths on the same request quarantine it (a tick block is
        re-driven as all-missing, any other request re-sent as is).
        """
        key = _request_key(request)
        while True:
            reply = self._await(host) if sent else None
            if reply is not None:
                kind, payload = reply
                if kind == "ok":
                    return payload
                if kind == "err":
                    raise RuntimeError(
                        f"shard host {host.shard_id} failed: {payload}"
                    )
                # "fatal" (or anything else): fall through to the dead path.
            action = self._handle_death(host, key)
            if action == "degrade":
                return None
            if action == "poison" and key[0] == "tick_block":
                request = _quarantined(request)
                key = (*key, "quarantined")
            # "retry" (and "poison") loop back and re-send.
            sent = self._send(host, request)

    def _await(self, host):
        """Wait for one reply under the heartbeat/patience protocol.

        Returns the ``(kind, payload)`` tuple, or ``None`` when the
        worker is dead (exited, broken pipe) or was declared hung and
        SIGKILLed.
        """
        window = self.supervise.heartbeat_secs
        retries = 0
        deadline = time.monotonic() + window
        while True:
            try:
                if host.conn.poll(0.05):
                    return host.conn.recv()
            except (EOFError, OSError):
                return None
            if not host.process.is_alive():
                # Drain a reply that raced the exit, then report death.
                try:
                    if host.conn.poll(0):
                        return host.conn.recv()
                except (EOFError, OSError):
                    pass
                return None
            if time.monotonic() >= deadline:
                if retries >= _SLOW_RETRIES:
                    self._event(
                        "worker_hang",
                        shard=host.shard_id,
                        patience_windows=retries,
                    )
                    host.process.kill()
                    host.process.join(timeout=10)
                    return None
                retries += 1
                window *= 2
                self.telemetry.inc("heartbeat_timeouts")
                self._event(
                    "heartbeat_timeout",
                    shard=host.shard_id,
                    retry=retries,
                    next_window_secs=window,
                )
                deadline = time.monotonic() + window

    def _handle_death(self, host, key) -> str:
        """Classify a worker death; returns ``retry|poison|degrade``."""
        self._reap(host)
        host.consecutive_deaths += 1
        if key == host.death_key:
            host.deaths_on_key += 1
        else:
            host.death_key = key
            host.deaths_on_key = 1
        self._event(
            "worker_death",
            shard=host.shard_id,
            consecutive=host.consecutive_deaths,
            **_key_label(key),
        )
        if host.deaths_on_key >= self.supervise.poison_threshold:
            return self._quarantine(host, key)
        if host.consecutive_deaths > self.supervise.max_restarts:
            self._mark_degraded(host, key)
            return "degrade"
        if self._respawn(host):
            return "retry"
        # The respawn itself died: count it and re-evaluate (bounded —
        # consecutive_deaths grows monotonically until the budget trips).
        return self._handle_death(host, key)

    def _quarantine(self, host, key) -> str:
        """Poison block: dead-letter the request, re-drive it as missing."""
        label = _key_label(key)
        self.telemetry.inc("poison_blocks")
        if self._coordinator is not None:
            self._coordinator.dead_letters.push(
                "poison_block",
                hour=label.get("hour", label.get("first_hour")),
                detail=(
                    f"shard {host.shard_id} died {host.deaths_on_key}x on "
                    f"{label['op']}"
                ),
                shard=host.shard_id,
            )
        if self.chaos is not None:
            lo = label.get("hour", label.get("first_hour", 0))
            hi = lo + label.get("n_hours", 1)
            self.chaos.disarm(host.shard_id, lo, hi)
        host.pending.append(
            self._event(
                "poison_block",
                shard=host.shard_id,
                deaths=host.deaths_on_key,
                **label,
            )
        )
        host.death_key = None
        host.deaths_on_key = 0
        if self._respawn(host):
            return "poison"
        self._mark_degraded(host, key)
        return "degrade"

    def _mark_degraded(self, host, key) -> None:
        if not host.degraded:
            host.degraded = True
            host.degraded_since = time.monotonic()
            self.telemetry.inc("degraded_shards")
            host.pending.append(
                self._event(
                    "shard_degraded",
                    shard=host.shard_id,
                    restart_budget=self.supervise.max_restarts,
                    **_key_label(key),
                )
            )
        self._write_state()

    def _respawn(self, host) -> bool:
        """Respawn *host* resumed at the fleet clock; ``True`` when it comes up.

        The fleet clock is the coordinator's: the in-flight block's
        first hour.  A shard whose journal does not reach it (a spool
        cut short, a corrupt tail) fails in ``build_worker``.
        """
        clock = self._coordinator.clock
        self._reap(host)
        self._close_spool(host)
        if (
            self.chaos is not None
            and host.shard_id in self.chaos.wal_tail_shards
            and not host.wal_corrupted
        ):
            marker = Path(self.chaos.marker_dir) / f"walcorrupt-shard{host.shard_id}"
            if not marker.exists():
                segment = corrupt_wal_tail(self._shard_dir(host))
                marker.parent.mkdir(parents=True, exist_ok=True)
                marker.touch()
                self._event(
                    "wal_tail_corrupted",
                    shard=host.shard_id,
                    segment=None if segment is None else segment.name,
                )
            host.wal_corrupted = True
        try:
            self._spawn(host, clock)
        except OSError:
            return False
        reply = self._await(host)
        if reply is None or reply[0] != "hello":
            if host.degraded and reply is not None:
                self._event(
                    "rejoin_failed",
                    shard=host.shard_id,
                    expected_hours=clock,
                    detail=reply[1],
                )
            self._reap(host)
            return False
        hours = int(reply[1])
        host.hours = hours
        host.restarts += 1
        self.telemetry.inc("worker_restarts")
        self._event(
            "worker_restart",
            shard=host.shard_id,
            recovered_hours=hours,
            restarts=host.restarts,
        )
        self._write_state()
        return True

    def _success(self, host, payload):
        host.hours = payload[-1]["hour"] + 1
        host.consecutive_deaths = 0
        host.death_key = None
        host.deaths_on_key = 0
        for response in payload:
            for horizon, fragment in response.get("scores", {}).items():
                host.last_good[horizon] = [float(s) for s in fragment]
        if host.degraded:
            elapsed = (
                0.0
                if host.degraded_since is None
                else time.monotonic() - host.degraded_since
            )
            self._degraded_seconds += elapsed
            self.telemetry.observe("shard_degraded_window", elapsed)
            host.degraded = False
            host.degraded_since = None
            host.pending.append(
                self._event(
                    "shard_recovered",
                    shard=host.shard_id,
                    hour=payload[0].get("hour"),
                    restarts=host.restarts,
                )
            )
            self._write_state()
        return self._attach(host, payload)

    def _attach(self, host, payload):
        """Prepend pending in-stream events to the first response."""
        if not host.pending:
            return payload
        events, host.pending = host.pending, []
        return [{**payload[0], "supervisor": events}, *payload[1:]]

    # ------------------------------------------------------- degraded mode
    def _degraded_block(self, host, first_hour, values, missing, calendar_rows):
        if host.spool is None:
            # The slice starts at the fleet clock; cut back whatever of
            # it the dying worker journaled, then spool from there (the
            # reopened segment loses any torn tail too).
            CheckpointManager.rewind(self._shard_dir(host), first_hour)
            host.spool = CheckpointManager(
                self._shard_dir(host),
                host.n_local,
                self.config.n_kpis,
                snapshot_every=self.config.snapshot_every,
            )
        host.spool.record_block(first_hour, values, missing, calendar_rows)
        n_hours = int(values.shape[1])
        host.hours = first_hour + n_hours
        self.telemetry.inc("spooled_ticks", n_hours)
        return self._attach(host, [
            self._synthesize(host, first_hour + j) for j in range(n_hours)
        ])

    def _close_spool(self, host) -> None:
        if host.spool is not None:
            host.spool.close()
            host.spool = None

    def _synthesize(self, host, hour: int) -> dict:
        """Degraded-shard response: fallback fragments, all-dark mask."""
        response = ShardWorker._trivial_response(hour)
        if response["day_completed"]:
            t_day = response["t_day"]
            if t_day >= self.config.start_day:
                for horizon in self.config.horizons:
                    response["scores"][str(int(horizon))] = (
                        self._fallback_fragment(host, t_day, int(horizon))
                    )
            response["dark_mask"] = [True] * host.n_local
        return response

    def _fallback_fragment(self, host, t_day: int, horizon: int) -> list[float]:
        scores, level = fallback_scores(
            host.n_local,
            last_good=host.last_good.get(str(horizon)),
            seed_key=(_FALLBACK_SEED, host.shard_id, t_day, horizon),
        )
        self.telemetry.inc("degraded_fragments")
        self._event(
            "degraded_fragment",
            shard=host.shard_id,
            t_day=t_day,
            horizon=horizon,
            fallback=level,
        )
        return [float(s) for s in scores]

    # ------------------------------------------------------------- queries
    def ring(self, hour: int) -> list:
        request = ("ring", int(hour))
        return [payload for _, payload in self._round([request] * len(self.hosts))]

    def predict(self, horizon, model=None, window=None) -> list[np.ndarray]:
        t_day = -1 if self._coordinator is None else self._coordinator.t_day
        request = ("predict", int(horizon), model, window)
        return [
            np.asarray(
                self._fallback_fragment(host, int(t_day), int(horizon))
                if fragment is None
                else fragment,
                dtype=np.float64,
            )
            for host, fragment in self._round([request] * len(self.hosts))
        ]

    def shard_hours(self) -> list[int]:
        return [host.hours for host in self.hosts]

    def stats(self) -> list[dict]:
        rounds = self._round([("stats",)] * len(self.hosts), tolerate_errors=True)
        return [
            {"shard": {"shard_id": host.shard_id, "n_sectors": host.n_local, "degraded": True}}
            if snap is None
            else snap
            for host, snap in rounds
        ]

    def telemetries(self) -> list[ServeTelemetry]:
        # The supervisor's own counters merge into the fleet snapshot
        # alongside whatever per-shard telemetry is still reachable
        # (worker telemetry is process state — it dies with the worker).
        rounds = self._round([("telemetry",)] * len(self.hosts), tolerate_errors=True)
        return [
            self.telemetry,
            *(telemetry for _, telemetry in rounds if telemetry is not None),
        ]

    @property
    def degraded_shards(self) -> list[int]:
        """Shard ids currently in degraded mode."""
        return [host.shard_id for host in self.hosts if host.degraded]

    def supervisor_stats(self) -> dict:
        """Supervision snapshot (also persisted as ``supervisor.json``)."""
        return {
            "worker_restarts": self.telemetry.counter("worker_restarts"),
            "heartbeat_timeouts": self.telemetry.counter("heartbeat_timeouts"),
            "poison_blocks": self.telemetry.counter("poison_blocks"),
            "degrade_transitions": self.telemetry.counter("degraded_shards"),
            "spooled_ticks": self.telemetry.counter("spooled_ticks"),
            "degraded_shards": self.degraded_shards,
            "degraded_seconds": round(self._time_in_degraded(), 6),
            "restarts_by_shard": {
                str(host.shard_id): host.restarts for host in self.hosts
            },
            "events": self.telemetry.events_seen,
        }

    def _time_in_degraded(self) -> float:
        total = self._degraded_seconds
        now = time.monotonic()
        for host in self.hosts:
            if host.degraded and host.degraded_since is not None:
                total += now - host.degraded_since
        return total

    # ------------------------------------------------------------ plumbing
    def _spawn(self, host, resume_at: int | None) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_shard_host_main,
            args=(
                child_conn,
                str(self.directory),
                self.plan,
                self.config,
                host.shard_id,
                resume_at,
                self.chaos,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        host.process = process
        host.conn = parent_conn

    def _reap(self, host) -> None:
        """Ensure *host*'s process is gone and its pipe closed."""
        process, conn = host.process, host.conn
        host.process = None
        host.conn = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is not None:
            if process.is_alive():
                process.kill()
            process.join(timeout=10)

    def _shard_dir(self, host) -> Path:
        return self.directory / self.plan.shard_dir(host.shard_id)

    def _event(self, kind: str, **fields) -> dict:
        record = self.telemetry.event(kind, **fields)
        if self.on_event is not None:
            try:
                self.on_event(record)
            except Exception:  # noqa: BLE001 - observers must not kill the fleet
                pass
        return record

    def _write_state(self) -> None:
        try:
            write_json_atomic(
                self.directory / STATE_NAME,
                {
                    "supervisor": self.supervisor_stats(),
                    "hosts": [
                        {
                            "shard": host.shard_id,
                            "restarts": host.restarts,
                            "degraded": host.degraded,
                            "consecutive_deaths": host.consecutive_deaths,
                        }
                        for host in self.hosts
                    ],
                },
            )
        except OSError:
            pass

    def close(self) -> None:
        """Terminate and join every child; idempotent on every path."""
        for host in self.hosts:
            self._close_spool(host)
            process, conn = host.process, host.conn
            if process is None:
                continue
            try:
                if process.is_alive() and conn is not None:
                    conn.send(("close",))
                    deadline = time.monotonic() + 5.0
                    while process.is_alive() and time.monotonic() < deadline:
                        try:
                            if conn.poll(0.05):
                                conn.recv()
                                break
                        except (EOFError, OSError):
                            break
            except (BrokenPipeError, OSError):
                pass
            self._reap(host)
        self._write_state()
