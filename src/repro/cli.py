"""Command-line front end.

Eight subcommands cover the full pipeline::

    hotspot-repro generate  --towers 100 --weeks 18 --out data.npz
    hotspot-repro analyze   --data data.npz
    hotspot-repro forecast  --data data.npz --target hot --horizons 1 5 7
    hotspot-repro sweep     --data data.npz --out results.jsonl
    hotspot-repro serve     --data data.npz --registry models/
    hotspot-repro lifecycle --data data.npz --registry models/
    hotspot-repro fleet     --data data.npz --registry models/ \\
                            --checkpoint-dir fleet/ --shards 4
    hotspot-repro gateway   --data data.npz --registry models/ --port 8765

``generate`` writes a synthetic dataset; ``analyze`` prints the Sec. III
dynamics summaries; ``forecast`` runs a focused comparison of all eight
models; ``sweep`` runs a configurable (model, t, h, w) grid and persists
the result rows; ``serve`` trains and registers a model, then runs the
online service — replaying the dataset hour-by-hour (or reading JSONL
operations from stdin with ``--from-stdin``) and emitting hot-spot alert
events as JSON lines on stdout.  ``lifecycle`` is ``serve`` with the
model-lifecycle control plane attached: online drift detection,
drift/cadence-triggered retraining, and champion/challenger promotion,
all reported in the same JSONL event stream.  ``fleet`` is ``serve``
sharded over sector partitions — ``--shards N`` engines with their own
WALs behind one coordinator, in-process or, with ``--supervise``, each
in its own forked and restartable host process — emitting a merged
stream bitwise identical to the single engine's.  ``--jobs`` fans
training and sweeps out over worker processes, never shards; serving
predicts serially in every process.
``gateway`` puts any of those stacks behind an HTTP/SSE surface —
``POST /ticks`` ingest with backpressure, ``GET /alerts`` SSE with
``Last-Event-ID`` resume, Prometheus ``/metrics``, and an operator
``/status`` plane — with the same bitwise replay-parity contract
(DESIGN.md §3j).

The four serving subcommands assemble their stack in one place
(``_build_stack``) from shared flags, and all drain gracefully on
SIGINT/SIGTERM: state closes through the normal teardown paths and a
final ``{"type": "shutdown", ...}`` JSONL line replaces the traceback
(exit 0).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from contextlib import contextmanager
from pathlib import Path

from repro.analysis import dynamics_report
from repro.core.experiment import ALL_MODEL_NAMES, SweepGrid, SweepRunner
from repro.core.forecaster import MODEL_REGISTRY
from repro.core.scoring import attach_scores
from repro.data.store import (
    CorruptStoreError,
    load_dataset,
    save_dataset,
    save_result_table,
)
from repro.data.tensor import HOURS_PER_DAY
from repro.fleet import FleetConfig, SupervisorConfig, build_fleet, recover_fleet
from repro.gateway import (
    EventJournal,
    GatewayConfig,
    HotSpotGateway,
    ResilientBackend,
)
from repro.imputation import DAEImputer, DAEImputerConfig, filter_sectors
from repro.lifecycle import (
    DriftConfig,
    LifecycleController,
    PromotionConfig,
    RetrainConfig,
)
from repro.resilience import (
    CheckpointManager,
    ResilientHotSpotService,
    ResilientPredictionEngine,
)
from repro.serve import (
    HotSpotService,
    ModelRegistry,
    ServeConfig,
    StreamIngestor,
    train_and_register,
)
from repro.synth import SIZE_TIERS, GeneratorConfig, TelemetryGenerator

__all__ = ["main"]


def _info(message: str, quiet: bool, file=None) -> None:
    """Progress/diagnostic line, silenced by --quiet."""
    if not quiet:
        print(message, file=file or sys.stdout)


@contextmanager
def _graceful_shutdown():
    """Convert SIGTERM into :class:`KeyboardInterrupt` for the drive loops.

    SIGINT already raises it; with SIGTERM folded in, both signals
    unwind through the command's ``try/finally`` teardown (checkpoint
    and fleet close) and land in the ``except KeyboardInterrupt`` arm,
    which emits a final JSONL summary line and exits 0 — consumers of
    the event stream see a structured shutdown record, never a
    traceback.
    """
    def _raise(signum, frame):
        raise KeyboardInterrupt
    previous = signal.signal(signal.SIGTERM, _raise)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _shutdown_line(command: str, **fields) -> None:
    """Final machine-readable summary after a signal-triggered drain."""
    print(
        json.dumps({"type": "shutdown", "command": command, "reason": "signal",
                    **fields}),
        flush=True,
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.tier is not None:
        tier = SIZE_TIERS[args.tier]
        config = tier.config()
        chunk_weeks = args.chunk_weeks or tier.chunk_weeks
    else:
        config = GeneratorConfig(
            n_towers=args.towers, n_weeks=args.weeks, seed=args.seed
        )
        chunk_weeks = args.chunk_weeks or 1
    generator = TelemetryGenerator(config)
    if args.chunked:
        meta = {"tier": args.tier} if args.tier else None
        path, manifest = generator.generate_chunked(
            args.out, chunk_weeks=chunk_weeks, generator_meta=meta
        )
        _info(
            f"wrote chunked dataset ({manifest['n_sectors']} sectors x "
            f"{manifest['n_hours']} h, {len(manifest['chunks'])} chunks, "
            f"sha256 {manifest['content_hash'][:12]}) to {path}",
            args.quiet,
        )
        return 0
    if args.tier is not None:
        # A tier names one exact world, so tier datasets always come from
        # the streaming path — the .npz and a chunked store of the same
        # tier hold bitwise-identical telemetry.
        dataset = generator.generate_streamed()
    else:
        dataset = generator.generate()
    path = save_dataset(dataset, args.out)
    _info(f"wrote {dataset.kpis} to {path}", args.quiet)
    return 0


def _prepare(path: str, impute_epochs: int, quiet: bool = False, file=None) -> "object":
    """Load, filter, impute, and score a dataset — the shared front half
    of every data-consuming subcommand (analyze/forecast/sweep/serve)."""
    dataset = load_dataset(path)
    dataset, kept = filter_sectors(dataset)
    _info(f"sector filter kept {kept.sum()}/{kept.size} sectors", quiet, file)
    imputer = DAEImputer(DAEImputerConfig(epochs=impute_epochs))
    dataset.kpis = imputer.fit_transform(dataset.kpis)
    return attach_scores(dataset)


def _cmd_analyze(args: argparse.Namespace) -> int:
    dataset = _prepare(args.data, args.impute_epochs, quiet=args.quiet)
    print()
    print(dynamics_report(dataset))
    return 0


def _cmd_forecast(args: argparse.Namespace) -> int:
    dataset = _prepare(args.data, args.impute_epochs, quiet=args.quiet)
    runner = SweepRunner(
        dataset,
        target=args.target,
        n_estimators=args.estimators,
        n_training_days=args.training_days,
        seed=args.seed,
    )
    # The comparison is itself a small sweep grid, so it can fan out
    # over worker processes like the full sweep does.
    grid = SweepGrid(
        models=ALL_MODEL_NAMES,
        t_days=(args.t_day,),
        horizons=tuple(args.horizons),
        windows=(args.window,),
    )
    results = runner.run(grid, n_jobs=args.jobs)
    lift_by_cell = {(r.model, r.horizon): r.evaluation.lift for r in results}
    print(f"\n{args.target} forecast, w={args.window}:")
    header = "model    " + "".join(f"  h={h:<4d}" for h in args.horizons)
    print(header)
    for model in ALL_MODEL_NAMES:
        row = f"{model:8s}" + "".join(
            f"  {lift_by_cell[(model, horizon)]:6.2f}" for horizon in args.horizons
        )
        print(row)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    dataset = _prepare(args.data, args.impute_epochs, quiet=args.quiet)
    runner = SweepRunner(
        dataset,
        target=args.target,
        n_estimators=args.estimators,
        n_training_days=args.training_days,
        seed=args.seed,
        n_jobs=args.jobs,
    )
    # Fit the t range to the data: leave room for the largest horizon
    # (plus the week the 'become' target needs) after t, and for the
    # largest training window before it.
    n_days = dataset.time_axis.n_days
    t_max = n_days - max(args.horizons) - 8
    t_min = max(args.training_days + max(args.horizons) + max(args.windows) + 1,
                int(0.4 * t_max))
    if t_min >= t_max:
        print(f"dataset too short for this sweep ({n_days} days)")
        return 1
    grid = SweepGrid.small(
        n_t=args.n_t,
        horizons=tuple(args.horizons),
        windows=tuple(args.windows),
        t_min=t_min,
        t_max=t_max,
    )
    _info(f"running {grid.n_combinations} sweep cells ...", args.quiet)
    results = runner.run(grid, progress=not args.quiet)
    rows = [r.as_row() for r in results]
    path = save_result_table(rows, args.out)
    _info(f"wrote {len(rows)} rows to {path}", args.quiet)
    return 0


class _UsageError(ValueError):
    """Flags no serving stack can be built from; the message is printed."""


def _check_flags(args: argparse.Namespace) -> tuple:
    """Validate a serving command's flags before any I/O.

    Returns ``(horizons, lifecycle, supervise)``: the served horizons,
    the ``(drift, retrain, promotion)`` configs when a lifecycle control
    plane is asked for (else ``None``), and the
    :class:`SupervisorConfig` of ``--supervise`` (else ``None``).
    Raises :class:`_UsageError` on a bad value or combination.
    """
    horizons = (
        tuple(args.horizons) if hasattr(args, "horizons") else (args.horizon,)
    )
    lifecycle = _lifecycle_configs(args, horizons)
    if min(horizons) < 1 or args.window < 1 or args.top_k < 1:
        raise _UsageError("--horizons, --window, and --top-k must all be >= 1")
    if getattr(args, "batch_hours", 1) < 1:
        raise _UsageError("--batch-hours must be >= 1")
    shards = getattr(args, "shards", None)
    if shards is not None:
        if shards < 1:
            raise _UsageError("--shards must be >= 1")
        if lifecycle is not None:
            raise _UsageError(
                "--lifecycle is single-engine only; drop it or drop --shards"
            )
        if not args.checkpoint_dir:
            raise _UsageError("--shards requires --checkpoint-dir")
    if args.resume and not args.checkpoint_dir:
        raise _UsageError("--resume requires --checkpoint-dir")
    supervise = None
    if getattr(args, "supervise", False):
        try:
            supervise = SupervisorConfig(
                heartbeat_secs=args.heartbeat_secs, max_restarts=args.max_restarts
            )
        except ValueError as error:
            raise _UsageError(f"error: invalid supervision policy: {error}") from error
    return horizons, lifecycle, supervise


def _lifecycle_configs(args: argparse.Namespace, horizons: tuple) -> tuple | None:
    """``(drift, retrain, promotion)`` for a lifecycle stack, else ``None``.

    ``lifecycle`` tunes every knob from its flags; ``gateway
    --lifecycle`` runs the config defaults, which those flags share.
    """
    if args.command == "lifecycle":
        drift = dict(
            reference_days=args.reference_days,
            current_days=args.current_days,
            alpha=args.drift_alpha,
        )
        cadence = dict(
            cadence_days=args.retrain_every, min_days_between=args.min_retrain_gap
        )
        promotion = dict(
            min_delta=args.promote_min_delta,
            min_shadow_days=args.shadow_days,
            max_shadow_days=args.max_shadow_days,
            confirm_days=args.confirm_days,
        )
    elif getattr(args, "lifecycle", False):
        drift, cadence, promotion = {}, {}, {}
    else:
        return None
    try:
        return (
            DriftConfig(**drift),
            RetrainConfig(
                model=args.model,
                target="hot",
                horizon=horizons[0],
                window=args.window,
                n_estimators=args.estimators,
                n_training_days=args.training_days,
                base_seed=args.seed,
                **cadence,
            ),
            PromotionConfig(**promotion),
        )
    except ValueError as error:
        raise _UsageError(f"error: invalid lifecycle configuration: {error}") from error


def _build_stack(args, dataset, horizons, lifecycle, supervise):
    """Train and register the served model, then assemble the stack.

    Returns the stack behind its gateway adapter, a
    :class:`ResilientBackend` over a fleet for ``fleet`` and ``gateway
    --shards``, else over one guarded engine.
    """
    # Train once at --train-day and persist; every engine then serves
    # later days from that frozen model, loading it lazily from disk.
    runner = SweepRunner(
        dataset,
        target="hot",
        n_estimators=args.estimators,
        n_training_days=args.training_days,
        seed=args.seed,
    )
    registry = ModelRegistry(args.registry)
    keys = train_and_register(
        runner,
        registry,
        [args.model],
        args.train_day,
        horizons,
        (args.window,),
        overwrite=True,
        n_jobs=args.jobs,
    )
    _info(
        f"registered {len(keys)} model(s) under {registry.root}",
        args.quiet,
        sys.stderr,
    )
    if args.command == "fleet" or getattr(args, "shards", None) is not None:
        return ResilientBackend(_build_fleet(args, dataset, horizons, supervise))
    return _build_guarded(args, dataset, registry, horizons, lifecycle)


def _build_fleet(args, dataset, horizons, supervise):
    config = FleetConfig.for_dataset(
        dataset,
        args.registry,
        model=args.model,
        window=args.window,
        horizons=horizons,
        start_day=args.train_day,
        top_k=args.top_k,
        alert_threshold=args.alert_threshold,
        w_max=max(args.window, 7),
        snapshot_every=args.snapshot_every,
    )
    on_event = None
    if supervise is not None:

        def on_event(record: dict) -> None:
            # Structured supervision JSONL (restart/degrade/rejoin) goes
            # to stderr: stdout stays the merged event stream, bitwise.
            print(json.dumps(record), file=sys.stderr, flush=True)

    if args.resume:
        # Keep the persisted shard count unless --shards asks for a
        # different one, in which case recovery reshards first.
        fleet = recover_fleet(
            args.checkpoint_dir, config, n_shards=args.shards,
            supervise=supervise, on_event=on_event,
        )
    else:
        fleet = build_fleet(
            args.checkpoint_dir, config, args.shards or 2,
            supervise=supervise, on_event=on_event,
        )
    resumed = f", resuming at hour {fleet.clock}" if args.resume else ""
    _info(
        f"fleet: {fleet.plan.n_shards} shards "
        f"(generation {fleet.plan.generation}), "
        f"backend={fleet.backend.name}{resumed}",
        args.quiet,
        sys.stderr,
    )
    return fleet


def _build_guarded(args, dataset, registry, horizons, lifecycle):
    # Recover serving state from a previous run's checkpoint directory,
    # or start fresh.  The resilient engine/service wrappers are always
    # in place: malformed ticks quarantine instead of crashing the loop,
    # and a broken registry degrades instead of raising.
    ingestor = None
    if args.resume:
        recovered = CheckpointManager.recover(args.checkpoint_dir)
        ingestor = recovered.ingestor
        if ingestor is not None:
            _info(
                f"recovered {ingestor.hours_seen} hours from {args.checkpoint_dir} "
                f"(snapshot at {recovered.snapshot_hour} h + "
                f"{recovered.replayed} journal ticks)",
                args.quiet,
                sys.stderr,
            )
    if ingestor is None:
        history = (7,)
        if lifecycle is not None:
            # The ring must hold enough history for the drift windows
            # and the retrain lookback, not just the serving window.
            drift, retrain, _ = lifecycle
            history = (drift.total_days, retrain.lookback_days)
        ingestor = StreamIngestor.for_dataset(
            dataset, w_max=max(args.window, *history)
        )
    engine = ResilientPredictionEngine(
        ingestor, registry, target="hot", model=args.model, window=args.window
    )
    service = HotSpotService(
        engine,
        ServeConfig(
            horizons=horizons,
            start_day=args.train_day,
            top_k=args.top_k,
            alert_threshold=args.alert_threshold,
        ),
    )
    controller = None
    if lifecycle is not None:
        # The lifecycle controller takes over from the bootstrap
        # champion, minting versioned challengers out of the live ring.
        drift, retrain, promotion = lifecycle
        state_path = (
            Path(args.checkpoint_dir) / "lifecycle.json" if args.checkpoint_dir else None
        )
        controller = LifecycleController(
            engine,
            drift=drift,
            retrain=retrain,
            promotion=promotion,
            state_path=state_path,
            start_day=args.train_day,
            n_jobs=args.jobs,
        )
        service.add_day_hook(controller.on_day)
    checkpoint = None
    if args.checkpoint_dir:
        checkpoint = CheckpointManager.for_ingestor(
            args.checkpoint_dir, ingestor, snapshot_every=args.snapshot_every
        )
    guarded = ResilientHotSpotService(service, checkpoint=checkpoint)
    return ResilientBackend(guarded, controller=controller)


def _replay_events(
    front, dataset, start_hour: int, end_day: int, batch_hours: int = 1
) -> int:
    """Drive a guarded service or fleet over the dataset's hours,
    streaming events as JSON lines on stdout.  Returns the alert count.

    Hours go out as ``submit_block`` micro-batches of ``batch_hours``
    (bitwise-identical events and state for every size, one WAL flush
    per day chunk).  The effective setting is recorded in the telemetry
    counters as ``replay_batch_hours``.
    """
    kpis = dataset.kpis
    end_hour = end_day * HOURS_PER_DAY
    front.telemetry.inc("replay_batch_hours", batch_hours)
    alerts = 0
    for hour in range(start_hour, end_hour, batch_hours):
        stop = min(hour + batch_hours, end_hour)
        events = front.submit_block(
            kpis.values[:, hour:stop, :],
            kpis.missing[:, hour:stop, :],
            dataset.calendar[hour:stop],
            first_hour=hour,
        )
        for event in events:
            if event.get("type") == "alert":
                alerts += 1
            # Flush per event: with stdout redirected the stdio
            # buffer is block-buffered, and a kill would discard
            # events for hours the WAL already acknowledged — the
            # resume replays state, not emitted events, so anything
            # buffered here would be lost for good.
            print(json.dumps(event), flush=True)
    return alerts


def _drive(args: argparse.Namespace, backend, dataset) -> int:
    """Feed the stack JSONL operations from stdin, or replay the dataset."""
    front = backend.front
    if args.from_stdin:
        # Stdin ticks take the same guarded path as replay ticks:
        # validation/quarantine always, journal + snapshots when a
        # checkpoint directory is configured.
        processed = front.run_jsonl(sys.stdin, sys.stdout)
        _info(f"processed {processed} operations", args.quiet, sys.stderr)
        errors = front.telemetry.counter("stream_errors")
        if errors:
            _info(f"{errors} stream errors (see error events)", args.quiet, sys.stderr)
    else:
        n_days = dataset.time_axis.n_days
        end_day = n_days if args.max_days is None else min(args.max_days, n_days)
        alerts = _replay_events(
            front, dataset, backend.clock, end_day,
            batch_hours=getattr(args, "batch_hours", 1),
        )
        stats = front.stats()
        counters = stats["counters"]
        fleet = stats.get("fleet", {})
        where = f" over {fleet['n_shards']} shards" if fleet else ""
        supervisor = fleet.get("supervisor")
        supervised = (
            ""
            if supervisor is None
            else (
                f", {supervisor['worker_restarts']} restarts, "
                f"{supervisor['poison_blocks']} poison blocks"
            )
        )
        _info(
            f"replayed {end_day} days{where}: {alerts} alerts, "
            f"{counters.get('cache_hits', 0)} cache hits / "
            f"{counters.get('cache_misses', 0)} misses, "
            f"{counters.get('ticks_quarantined', 0)} quarantined, "
            f"{counters.get('degraded_predictions', 0)} degraded{supervised}",
            args.quiet,
            sys.stderr,
        )
    controller = backend.controller
    if controller is not None:
        lifecycle = controller.stats()
        counter = front.telemetry.counter
        _info(
            f"lifecycle: phase={lifecycle['phase']} "
            f"champion=v{lifecycle['champion_version'] or 0} "
            f"{counter('events_drift')} drift, "
            f"{counter('events_retrain')} retrains, "
            f"{counter('events_promotion')} promotions, "
            f"{counter('events_rollback')} rollbacks",
            args.quiet,
            sys.stderr,
        )
    degraded = getattr(backend.shards, "degraded_shards", None)
    if degraded:
        _info(
            f"fleet ended degraded: shard(s) {degraded} never rejoined",
            args.quiet,
            sys.stderr,
        )
        return 1
    return 0


def _shutdown_fields(backend) -> dict:
    """Where a signal-drained stack stopped, for the shutdown line."""
    if backend is None:
        return {"clock": 0}
    # A signal drain loses no acknowledged hour: the WAL (and a fleet's
    # watermark) already covers it, so --resume picks up at the clock.
    fields = {
        "clock": backend.clock,
        "quarantined": backend.front.telemetry.counter("ticks_quarantined"),
    }
    if backend.shards is not None:
        fields["shards"] = backend.front.plan.n_shards
    if backend.controller is not None:
        lifecycle = backend.controller.stats()
        fields["phase"] = lifecycle["phase"]
        fields["champion_version"] = lifecycle["champion_version"]
    return fields


async def _serve_gateway(gateway: HotSpotGateway) -> int:
    """Run the gateway until SIGINT/SIGTERM, then drain and summarise."""
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):
            signal.signal(sig, lambda signum, frame: stop.set())
    await gateway.start()
    # The listening line is the machine-readable handshake: drivers
    # (tests, CI, operators' tooling) parse the bound port and the hour
    # to resume POSTing from out of it.
    print(
        json.dumps({
            "type": "listening",
            "host": gateway.host,
            "port": gateway.port,
            "backend": gateway.backend.name,
            "resume_hour": gateway.backend.clock,
            "endpoints": ["/ticks", "/alerts", "/metrics", "/status", "/healthz"],
        }),
        flush=True,
    )
    await stop.wait()
    await gateway.stop()
    _shutdown_line(
        "gateway",
        clock=gateway.backend.clock,
        ticks_applied=gateway.telemetry.counter("ticks_applied"),
        events_journaled=gateway.journal.next_id,
    )
    return 0


def _gateway(args: argparse.Namespace, backend) -> HotSpotGateway:
    journal_path = (
        Path(args.checkpoint_dir) / "gateway_events.jsonl"
        if args.checkpoint_dir
        else None
    )
    return HotSpotGateway(
        backend,
        EventJournal(journal_path),
        GatewayConfig(
            host=args.host,
            port=args.port,
            queue_capacity=args.queue_capacity,
            sse_buffer=args.sse_buffer,
        ),
    )


def _cmd_stack(args: argparse.Namespace) -> int:
    """``serve`` / ``lifecycle`` / ``fleet`` / ``gateway``.

    One bootstrap for all four: check the flags, prepare the dataset,
    train and register the model, stand the stack up; then either drive
    it from stdin or a replay (progress on stderr, events on stdout) or
    put it behind the gateway.
    """
    backend = None
    try:
        try:
            horizons, lifecycle, supervise = _check_flags(args)
            dataset = _prepare(
                args.data, args.impute_epochs, quiet=args.quiet, file=sys.stderr
            )
            n_days = dataset.time_axis.n_days
            if not 0 < args.train_day < n_days:
                raise _UsageError(
                    f"--train-day {args.train_day} outside dataset range (0, {n_days})"
                )
            # Shard hosts fork during construction, so the teardown
            # below covers it: every exit path terminates the workers.
            backend = _build_stack(args, dataset, horizons, lifecycle, supervise)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 1
        if args.command == "gateway":
            return asyncio.run(_serve_gateway(_gateway(args, backend)))
        with _graceful_shutdown():
            return _drive(args, backend, dataset)
    except KeyboardInterrupt:
        _shutdown_line(args.command, **_shutdown_fields(backend))
        return 0
    finally:
        if backend is not None:
            backend.close()


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="hotspot-repro",
        description="Cellular hot spot forecasting (ICDE 2017 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress progress output (results still print)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("--towers", type=int, default=100)
    gen.add_argument("--weeks", type=int, default=18)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument(
        "--tier",
        choices=sorted(SIZE_TIERS),
        default=None,
        help="named world size (overrides --towers/--weeks/--seed); "
        + "; ".join(f"{t.name}: {t.description}" for t in SIZE_TIERS.values()),
    )
    gen.add_argument(
        "--chunked",
        action="store_true",
        help="write a chunked, memory-mappable dataset directory instead "
        "of a .npz archive (required for worlds that exceed RAM)",
    )
    gen.add_argument(
        "--chunk-weeks",
        type=int,
        default=None,
        help="weeks per chunk for --chunked (default: the tier's, else 1); "
        "the stored telemetry and content hash are chunk-size independent",
    )
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data", required=True, help="dataset .npz from 'generate'")
    common.add_argument("--impute-epochs", type=int, default=10)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for training and sweeps (1 = serial, 0 = all "
        "cores); results are identical for any value, and serving predicts "
        "serially in every process",
    )

    ana = sub.add_parser("analyze", parents=[common], help="Sec. III dynamics summaries")
    ana.set_defaults(func=_cmd_analyze)

    fc = sub.add_parser("forecast", parents=[common], help="compare the 8 models")
    fc.add_argument("--target", choices=("hot", "become"), default="hot")
    fc.add_argument("--t-day", type=int, default=60)
    fc.add_argument("--window", type=int, default=7)
    fc.add_argument("--horizons", type=int, nargs="+", default=[1, 5, 7, 14])
    fc.add_argument("--estimators", type=int, default=10)
    fc.add_argument("--training-days", type=int, default=6)
    fc.set_defaults(func=_cmd_forecast)

    sw = sub.add_parser("sweep", parents=[common], help="run a (model,t,h,w) sweep")
    sw.add_argument("--target", choices=("hot", "become"), default="hot")
    sw.add_argument("--n-t", type=int, default=4)
    sw.add_argument("--horizons", type=int, nargs="+", default=[1, 3, 5, 7, 14])
    sw.add_argument("--windows", type=int, nargs="+", default=[7])
    sw.add_argument("--estimators", type=int, default=10)
    sw.add_argument("--training-days", type=int, default=6)
    sw.add_argument("--out", required=True)
    sw.set_defaults(func=_cmd_sweep)

    # Parents of the four serving subcommands: the bootstrap model and
    # its alert policy, the stdin/replay loop, durable state, and the
    # shard topology.
    stack = argparse.ArgumentParser(add_help=False, parents=[common])
    stack.add_argument("--registry", required=True, help="model registry directory")
    stack.add_argument("--train-day", type=int, default=60,
                       help="day the served model is trained at")
    stack.add_argument("--window", type=int, default=7)
    stack.add_argument("--estimators", type=int, default=10)
    stack.add_argument("--training-days", type=int, default=6)
    stack.add_argument("--top-k", type=int, default=5,
                       help="sectors alerted per refresh")
    stack.add_argument("--alert-threshold", type=float, default=None,
                       help="minimum forecast score to alert (default: top-k only)")
    stack.add_argument("--snapshot-every", type=int, default=168,
                       help="hours between state snapshots (default: one week)")
    stack.add_argument("--resume", action="store_true",
                       help="restore state from --checkpoint-dir and continue "
                       "from the recovered hour")

    cell = argparse.ArgumentParser(add_help=False)
    cell.add_argument("--model", choices=ALL_MODEL_NAMES, default="RF-F1")
    cell.add_argument("--horizons", type=int, nargs="+", default=[1])

    replay = argparse.ArgumentParser(add_help=False)
    replay.add_argument("--max-days", type=int, default=None,
                        help="replay at most this many days")
    replay.add_argument("--from-stdin", action="store_true",
                        help="read JSONL operations from stdin instead of replaying")

    blocks = argparse.ArgumentParser(add_help=False)
    blocks.add_argument("--batch-hours", type=int, default=1,
                        help="hours per replay micro-batch (1 = per-hour ticks; "
                        "larger batches take the columnar fast path with "
                        "identical events)")

    shards = argparse.ArgumentParser(add_help=False)
    shards.add_argument("--shards", type=int, default=None,
                        help="shard count (fleet default 2; with --resume the "
                        "persisted plan is kept, and a different value "
                        "reshards first)")
    shards.add_argument("--supervise", action="store_true",
                        help="fork one supervised process per shard: "
                        "heartbeats, live restart-with-recovery, poison-block "
                        "quarantine, and degraded-shard fallback (supervision "
                        "events stream to stderr as JSONL; exit code 1 if the "
                        "run ends still degraded)")
    shards.add_argument("--max-restarts", type=int, default=3,
                        help="consecutive worker restarts allowed per shard "
                        "before it is served degraded (0 = degrade on first "
                        "death)")
    shards.add_argument("--heartbeat-secs", type=float, default=5.0,
                        help="base reply deadline per shard request; a slow but "
                        "live worker gets exponentially longer patience "
                        "windows before being declared hung")

    srv = sub.add_parser(
        "serve", parents=[stack, cell, replay, blocks],
        help="run the online forecasting service",
    )
    srv.add_argument("--checkpoint-dir", default=None,
                     help="write-ahead journal + snapshot directory "
                     "(enables crash recovery)")
    srv.set_defaults(func=_cmd_stack)

    lc = sub.add_parser(
        "lifecycle",
        parents=[stack, replay],
        help="serve with drift monitoring and champion/challenger promotion",
    )
    lc.add_argument("--model", choices=sorted(MODEL_REGISTRY), default="RF-F1",
                    help="served (and retrained) model; must be trainable")
    lc.add_argument("--horizon", type=int, default=1,
                    help="forecast horizon of the managed cell")
    lc.add_argument("--retrain-every", type=int, default=0,
                    help="fixed retraining cadence in days "
                    "(0 = retrain on drift only)")
    lc.add_argument("--min-retrain-gap", type=int, default=7,
                    help="days that must pass between challenger fits")
    lc.add_argument("--drift-alpha", type=float, default=0.01,
                    help="KS significance level for the drift test")
    lc.add_argument("--reference-days", type=int, default=14,
                    help="days in the drift reference window")
    lc.add_argument("--current-days", type=int, default=7,
                    help="days in the drift current window")
    lc.add_argument("--promote-min-delta", type=float, default=5.0,
                    help="mean shadow ∆ (%% lift) required to promote")
    lc.add_argument("--shadow-days", type=int, default=5,
                    help="defined shadow days required before a "
                    "promote/retire decision")
    lc.add_argument("--max-shadow-days", type=int, default=14,
                    help="shadow days after which an unpromoted "
                    "challenger is retired")
    lc.add_argument("--confirm-days", type=int, default=0,
                    help="post-promotion watch days before a promotion "
                    "is final (0 = no watch)")
    lc.add_argument("--checkpoint-dir", default=None,
                    help="write-ahead journal + snapshot directory (enables "
                    "crash recovery; lifecycle state commits to "
                    "lifecycle.json inside it)")
    lc.set_defaults(func=_cmd_stack)

    fl = sub.add_parser(
        "fleet",
        parents=[stack, cell, replay, blocks, shards],
        help="run the sharded serving fleet behind one coordinator",
    )
    fl.add_argument("--checkpoint-dir", required=True,
                    help="fleet directory: partition plan, watermark, and "
                    "one WAL + snapshot directory per shard")
    fl.set_defaults(func=_cmd_stack)

    gw = sub.add_parser(
        "gateway",
        parents=[stack, cell, shards],
        help="serve the engine over HTTP/SSE with metrics and a status plane",
    )
    gw.add_argument("--host", default="127.0.0.1")
    gw.add_argument("--port", type=int, default=8765,
                    help="TCP port (0 = ephemeral; the bound port is in the "
                    "'listening' line)")
    gw.add_argument("--queue-capacity", type=int, default=256,
                    help="bounded ingest queue: a POST whose batch does not "
                    "fit is rejected with 429 + Retry-After")
    gw.add_argument("--sse-buffer", type=int, default=256,
                    help="pending events buffered per SSE subscriber before "
                    "oldest-first drop (recoverable via Last-Event-ID)")
    gw.add_argument("--checkpoint-dir", default=None,
                    help="durable state directory: engine WAL + snapshots, "
                    "gateway event journal (enables crash recovery; "
                    "required by --shards)")
    gw.add_argument("--lifecycle", action="store_true",
                    help="attach the model-lifecycle control plane (drift "
                    "detection, retrain, promotion) to the single-engine "
                    "backend; its state shows up in /status and /metrics")
    gw.set_defaults(func=_cmd_stack)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except CorruptStoreError as error:
        # Machine-readable single-line failure instead of a stack trace:
        # serving pipelines parse the JSONL streams these commands emit.
        print(
            json.dumps(
                {"type": "error", "error": "corrupt-store", "message": str(error)}
            ),
            file=sys.stderr,
        )
        return 1
    except BrokenPipeError:
        # Downstream consumer (head, a dead socket) closed our stdout.
        return 0
    except OSError as error:
        # Unrecoverable stream/disk errors (a dead event sink, a failing
        # checkpoint volume) exit cleanly with code 1 — no traceback.
        print(f"error: unrecoverable stream error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
