"""The online hot-spot forecasting service loop.

:class:`HotSpotService` wraps a :class:`~repro.serve.engine.PredictionEngine`
with operator-facing behaviour: every time a day of KPIs completes, it
refreshes the configured ``(model, horizon)`` forecasts and emits alert
events for the sectors most likely to run hot; call :meth:`ingest_hour`
or :meth:`ingest_block` from your own loop and collect the events.
:func:`run_jsonl` is the JSON-lines protocol (``tick``, ``predict``,
``stats``, ``stop`` ops in, event objects out) that puts the guarded
service or the fleet behind a pipe or socket.

Alert policy (:func:`build_alert`, shared with the fleet merge): per
refresh, sectors are ranked by forecast score; the top ``top_k`` are
alerted, optionally restricted to scores at or above
``alert_threshold``.  Every event is a plain JSON-serialisable dict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable

import numpy as np

from repro.data.tensor import HOURS_PER_DAY
from repro.serve.engine import PredictionEngine
from repro.serve.ingest import IngestTick
from repro.serve.telemetry import ServeTelemetry

__all__ = ["ServeConfig", "HotSpotService", "build_alert", "run_jsonl"]


@dataclass(frozen=True)
class ServeConfig:
    """Service behaviour knobs.

    Attributes
    ----------
    horizons:
        Horizons (days ahead) refreshed after every completed day.
    start_day:
        First ``t_day`` the service makes forecasts for; earlier days
        only warm the ring buffers (and, in replay bootstraps, overlap
        the training period).
    top_k:
        Number of top-ranked sectors eligible for an alert per refresh.
    alert_threshold:
        Optional minimum forecast score; ``None`` alerts the top-k
        unconditionally (classifier scores are probabilities, baseline
        scores are unbounded rankings — pick a threshold per model).
    """

    horizons: tuple[int, ...] = (1,)
    start_day: int = 0
    top_k: int = 5
    alert_threshold: float | None = None

    def __post_init__(self) -> None:
        if not self.horizons or min(self.horizons) < 1:
            raise ValueError(f"horizons must be non-empty and >= 1: {self.horizons}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")


@dataclass
class HotSpotService:
    """Ingest ticks, refresh forecasts, emit hot-spot alerts."""

    engine: PredictionEngine
    config: ServeConfig = field(default_factory=ServeConfig)
    day_hooks: "list[Callable[[IngestTick], list[dict]]]" = field(default_factory=list)

    @property
    def telemetry(self) -> ServeTelemetry:
        return self.engine.telemetry

    def add_day_hook(self, hook: "Callable[[IngestTick], list[dict]]") -> None:
        """Register a callback run after each completed day's alerts.

        Hooks receive the day-completing :class:`IngestTick` and return
        events to append to the tick's event list — the seam the model
        lifecycle controller plugs into, so drift/retrain/promotion
        events flow through every driver (programmatic replay, JSONL,
        and the resilient guard) identically.  Hooks run *after* the
        day's alerts: the day that completes is still served by the
        champion that was active while it streamed in, and a promotion
        takes effect from the next forecast onwards.
        """
        self.day_hooks.append(hook)

    # ----------------------------------------------------------- programmatic
    def ingest_hour(
        self,
        values: np.ndarray,
        missing: np.ndarray | None = None,
        calendar_row: np.ndarray | None = None,
    ) -> list[dict]:
        """Ingest one hour; returns the events this tick produced.

        Most ticks return ``[]``.  The tick completing a day returns one
        ``"day"`` summary event plus one ``"alert"`` event per configured
        horizon (when the forecast day is in scope and any sector
        qualifies).
        """
        tick = self.engine.ingest_hour(values, missing, calendar_row)
        if not tick.day_completed:
            return []
        return self._day_events(tick)

    def ingest_block(
        self,
        values: np.ndarray,
        missing: np.ndarray | None = None,
        calendar_rows: np.ndarray | None = None,
    ) -> list[dict]:
        """Ingest a micro-batch of hours; returns all resulting events.

        Splits the block at day-completion boundaries internally, so
        every ``"day"``/``"alert"`` event (and day hook) is computed
        against exactly the engine state the per-hour driver would see —
        the emitted event stream is identical to calling
        :meth:`ingest_hour` once per block column, just cheaper.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 3:
            raise ValueError(
                f"values must be (n_sectors, n_hours, n_kpis), got {values.shape}"
            )
        if missing is not None:
            missing = np.asarray(missing, dtype=bool)
        if calendar_rows is not None:
            calendar_rows = np.asarray(calendar_rows, dtype=np.float64)
        n_hours = values.shape[1]
        first = self.engine.ingestor.hours_seen
        events: list[dict] = []
        start = 0
        while start < n_hours:
            to_boundary = HOURS_PER_DAY - (first + start) % HOURS_PER_DAY
            stop = min(start + to_boundary, n_hours)
            ticks = self.engine.ingest_block(
                values[:, start:stop, :],
                None if missing is None else missing[:, start:stop, :],
                None if calendar_rows is None else calendar_rows[start:stop],
            )
            last = ticks[-1]
            if last.day_completed:
                events.extend(self._day_events(last))
            start = stop
        return events

    def _day_events(self, tick: IngestTick) -> list[dict]:
        """The day summary + alerts + hook events for a completed day."""
        events: list[dict] = []
        labels = self.engine.ingestor.labels_daily
        currently_hot = np.nonzero(labels[:, tick.t_day] == 1)[0]
        events.append(
            {
                "type": "day",
                "t_day": tick.t_day,
                "hot_sectors": [int(i) for i in currently_hot],
            }
        )
        if tick.t_day >= self.config.start_day:
            for horizon in self.config.horizons:
                alert = build_alert(
                    tick.t_day, horizon, self.engine.predict(horizon),
                    self.engine.default_model, self.config,
                )
                if alert is not None:
                    events.append(alert)
                    self.telemetry.inc("alerts_emitted")
        for hook in self.day_hooks:
            events.extend(hook(tick))
        return events

    def stats(self) -> dict:
        """Engine + registry + telemetry snapshot."""
        return self.engine.stats()


def build_alert(
    t_day: int, horizon: int, scores: np.ndarray, model: str, policy
) -> dict | None:
    """The ``"alert"`` event for one horizon's *scores*, or ``None``.

    The top ``policy.top_k`` sectors by score (stable: ties go to the
    lower index), kept only at or above ``policy.alert_threshold`` when
    set.  *policy* is a :class:`ServeConfig` or a ``FleetConfig``.
    """
    order = np.argsort(-scores, kind="stable")[: policy.top_k]
    if policy.alert_threshold is not None:
        order = order[scores[order] >= policy.alert_threshold]
    if order.size == 0:
        return None
    return {
        "type": "alert",
        "t_day": t_day,
        "horizon": horizon,
        "forecast_day": t_day + horizon,
        "model": model,
        "sectors": [int(i) for i in order],
        "scores": [float(scores[i]) for i in order],
    }


def run_jsonl(
    lines: Iterable[str],
    out: IO[str],
    target,
    tick_handler: "Callable[..., list[dict]]",
) -> int:
    """The JSONL serving protocol of the guarded service and the fleet.

    *target* answers the read operations: it exposes ``predict(horizon,
    model=, window=)``, ``t_day``, ``stats()`` and ``telemetry`` (a
    :class:`~repro.serve.engine.PredictionEngine` or a
    :class:`~repro.fleet.coordinator.FleetCoordinator`).  Ticks go to
    ``tick_handler(values, missing, calendar, hour)`` as received, so
    admission quarantines a malformed payload.  Supported operations
    (one JSON object per input line):

    * ``{"op": "tick", "values": [[...]], "missing": ..., "calendar": ...,
      "hour": ...}`` — apply one hour; emits the tick's events.
    * ``{"op": "predict", "horizon": h, "model": ..., "window": ...}``
      — on-demand forecast; emits a ``"prediction"`` event.
    * ``{"op": "stats"}`` — emits a ``"stats"`` snapshot event.
    * ``{"op": "stop"}`` — terminates the loop.

    Malformed lines and failed operations emit structured
    ``{"event": "error", ...}`` objects (with the offending line
    number, operation, and a machine-readable ``reason``) and the loop
    keeps running — a serving process must not die on one bad payload.
    Only output-stream failures (:class:`OSError` from the event sink)
    propagate: with the emit channel gone nothing can be reported, so
    the error is unrecoverable and the CLI turns it into exit code 1.
    Returns the number of processed operations.
    """
    processed = 0
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        processed += 1
        try:
            try:
                request = json.loads(line)
            except json.JSONDecodeError as error:
                _emit_error(out, target, line_no, None, "malformed_json", error)
                continue
            if not isinstance(request, dict):
                _emit_error(
                    out, target, line_no, None, "not_an_object",
                    TypeError(f"expected a JSON object, got {type(request).__name__}"),
                )
                continue
            op = request.get("op")
            if op == "stop":
                _emit(out, {"type": "stopped", "processed": processed})
                break
            if op == "tick":
                for event in tick_handler(*_decode_tick(request)):
                    _emit(out, event)
            elif op == "predict":
                horizon = int(request["horizon"])
                scores = target.predict(
                    horizon, model=request.get("model"), window=request.get("window")
                )
                _emit(out, {
                    "type": "prediction",
                    "t_day": target.t_day,
                    "horizon": horizon,
                    "scores": [float(s) for s in scores],
                })
            elif op == "stats":
                _emit(out, {"type": "stats", **target.stats()})
            else:
                _emit_error(
                    out, target, line_no, op, "unknown_op",
                    ValueError(f"unknown op {op!r}"),
                )
        except OSError:
            # The event sink itself failed; nothing can be reported
            # downstream, so let the caller decide (CLI: exit 1).
            raise
        except Exception as error:  # noqa: BLE001 - service must survive bad input
            op = request.get("op") if isinstance(request, dict) else None
            _emit_error(out, target, line_no, op, "operation_failed", error)
    return processed


def _decode_tick(request: dict) -> tuple:
    """``(values, missing, calendar, hour)`` of a ``tick`` request, as
    received: admission coerces them, and quarantines what does not
    coerce."""
    return request["values"], request.get("missing"), request.get("calendar"), request.get("hour")


def _emit_error(out: IO[str], target, line_no: int, op, reason: str, error) -> None:
    target.telemetry.inc("stream_errors")
    _emit(
        out,
        {
            "event": "error",
            "type": "error",
            "line": line_no,
            "op": op,
            "reason": reason,
            "error": type(error).__name__,
            "message": str(error),
        },
    )


def _emit(out: IO[str], event: dict) -> None:
    out.write(json.dumps(event) + "\n")
    out.flush()
