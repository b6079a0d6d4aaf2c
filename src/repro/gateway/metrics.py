"""Prometheus text exposition for :class:`~repro.serve.telemetry.ServeTelemetry`.

Renders the serving layer's counters and latency histograms, plus the
caller's point-in-time gauges, in the `text exposition format (version 0.0.4)
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ with no
client-library dependency:

* counters → ``<prefix>_<name>_total``;
* *extra_gauges* → ``<prefix>_<name>``, optionally labeled (the gateway uses
  labels for per-shard state, e.g. ``repro_shard_degraded{shard="2"}``);
* latency histograms → cumulative ``_bucket{le="..."}`` series straight
  from :attr:`LatencyHistogram.bucket_bounds` / ``bucket_counts``, plus
  ``_sum`` and ``_count``.

:func:`validate_exposition` is a strict line-level checker used by the
tests and the CI gateway job to assert the scrape output actually
parses — names legal, every ``# TYPE`` declared before its samples,
histogram buckets cumulative and capped by ``+Inf``.
"""

from __future__ import annotations

import math
import re

from repro.serve.telemetry import ServeTelemetry

__all__ = ["render_prometheus", "validate_exposition"]

#: Extra gauge samples: ``(name, labels-or-None, value)``.
GaugeSample = "tuple[str, dict[str, str] | None, float]"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_PAIR = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def _sanitize(name: str) -> str:
    name = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _fmt(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labels(labels: "dict[str, str] | None") -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{_sanitize(str(key))}="{_escape(str(val))}"'
        for key, val in sorted(labels.items())
    )
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_prometheus(
    telemetry: ServeTelemetry,
    prefix: str = "repro",
    extra_gauges: "list[GaugeSample] | None" = None,
) -> str:
    """Render *telemetry* (plus *extra_gauges*) as Prometheus text.

    *extra_gauges* carries the gauges, point-in-time readings that live
    outside the telemetry object — queue depths, per-shard flags — as
    ``(name, labels, value)`` triples; samples sharing a name render
    under one ``# TYPE`` header.
    """
    lines: list[str] = []

    for name, value in sorted(telemetry.counters().items()):
        metric = f"{prefix}_{_sanitize(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(value)}")

    samples: dict[str, list[tuple["dict[str, str] | None", float]]] = {}
    for name, labels, value in extra_gauges or []:
        samples.setdefault(_sanitize(name), []).append((labels, float(value)))
    for name in sorted(samples):
        metric = f"{prefix}_{name}"
        lines.append(f"# TYPE {metric} gauge")
        for labels, value in samples[name]:
            lines.append(f"{metric}{_labels(labels)} {_fmt(value)}")

    for name, histogram in sorted(telemetry.histograms().items()):
        metric = f"{prefix}_{_sanitize(name)}_seconds"
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        counts = histogram.bucket_counts
        for bound, count in zip(histogram.bucket_bounds, counts[:-1]):
            cumulative += int(count)
            lines.append(f'{metric}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
        lines.append(f"{metric}_sum {_fmt(histogram.total)}")
        lines.append(f"{metric}_count {histogram.count}")

    return "\n".join(lines) + "\n" if lines else ""


def validate_exposition(text: str) -> int:
    """Strictly check Prometheus text exposition; returns the sample count.

    Raises :class:`ValueError` on the first malformed line, a sample
    whose metric family lacks a preceding ``# TYPE``, or a histogram
    whose cumulative buckets decrease or exceed their ``+Inf`` cap.
    """
    declared: dict[str, str] = {}
    bucket_last: dict[str, float] = {}
    n_samples = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ValueError(f"line {lineno}: malformed TYPE line: {line!r}")
            if not _NAME_OK.match(parts[2]):
                raise ValueError(f"line {lineno}: illegal metric name {parts[2]!r}")
            declared[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # HELP/comment lines are free-form
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample line: {line!r}")
        name, labels, raw_value = match.group("name", "labels", "value")
        if labels:
            for pair in re.split(r",(?=[a-zA-Z_])", labels):
                if not _LABEL_PAIR.match(pair):
                    raise ValueError(f"line {lineno}: malformed label pair {pair!r}")
        try:
            value = float(raw_value)
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric value {raw_value!r}") from None
        family = name
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            if name.endswith(suffix):
                family = name[: -len(suffix)]
                break
        if name not in declared and family not in declared:
            raise ValueError(f"line {lineno}: sample {name!r} has no TYPE declaration")
        if name.endswith("_bucket"):
            if declared.get(family) != "histogram":
                raise ValueError(f"line {lineno}: _bucket sample on non-histogram {family!r}")
            last = bucket_last.get(family, -math.inf)
            if value < last:
                raise ValueError(
                    f"line {lineno}: histogram {family!r} buckets not cumulative "
                    f"({value} < {last})"
                )
            bucket_last[family] = value
        n_samples += 1
    return n_samples
