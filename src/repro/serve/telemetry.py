"""Serving-side observability: counters and latency histograms.

The online service needs cheap, dependency-free instrumentation: how
many ticks were ingested, how often the prediction cache hits, and how
long ingest/predict calls take at the median and the tail.  Counters are
plain integers; latencies go into fixed log-spaced bucket histograms
(microseconds to seconds) so percentile estimates cost O(buckets) and
memory stays constant no matter how long the service runs.

Everything is exposed through :meth:`ServeTelemetry.stats`, a plain
nested-dict snapshot that later observability layers (JSON endpoints,
log shippers) can serialise directly.

The gateway exposes counters and the raw histogram buckets through the
Prometheus text renderer in :mod:`repro.gateway.metrics`; its gauges
(DLQ depth, clock, per-shard rows) are point-in-time readings taken
from the serving stack at render time, not stored here.

The resilience layer (PR 3) adds a third primitive: a bounded
**structured event log**.  Quarantines, gap fills, degradations, and
recoveries are recorded as plain dicts (``{"event": kind, ...}``) in a
fixed-capacity ring, with a per-kind counter (``events_<kind>``) so the
totals survive after old events rotate out.
"""

from __future__ import annotations

import bisect
import time
from collections import deque

import numpy as np

__all__ = ["LatencyHistogram", "ServeTelemetry"]


class LatencyHistogram:
    """Log-spaced bucket histogram of durations in seconds.

    Parameters
    ----------
    lo, hi:
        Bounds of the bucketed range; durations outside it land in the
        first/last (overflow) bucket.
    n_buckets:
        Number of geometric bucket boundaries between *lo* and *hi*.

    Quantile estimates return the geometric midpoint of the bucket the
    quantile falls into, so their relative error is bounded by the
    bucket ratio (~16 % with the defaults) — plenty for p50/p99
    monitoring without storing samples.
    """

    def __init__(
        self,
        lo: float = 1e-6,
        hi: float = 30.0,
        n_buckets: int = 64,
        bounds: "np.ndarray | None" = None,
    ) -> None:
        if bounds is not None:
            bounds = np.asarray(bounds, dtype=np.float64)
        else:
            if not 0 < lo < hi:
                raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
            if n_buckets < 2:
                raise ValueError(f"n_buckets must be >= 2, got {n_buckets}")
            bounds = np.geomspace(lo, hi, n_buckets)
        # Monotonicity is validated at construction, not assumed: a
        # non-increasing edge would silently break searchsorted bucketing
        # (and the Prometheus `le` exposition, which requires strictly
        # increasing upper bounds).
        if bounds.ndim != 1 or bounds.size < 2:
            raise ValueError(f"bounds must be a 1-D array of >= 2 edges, got {bounds.shape}")
        if not np.all(bounds > 0) or not np.all(np.isfinite(bounds)):
            raise ValueError("bucket bounds must be positive and finite")
        if not np.all(np.diff(bounds) > 0):
            raise ValueError(f"bucket bounds must be strictly increasing, got {bounds}")
        #: Upper bound of each bucket; the final slot catches overflow.
        self._bounds = bounds
        #: The bounds as floats, for a scalar bisect in record().
        self._edges = bounds.tolist()
        self._counts = np.zeros(bounds.size + 1, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    @property
    def bucket_bounds(self) -> np.ndarray:
        """Read-only view of the bucket upper bounds (seconds)."""
        view = self._bounds.view()
        view.flags.writeable = False
        return view

    @property
    def bucket_counts(self) -> np.ndarray:
        """Read-only view of the per-bucket counts (last slot = overflow)."""
        view = self._counts.view()
        view.flags.writeable = False
        return view

    def record(self, seconds: float) -> None:
        """Add one duration observation."""
        seconds = float(seconds)
        if not seconds >= 0:
            raise ValueError(f"duration must be non-negative, got {seconds}")
        # bisect_left on the edges is np.searchsorted's default side.
        self._counts[bisect.bisect_left(self._edges, seconds)] += 1
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (q in [0, 1]) from the bucket counts."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * (self.count - 1)
        cumulative = np.cumsum(self._counts)
        bucket = int(np.searchsorted(cumulative, rank, side="right"))
        if bucket >= self._bounds.size:
            return self.max
        lo = self._bounds[bucket - 1] if bucket > 0 else 0.0
        hi = self._bounds[bucket]
        midpoint = np.sqrt(lo * hi) if lo > 0 else hi / 2.0
        return float(min(midpoint, self.max))

    def summary(self) -> dict:
        """Snapshot: count, mean, p50, p99, and max (seconds)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "max": self.max,
        }

    def merge_from(self, other: "LatencyHistogram") -> None:
        """Pool *other*'s observations into this histogram.

        Both histograms must share the same bucket boundaries (they do
        when both were built with the defaults).  Bucket counts add
        exactly, so pooled quantile estimates are what a single
        histogram fed both observation streams would report.
        """
        if not np.array_equal(self._bounds, other._bounds):
            raise ValueError(
                "cannot merge histograms with different bucket boundaries"
            )
        self._counts += other._counts
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max


class ServeTelemetry:
    """Named counters and latency histograms for the serving layer.

    Counters and histograms are created lazily on first use, so callers
    just ``inc("ingest_ticks")`` or ``with telemetry.timer("predict"):``
    without pre-registration.
    """

    def __init__(self, max_events: int = 256) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        self._events: deque[dict] = deque(maxlen=max_events)
        self.events_seen = 0

    # ------------------------------------------------------------- counters
    def inc(self, name: str, amount: int = 1) -> int:
        """Increment counter *name*; returns the new value."""
        value = self._counters.get(name, 0) + amount
        self._counters[name] = value
        return value

    def counter(self, name: str) -> int:
        """Current value of counter *name* (0 if never incremented)."""
        return self._counters.get(name, 0)

    def counters(self, prefix: str = "") -> dict[str, int]:
        """Name-sorted counters filtered to those starting with *prefix*.

        ``counters("events_")`` pulls the per-kind event totals,
        ``counters("worker_")`` the supervisor's restart bookkeeping —
        handy for status lines that report one counter family.
        """
        return {
            name: value
            for name, value in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    # ------------------------------------------------------------ latencies
    def histogram(self, name: str) -> LatencyHistogram:
        """The histogram registered under *name* (created on first use)."""
        if name not in self._histograms:
            self._histograms[name] = LatencyHistogram()
        return self._histograms[name]

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration into histogram *name*."""
        self.histogram(name).record(seconds)

    def histograms(self) -> dict[str, LatencyHistogram]:
        """Snapshot of the registered histograms by name (shared refs)."""
        return dict(self._histograms)

    def timer(self, name: str) -> "_Timer":
        """Context manager timing its body into histogram *name*."""
        return _Timer(self.histogram(name))

    # -------------------------------------------------------------- events
    def event(self, kind: str, **fields) -> dict:
        """Record a structured event; returns the stored record.

        The record is ``{"event": kind, **fields}`` — JSON-serialisable
        by construction as long as the caller passes plain values.  The
        per-kind counter ``events_<kind>`` is bumped alongside, so event
        totals remain exact even after the bounded log rotates.
        """
        record = {"event": kind, **fields}
        self._events.append(record)
        self.events_seen += 1
        self.inc(f"events_{kind}")
        return record

    def events(self, kind: str | None = None) -> list[dict]:
        """Buffered events, newest last, optionally filtered by kind."""
        if kind is None:
            return list(self._events)
        return [record for record in self._events if record["event"] == kind]

    # --------------------------------------------------------------- merge
    def merge(self, others: "Iterable[ServeTelemetry]") -> "ServeTelemetry":
        """A new telemetry combining this one with *others*.

        Counters sum, latency histograms pool bucket-by-bucket, and
        ``events_seen`` adds — the fleet coordinator uses this to fold
        per-shard telemetries into one network-wide snapshot.  Neither
        operand is mutated, and the numeric snapshot (:meth:`stats`) is
        **commutative**: ``a.merge([b])`` and ``b.merge([a])`` report
        identical counters, latency summaries, and event totals.  Only
        the *order* of the buffered event log depends on operand order
        (events concatenate self-first, bounded by this instance's
        capacity).
        """
        merged = ServeTelemetry(max_events=self._events.maxlen or 1)
        sources = [self, *others]
        for source in sources:
            for name, value in source._counters.items():
                merged._counters[name] = merged._counters.get(name, 0) + value
            for name, histogram in source._histograms.items():
                merged.histogram(name).merge_from(histogram)
            merged._events.extend(source._events)
            merged.events_seen += source.events_seen
        return merged

    # ------------------------------------------------------------- snapshot
    def stats(self) -> dict:
        """Plain-dict snapshot of every counter and histogram summary."""
        return {
            "counters": dict(self._counters),
            "latency": {
                name: histogram.summary()
                for name, histogram in self._histograms.items()
            },
            "events": {
                "seen": self.events_seen,
                "buffered": len(self._events),
            },
        }


class _Timer:
    """:meth:`ServeTelemetry.timer`'s context manager: a plain class, as
    it runs once per ingested tick and a generator-based one costs
    several times more."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: LatencyHistogram) -> None:
        self._histogram = histogram

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self._histogram.record(time.perf_counter() - self._start)
