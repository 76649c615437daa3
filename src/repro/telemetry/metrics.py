"""Thread-safe metrics primitives: labeled counters, gauges and histograms.

The registry is deliberately tiny — three instrument kinds, a flat name +
label-set keyspace, and no background machinery — but it follows the same
contracts as a production metrics library:

* every mutation is guarded by a lock, so engines, servers and maintainers
  can share one registry across threads;
* histograms use **fixed bucket upper bounds** chosen at creation, so two
  snapshots of the same histogram are always comparable and quantiles can be
  computed over a *delta* window (``quantile(q, baseline=...)``);
* per-task mutations in worker processes are captured as a
  :class:`MetricsDelta` — an ordered, picklable list of operations — and
  replayed into the coordinator's registry **in task order** at the phase
  barrier, exactly the :class:`~repro.mapreduce.counters.Counters`
  discipline.  Telemetry therefore crosses the executor seam on the same
  path as every result, and never perturbs task RNGs, payload bytes or merge
  order.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_BYTE_BUCKETS",
    "Histogram",
    "MetricsDelta",
    "MetricsRegistry",
    "apply_task_metrics",
]

# Upper bounds (seconds) spanning microsecond-scale batch evaluations up to
# multi-second build phases; an implicit +inf bucket catches the rest.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0, 30.0,
)

# Upper bounds (bytes) for payload-size histograms: 256 B .. 64 MiB.
DEFAULT_BYTE_BUCKETS: Tuple[float, ...] = (
    256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
    1048576.0, 4194304.0, 16777216.0, 67108864.0,
)

# A label set is canonicalised to a sorted tuple of (key, value) pairs so it
# can key dictionaries and survive pickling unchanged.
LabelSet = Tuple[Tuple[str, str], ...]


def _label_set(labels: Optional[Mapping[str, Any]]) -> LabelSet:
    """Canonicalise a label mapping into a sorted, hashable tuple."""
    if not labels:
        return ()
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


class Histogram:
    """A fixed-bucket histogram with exact sum/count/min/max side-channels.

    Buckets are **upper bounds** (strictly increasing); one implicit +inf
    bucket is always appended.  Observations update cumulative-free per-bucket
    counts plus exact ``sum``/``count``/``min``/``max``, which is everything
    the Prometheus exposition format and the quantile estimator need.

    All methods are thread-safe.
    """

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram bucket bounds must be strictly increasing")
        self.bounds: Tuple[float, ...] = bounds
        self._lock = threading.Lock()
        # One slot per bound plus the +inf overflow slot.
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count: int = 0
        self.sum: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def copy(self) -> "Histogram":
        """A point-in-time snapshot with the same bucket bounds."""
        clone = Histogram(self.bounds)
        with self._lock:
            clone.bucket_counts = list(self.bucket_counts)
            clone.count = self.count
            clone.sum = self.sum
            clone.min = self.min
            clone.max = self.max
        return clone

    def quantile(self, q: float, baseline: Optional["Histogram"] = None) -> float:
        """Estimate the q-quantile by linear interpolation within buckets.

        Args:
            q: quantile in [0, 1].
            baseline: an earlier :meth:`copy` of this histogram.  When given,
                the quantile is computed over the observations made *since*
                the baseline (per-bucket count deltas) — the trick that lets
                a benchmark read p50/p99 of just its measurement window from
                a shared, long-lived histogram.

        Returns:
            The estimated quantile, or ``nan`` when the window holds no
            observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self.bucket_counts)
            low = self.min
            high = self.max
        if baseline is not None:
            if baseline.bounds != self.bounds:
                raise ValueError("baseline histogram has different bucket bounds")
            counts = [c - b for c, b in zip(counts, baseline.bucket_counts)]
            if any(c < 0 for c in counts):
                raise ValueError("baseline is not an earlier snapshot of this histogram")
        total = sum(counts)
        if total == 0:
            return math.nan
        rank = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                lower = self.bounds[index - 1] if index > 0 else min(low, self.bounds[0])
                if index < len(self.bounds):
                    upper = self.bounds[index]
                else:  # +inf bucket: fall back on the exact max.
                    upper = high if math.isfinite(high) else self.bounds[-1]
                if not math.isfinite(lower) or lower > upper:
                    lower = upper
                fraction = (rank - previous) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return high  # pragma: no cover - unreachable, rank <= total

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-friendly dict of bounds, counts and the exact aggregates."""
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "bucket_counts": list(self.bucket_counts),
                "count": self.count,
                "sum": self.sum,
                "min": None if self.count == 0 else self.min,
                "max": None if self.count == 0 else self.max,
            }


# One recorded operation: (op, name, canonical label set, value) where op is
# "inc", "gauge" or "observe".  Plain tuples keep the delta picklable across
# the process-pool boundary.
DeltaEntry = Tuple[str, str, LabelSet, float]


@dataclass
class MetricsDelta:
    """An ordered, picklable log of metric mutations made inside one task.

    Worker processes cannot share the coordinator's registry, so tasks append
    to a delta instead; the runner replays deltas **in task order** at the
    phase barrier via :meth:`apply_to` — mirroring how per-task
    :class:`~repro.mapreduce.counters.Counters` merge.  Replay order is the
    append order, so applying ``d1`` then ``d2`` is bit-identical to having
    made the same calls directly, in that order, on the registry.
    """

    entries: List[DeltaEntry] = field(default_factory=list)

    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Record a counter increment."""
        self.entries.append(("inc", name, _label_set(labels), float(amount)))

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Record a gauge assignment."""
        self.entries.append(("gauge", name, _label_set(labels), float(value)))

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record a histogram observation."""
        self.entries.append(("observe", name, _label_set(labels), float(value)))

    def merge(self, other: "MetricsDelta") -> None:
        """Append another delta's entries after this one's (order preserved)."""
        self.entries.extend(other.entries)

    def apply_to(self, registry: "MetricsRegistry") -> None:
        """Replay every recorded mutation, in order, into a registry."""
        registry.apply_delta(self)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class MetricsRegistry:
    """A process-local, thread-safe registry of counters, gauges and histograms.

    Instruments are identified by ``(name, label set)``; labels are passed as
    keyword arguments and canonicalised (sorted, stringified) so the same
    logical series always lands on the same slot.  Histograms are created on
    first touch with the bucket bounds supplied then — later calls reuse the
    existing instrument and their ``buckets`` argument is ignored (first
    writer wins), so shared handles stay comparable.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelSet], float] = {}
        self._gauges: Dict[Tuple[str, LabelSet], float] = {}
        self._histograms: Dict[Tuple[str, LabelSet], Histogram] = {}

    # ------------------------------------------------------------- mutation
    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` to a counter (created at zero on first touch)."""
        key = (name, _label_set(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + float(amount)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge to ``value``."""
        key = (name, _label_set(labels))
        with self._lock:
            self._gauges[key] = float(value)

    def adjust_gauge(self, name: str, delta: float, **labels: Any) -> None:
        """Add ``delta`` (may be negative) to a gauge, created at zero.

        For resource-style gauges tracked by paired acquire/release call
        sites — e.g. ``repro_payload_bytes_resident`` — where no single
        component knows the absolute level to ``set_gauge``.
        """
        key = (name, _label_set(labels))
        with self._lock:
            self._gauges[key] = self._gauges.get(key, 0.0) + float(delta)

    def observe(self, name: str, value: float,
                buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                **labels: Any) -> None:
        """Record ``value`` into a histogram (created on first touch)."""
        self.histogram(name, buckets=buckets, **labels).observe(value)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  **labels: Any) -> Histogram:
        """Get-or-create the histogram for ``(name, labels)``.

        The returned object is the live instrument, so callers (e.g. the
        serving benchmark) can take a :meth:`Histogram.copy` baseline and
        later compute delta-window quantiles while other code keeps
        observing into the same histogram.
        """
        key = (name, _label_set(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = Histogram(buckets)
                self._histograms[key] = histogram
            return histogram

    def apply_delta(self, delta: MetricsDelta) -> None:
        """Replay a per-task delta's operations in their recorded order."""
        for op, name, labels, value in delta.entries:
            key = (name, labels)
            if op == "inc":
                with self._lock:
                    self._counters[key] = self._counters.get(key, 0.0) + value
            elif op == "gauge":
                with self._lock:
                    self._gauges[key] = value
            elif op == "observe":
                with self._lock:
                    histogram = self._histograms.get(key)
                    if histogram is None:
                        histogram = Histogram(DEFAULT_LATENCY_BUCKETS)
                        self._histograms[key] = histogram
                histogram.observe(value)
            else:
                raise ValueError(f"unknown metrics delta op {op!r}")

    def reset(self) -> None:
        """Drop every instrument (used by tests and long-lived processes)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -------------------------------------------------------------- reading
    def counter_value(self, name: str, **labels: Any) -> float:
        """Current value of a counter (0.0 when never touched)."""
        with self._lock:
            return self._counters.get((name, _label_set(labels)), 0.0)

    def gauge_value(self, name: str, **labels: Any) -> Optional[float]:
        """Current value of a gauge, or ``None`` when never set."""
        with self._lock:
            return self._gauges.get((name, _label_set(labels)))

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serialisable snapshot of every instrument.

        The shape is ``{"counters": [...], "gauges": [...], "histograms":
        [...]}`` where each entry carries ``name``, ``labels`` (a plain dict)
        and the instrument's state — the registry half of the JSON exposition
        format.
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in counters
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in gauges
            ],
            "histograms": [
                {"name": name, "labels": dict(labels), **histogram.snapshot()}
                for (name, labels), histogram in histograms
            ],
        }


def apply_task_metrics(results: Iterable[Any],
                       registry: Optional[MetricsRegistry]) -> None:
    """Replay ``TaskResult.metrics`` deltas into ``registry`` in task order.

    The helper for a barrier that folds worker results back into the
    coordinator: the stream ingestor's sharded counting calls it with its
    already-ordered result list (the job runner's phase merge replays each
    result's delta inline, in the same order).
    """
    if registry is None:
        return
    for result in results:
        delta = getattr(result, "metrics", None)
        if delta is not None:
            registry.apply_delta(delta)
