"""Shared serving-throughput measurement harness.

Both user-facing surfaces that report queries/sec — the ``serve-bench`` CLI
command and ``benchmarks/test_query_throughput.py`` — run this one harness,
so the warm-up protocol, the scalar baseline and the 1e-9 agreement bound
cannot drift apart.  The harness always measures a
synopsis *after* a store round trip (a :class:`~repro.serving.store.StoredSynopsis`),
because that is the path a serving process executes: load, verify checksum,
build the engine, answer.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import ServingError
from repro.serving.store import StoredSynopsis
from repro.serving.workload import QueryWorkload
from repro.telemetry import get_telemetry

__all__ = ["ThroughputReport", "measure_serving_throughput", "AGREEMENT_ATOL"]

logger = logging.getLogger(__name__)

# The batch engine must match the scalar loop to this absolute tolerance.
AGREEMENT_ATOL = 1e-9


@dataclass(frozen=True)
class ThroughputReport:
    """One serving-throughput measurement: scalar loop vs batch engine.

    Attributes:
        queries: queries per measured pass.
        mix: workload mix of the primary (scalar vs batch) comparison.
        scalar_seconds: wall-clock of the legacy per-query coefficient loop.
        batch_seconds: best wall-clock of a few warmed vectorized passes (a
            single milliseconds-long pass is scheduler-noise bound).
        max_abs_difference: worst |batch - scalar| (verified <= atol).
        latency_batch_size: queries per sub-batch of the latency pass.
        latency_p50_ms / latency_p99_ms: median and 99th-percentile wall-clock
            of one ``latency_batch_size``-query batch through the engine — the
            per-request latency a serving process would see at
            that batch size (``None`` when the workload was too small to
            form a batch).
        payload_mmap_total: mmap'd payload loads made during the call
            (the change in ``repro_payload_mmap_total``).
        payload_resident_bytes: resident payload bytes by kind
            (``repro_payload_bytes_resident{kind=mapped|heap}``).
        ship_bytes: task-shipping bytes by mode shipped during the call (the
            change in ``repro_task_ship_bytes_total``, summed over phases) —
            nonzero when a fan-out executor shipped query shards.
    """

    queries: int
    mix: str
    scalar_seconds: float
    batch_seconds: float
    max_abs_difference: float
    latency_batch_size: Optional[int] = None
    latency_p50_ms: Optional[float] = None
    latency_p99_ms: Optional[float] = None
    payload_mmap_total: Optional[float] = None
    payload_resident_bytes: Optional[Dict[str, float]] = None
    ship_bytes: Optional[Dict[str, float]] = None

    @property
    def scalar_qps(self) -> float:
        return self.queries / self.scalar_seconds if self.scalar_seconds else float("inf")

    @property
    def batch_qps(self) -> float:
        return self.queries / self.batch_seconds if self.batch_seconds else float("inf")

    @property
    def speedup(self) -> float:
        """Batch engine speedup over the scalar loop."""
        return self.scalar_seconds / self.batch_seconds if self.batch_seconds else float("inf")

    def table_lines(self) -> List[str]:
        """The throughput table both the CLI and the benchmark print."""
        lines = [
            f"max |batch - scalar| = {self.max_abs_difference:.2e} "
            f"(bound {AGREEMENT_ATOL:g} verified)",
            f"{'path':<16} {'queries/s':>14} {'speedup':>9}",
            f"{'scalar loop':<16} {self.scalar_qps:>14,.0f} {1.0:>9.1f}",
            f"{'batch engine':<16} {self.batch_qps:>14,.0f} {self.speedup:>9.1f}",
        ]
        if self.latency_p50_ms is not None:
            lines.append(
                f"latency per {self.latency_batch_size}-query batch: "
                f"p50 {self.latency_p50_ms:.3f} ms, p99 {self.latency_p99_ms:.3f} ms"
            )
        if self.payload_resident_bytes is not None:
            resident = ", ".join(
                f"{kind} {int(value):,} B"
                for kind, value in sorted(self.payload_resident_bytes.items())
            ) or "none"
            lines.append(
                f"payloads: {int(self.payload_mmap_total or 0)} mmap'd load(s), "
                f"resident {resident}"
            )
        if self.ship_bytes:
            shipped = ", ".join(
                f"{mode} {int(value):,} B"
                for mode, value in sorted(self.ship_bytes.items())
            )
            lines.append(f"task shipping: {shipped}")
        return lines


def measure_serving_throughput(
    served: StoredSynopsis,
    workload: QueryWorkload,
    *,
    latency_batch_size: int = 256,
    atol: float = AGREEMENT_ATOL,
) -> ThroughputReport:
    """Measure one stored synopsis: scalar loop vs batch engine.

    Args:
        served: the store-round-tripped synopsis to serve.
        workload: the queries timed for the scalar-vs-batch comparison.
        latency_batch_size: sub-batch size of the per-batch latency pass
            (p50/p99 over one timed engine call per sub-batch; 0 skips it).
        atol: scalar/batch agreement bound.

    Raises:
        ServingError: if the batch engine disagrees with the scalar loop
            beyond ``atol``.
    """
    # The registry is process-wide: report only what this call adds to it.
    registry = get_telemetry().metrics
    mmap_before = registry.counter_value("repro_payload_mmap_total")
    ship_before = _ship_bytes_by_mode(registry.snapshot())

    histogram = served.histogram
    start = time.perf_counter()
    scalar = np.array([histogram.range_sum_scalar(lo, hi) for lo, hi in workload])
    scalar_seconds = time.perf_counter() - start

    engine = served.engine()
    engine.range_sum_many(workload.los[:8], workload.his[:8])  # warm numpy dispatch
    # A vectorized pass over the whole workload takes only milliseconds, so a
    # single timing is at the mercy of scheduler noise; report the best of a
    # few passes (the scalar loop is long enough to be stable as-is).
    batch_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        batch = engine.range_sum_many(workload.los, workload.his)
        batch_seconds = min(batch_seconds, time.perf_counter() - start)

    worst = float(np.max(np.abs(batch - scalar)))
    if worst > atol:
        raise ServingError(
            f"batch engine disagrees with the scalar loop: max |diff| = {worst:.3e}"
        )

    latency_p50_ms = None
    latency_p99_ms = None
    if latency_batch_size > 0 and len(workload) >= latency_batch_size:
        # Per-batch latency: the engine already observes every
        # range_sum_many call into the shared repro_serving_batch_seconds
        # histogram, so snapshot a baseline, replay the fixed-size
        # sub-batches, and read p50/p99 back out of the window's deltas —
        # the same series a live metrics scrape of a serving process sees.
        hist = get_telemetry().metrics.histogram(
            "repro_serving_batch_seconds", op="range_sum"
        )
        baseline = hist.copy()
        batches = 0
        for start_index in range(0, len(workload) - latency_batch_size + 1,
                                 latency_batch_size):
            stop = start_index + latency_batch_size
            engine.range_sum_many(workload.los[start_index:stop],
                                  workload.his[start_index:stop])
            batches += 1
        latency_p50_ms = hist.quantile(0.5, baseline=baseline) * 1e3
        latency_p99_ms = hist.quantile(0.99, baseline=baseline) * 1e3
        logger.debug("latency pass: %d sub-batches of %d queries",
                     batches, latency_batch_size)

    # Zero-copy observability: how the measured payload is resident (mapped
    # vs heap) and what any fan-out executor shipped during the call, read
    # from the process registry so serve-bench output matches a live scrape.
    snapshot = registry.snapshot()
    resident = {
        entry["labels"].get("kind", ""): entry["value"]
        for entry in snapshot["gauges"]
        if entry["name"] == "repro_payload_bytes_resident" and entry["value"]
    }
    ship = {
        mode: total - ship_before.get(mode, 0.0)
        for mode, total in _ship_bytes_by_mode(snapshot).items()
        if total != ship_before.get(mode, 0.0)
    }

    return ThroughputReport(
        queries=len(workload),
        mix=workload.mix,
        scalar_seconds=scalar_seconds,
        batch_seconds=batch_seconds,
        max_abs_difference=worst,
        latency_batch_size=latency_batch_size if latency_p50_ms is not None else None,
        latency_p50_ms=latency_p50_ms,
        latency_p99_ms=latency_p99_ms,
        payload_mmap_total=(registry.counter_value("repro_payload_mmap_total")
                            - mmap_before),
        payload_resident_bytes=resident,
        ship_bytes=ship,
    )


def _ship_bytes_by_mode(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """``repro_task_ship_bytes_total`` of a registry snapshot, summed by mode."""
    ship: Dict[str, float] = {}
    for entry in snapshot["counters"]:
        if entry["name"] == "repro_task_ship_bytes_total":
            mode = entry["labels"].get("mode", "")
            ship[mode] = ship.get(mode, 0.0) + entry["value"]
    return ship
