"""StreamIngestor: raw update batches in, mergeable partial synopses out.

The ingestor is the streaming counterpart of the batch mapper: it turns
arrays of inserted/deleted keys into :class:`~repro.streaming.partial.PartialSynopsis`
count deltas through the columnar plane (``np.bincount`` per shard).  Large
batches optionally fan out across the PR-1
:class:`~repro.mapreduce.executor.Executor` seam as generic
:class:`~repro.mapreduce.executor.FunctionTaskSpec` tasks — a
``SerialExecutor`` counts shards inline, a ``ParallelExecutor`` spreads them
over worker processes.  Shard partials are merged in task order, and because
the merge is exact integer addition the resulting partial is **independent of
the executor and the sharding** — the same bit-identical guarantee the build
runtime makes for MapReduce jobs.

An ingestor also accumulates what it has counted (per partition, typically)
so a caller can :meth:`StreamIngestor.drain` one merged partial per
maintenance cycle instead of shipping every batch individually.
"""

from __future__ import annotations

import logging
import time
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core.haar import validate_domain
from repro.errors import InvalidParameterError
from repro.mapreduce.executor import Executor, FunctionTaskSpec
from repro.streaming.partial import PartialSynopsis
from repro.telemetry import apply_task_metrics, get_telemetry

__all__ = ["StreamIngestor", "count_update_shard"]

logger = logging.getLogger(__name__)


def count_update_shard(
    payload: Tuple[int, np.ndarray, np.ndarray]
) -> PartialSynopsis:
    """Worker entry point: count one shard of an update batch.

    Module-level (picklable) so a ParallelExecutor can ship it to worker
    processes; runs the same ``np.bincount`` pass the inline path runs.
    """
    u, inserts, deletes = payload
    return PartialSynopsis.from_updates(u, inserts, deletes)


class StreamIngestor:
    """Counts update batches into partial synopses, optionally sharded.

    Args:
        u: domain size (power of two) of the stream's keys.
        partition: optional label stamped on produced partials (one ingestor
            per input partition is the intended deployment shape).
        executor: optional task executor; batches larger than ``shard_size``
            updates are counted as parallel shards through it.  ``None``
            counts every batch inline.
        shard_size: maximum updates counted per shard when an executor is
            configured; batches at or below this size are never sharded.
    """

    def __init__(
        self,
        u: int,
        *,
        partition: Optional[str] = None,
        executor: Optional[Executor] = None,
        shard_size: int = 65536,
    ) -> None:
        validate_domain(u)
        if shard_size < 1:
            raise InvalidParameterError(f"shard_size must be positive, got {shard_size}")
        self.u = u
        self.partition = partition
        self.executor = executor
        self.shard_size = shard_size
        self._pending = PartialSynopsis.empty(u, partition=partition)

    # ---------------------------------------------------------------- counting
    def batch(
        self, inserts: Optional[Any] = None, deletes: Optional[Any] = None
    ) -> PartialSynopsis:
        """Count one update batch into a fresh partial (nothing accumulated).

        This is the pure conversion step: the result is exactly
        ``PartialSynopsis.from_updates(u, inserts, deletes)`` however the
        work was sharded across the executor.
        """
        inserts = self._as_array(inserts)
        deletes = self._as_array(deletes)
        total = inserts.size + deletes.size
        telemetry = get_telemetry()
        started = time.perf_counter()
        if self.executor is None or total <= self.shard_size:
            partial = PartialSynopsis.from_updates(
                self.u, inserts, deletes, partition=self.partition
            )
            shards = 1
        else:
            partial, shards = self._sharded_batch(inserts, deletes)
        registry = telemetry.metrics
        if inserts.size:
            registry.inc("repro_stream_updates_total", float(inserts.size),
                         kind="insert")
        if deletes.size:
            registry.inc("repro_stream_updates_total", float(deletes.size),
                         kind="delete")
        registry.observe("repro_stream_ingest_seconds",
                         time.perf_counter() - started)
        telemetry.tracer.record(
            "ingest.batch", kind="streaming",
            duration_s=time.perf_counter() - started,
            updates=int(total), shards=shards,
            partition=self.partition or "",
        )
        return partial

    def accept(
        self, inserts: Optional[Any] = None, deletes: Optional[Any] = None
    ) -> PartialSynopsis:
        """Count one batch and fold it into the pending accumulator.

        Returns the batch's own partial (the accumulator keeps the merged
        running delta until :meth:`drain`).
        """
        partial = self.batch(inserts, deletes)
        self._pending = self._pending.merge(partial)
        return partial

    # ------------------------------------------------------------ accumulation
    @property
    def pending(self) -> PartialSynopsis:
        """The merged delta of every accepted-but-undrained batch."""
        return self._pending

    def drain(self) -> PartialSynopsis:
        """Hand over the accumulated partial and reset the accumulator."""
        drained = self._pending
        self._pending = PartialSynopsis.empty(self.u, partition=self.partition)
        return drained

    # -------------------------------------------------------------- internals
    def _as_array(self, keys: Optional[Any]) -> np.ndarray:
        if keys is None:
            return np.zeros(0, dtype=np.int64)
        array = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        if array.ndim != 1:
            raise InvalidParameterError("update keys must be a 1-D array")
        return array

    def _sharded_batch(
        self, inserts: np.ndarray, deletes: np.ndarray
    ) -> Tuple[PartialSynopsis, int]:
        specs: List[FunctionTaskSpec] = []
        for kind, array in (("insert", inserts), ("delete", deletes)):
            for start in range(0, array.size, self.shard_size):
                chunk = array[start : start + self.shard_size]
                payload = (
                    self.u,
                    chunk if kind == "insert" else None,
                    chunk if kind == "delete" else None,
                )
                specs.append(FunctionTaskSpec(
                    task_id=len(specs),
                    function=count_update_shard,
                    payload=payload,
                ))
        assert self.executor is not None
        logger.debug("counting %d updates as %d shard(s)",
                     inserts.size + deletes.size, len(specs))
        results = self.executor.run_tasks(specs, slots=len(specs))
        # Shard timings ride each TaskResult as a metrics delta; replay them
        # in task order, the same barrier discipline the runtime uses.
        apply_task_metrics(results, get_telemetry().metrics)
        merged = PartialSynopsis.empty(self.u, partition=self.partition)
        for result in results:
            merged = merged.merge(result.pairs[0][1])
        # The shards came from one logical batch: restore batch-level
        # bookkeeping (every shard counted itself as a batch of its own).
        return PartialSynopsis(
            u=self.u,
            counts=merged.counts,
            insertions=int(inserts.size),
            deletions=int(deletes.size),
            batches=1,
            partition=self.partition,
        ), len(specs)
