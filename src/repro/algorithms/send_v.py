"""Send-V: the baseline exact algorithm that ships all local frequency vectors.

Every mapper scans its split, aggregates the split's local frequency vector
``v_j`` in a hash map and, from its Close method, emits one ``(x, v_j(x))``
pair per distinct key in the split.  The reducer side sums the local
frequencies into the global vector ``v``, computes the full wavelet transform
and keeps the top-``k`` coefficients by magnitude (the centralized algorithm
of Matias et al. [26]).

Communication is ``O(m * u)`` pairs in the worst case — the inefficiency the
paper's H-WTopk removes.

On the batch data plane the mapper consumes its whole split as one array
(one vectorised counting pass per split) and ships its local vector as a
single columnar block; both are bit-identical to the record-at-a-time path.

With ``num_reducers > 1`` the aggregation itself is sharded: keys are
hash-partitioned across reducers, each reducer emits the *exact global count*
of every key in its partition (the transform is deferred), and the driver
assembles the disjoint partial vectors — integer counts, so the merge is
exact — and runs the same transform + top-k the single reducer would have.
The output is identical to the single-reducer run; only reduce-side
parallelism changes.

The transform is the exact integer kernel
(:func:`~repro.core.haar.exact_haar_arrays`), so the coefficients do not
depend on the order the counts were summed or assembled in.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.algorithms.base import (
    CONF_DOMAIN,
    CONF_K,
    ExecutionOutcome,
    HistogramAlgorithm,
)
from repro.core.frequency import FrequencyVector
from repro.core.topk_coefficients import exact_top_k
from repro.errors import InvalidParameterError, KeyOutOfDomainError
from repro.mapreduce.api import BatchMapper, BatchReducer, MapperContext, ReducerContext
from repro.mapreduce.counters import CounterNames
from repro.mapreduce.job import JobConfiguration, MapReduceJob
from repro.mapreduce.plan import JobPlan, PlanContext, PlanStage

__all__ = ["SendV", "SendVMapper", "SendVReducer", "sum_combiner"]

# Byte sizes the paper uses: 4-byte key plus 4-byte local count at mappers.
LOCAL_PAIR_BYTES = 8

# Job Configuration key telling the reducer how many reduce tasks share the
# aggregation (mirrors Hadoop's mapred.reduce.tasks).
CONF_NUM_REDUCERS = "mapred.reduce.tasks.send.v"


def sum_combiner(key: int, values: list) -> int:
    """Hadoop's classic summing combiner (module-level so it pickles to workers)."""
    return sum(values)

class SendVMapper(BatchMapper):
    """Aggregates the split's local frequency vector and emits it entirely.

    The batch path counts with ``np.bincount`` — O(split + u) with no sort —
    and therefore emits the local vector in ascending key order rather than
    the record path's first-occurrence order.  That reordering is provably
    invisible downstream: each split emits each key at most once (so a key's
    per-task arrival order at the reducer is unchanged), the wavelet transform
    runs *reducer-side* over a vector the reducer itself builds in ascending
    key order on both planes, and every affected counter is an
    order-insensitive integer sum.
    """

    def setup(self, context: MapperContext) -> None:
        self._u = int(context.configuration.require(CONF_DOMAIN))
        self._counts: Dict[int, int] = {}
        self._batch_counts: Optional[np.ndarray] = None

    def map(self, record: int, context: MapperContext) -> None:
        self._counts[record] = self._counts.get(record, 0) + 1
        context.counters.increment(CounterNames.HASHMAP_UPDATES)

    def map_batch(self, keys: np.ndarray, context: MapperContext) -> None:
        self._batch_counts = np.bincount(keys, minlength=self._u + 1)
        context.counters.increment_by(CounterNames.HASHMAP_UPDATES, 1.0,
                                      int(keys.size))

    def close(self, context: MapperContext) -> None:
        if self._batch_counts is not None:
            present = np.flatnonzero(self._batch_counts)
            context.emit_block(present, self._batch_counts[present],
                               LOCAL_PAIR_BYTES)
            return
        for key, count in self._counts.items():
            context.emit(key, count, size_bytes=LOCAL_PAIR_BYTES)


class SendVReducer(BatchReducer):
    """Aggregates global frequencies; finishes with the centralized top-k wavelet
    algorithm (single reducer) or ships its partial vector (sharded aggregation)."""

    def setup(self, context: ReducerContext) -> None:
        self._u = int(context.configuration.require(CONF_DOMAIN))
        self._k = int(context.configuration.require(CONF_K))
        self._num_reducers = int(context.configuration.get(CONF_NUM_REDUCERS, 1))
        self._vector = FrequencyVector(self._u)

    def reduce(self, key: int, values: Iterable[int], context: ReducerContext) -> None:
        self._vector.add(int(key), float(sum(values)))

    def reduce_batch(self, keys: np.ndarray, starts: np.ndarray,
                     values: np.ndarray, context: ReducerContext) -> None:
        """All global frequencies in one ``reduceat``: exactly the per-group fold.

        The per-group integer sums are below 2**53, so ``np.add.reduceat``
        over int64 followed by a float cast is bit-identical to the reference
        ``float(sum(values))`` per group; keys arrive ascending and distinct,
        so the dict update reproduces the reference insertion order.
        """
        if keys.size == 0:
            return
        if int(keys[0]) < 1 or int(keys[-1]) > self._u:
            bad = keys[0] if int(keys[0]) < 1 else keys[-1]
            raise KeyOutOfDomainError(f"key {int(bad)} outside domain [1, {self._u}]")
        sums = np.add.reduceat(values, starts)
        self._vector.counts.update(
            zip(keys.tolist(), np.asarray(sums, dtype=np.float64).tolist())
        )

    def close(self, context: ReducerContext) -> None:
        log_u = max(1, self._u.bit_length() - 1)
        # Transform cost: one path update per distinct key, O(log u) each.
        # Charged identically in both modes (with several reducers the driver
        # runs the transform, but the work it stands in for is the same), so
        # counter totals do not depend on the reducer count.
        context.counters.increment(
            CounterNames.REDUCE_CPU_OPS, self._vector.distinct_keys * (log_u + 1)
        )
        if self._num_reducers > 1:
            # The global vector is sharded across reducers; emit this
            # partition's exact global counts, in ascending key order.
            for key, count in sorted(self._vector.counts.items()):
                context.emit(key, count)
            return
        for index, value in exact_top_k(self._vector.counts, self._u,
                                        self._k).items():
            context.emit(index, value)


class SendV(HistogramAlgorithm):
    """Driver for the Send-V baseline (one MapReduce round)."""

    name = "Send-V"

    def __init__(self, u: int, k: int, use_combiner: bool = False,
                 num_reducers: int = 1) -> None:
        """Args:
            u: key domain size.
            k: number of wavelet coefficients to keep.
            use_combiner: also run Hadoop's Combine function on mapper output.
                Send-V already aggregates per split in the mapper, so the
                combiner is a no-op on communication; it exists for the
                combiner ablation bench.
            num_reducers: reduce tasks to shard the global aggregation over.
                The top-k output is identical for every value (the partial
                vectors are disjoint integer counts and the driver finishes
                with the same exact transform); values > 1 exercise
                reduce-side parallelism.
        """
        super().__init__(u, k)
        if num_reducers < 1:
            raise InvalidParameterError(
                f"num_reducers must be positive, got {num_reducers}"
            )
        self.use_combiner = use_combiner
        self.num_reducers = num_reducers

    def create_plan(self, input_path: str) -> JobPlan:
        def build(context: PlanContext) -> MapReduceJob:
            values = {CONF_DOMAIN: self.u, CONF_K: self.k}
            if self.num_reducers > 1:
                # Only ship the reducer count when the aggregation is actually
                # sharded, so the default run's Job Configuration bytes (part
                # of the paper's communication metric) stay exactly as before.
                values[CONF_NUM_REDUCERS] = self.num_reducers
            return MapReduceJob(
                name=f"{self.name}(k={self.k})",
                input_path=context.input_path,
                mapper_class=SendVMapper,
                reducer_class=SendVReducer,
                combiner=sum_combiner if self.use_combiner else None,
                num_reducers=self.num_reducers,
                configuration=JobConfiguration(values),
            )

        def finish(context: PlanContext) -> ExecutionOutcome:
            result = context.result("aggregate")
            if self.num_reducers > 1:
                # Reducers shipped disjoint partial vectors of exact global
                # counts; the exact transform of their union is bit-for-bit
                # the single reducer's.
                coefficients = exact_top_k(dict(result.output), self.u, self.k)
            else:
                coefficients = {int(index): float(value) for index, value in result.output}
            return ExecutionOutcome(
                coefficients=coefficients,
                rounds=context.ordered_rounds(),
                details={"distinct_pairs_shuffled": result.counters.get(CounterNames.SHUFFLE_RECORDS)},
            )

        return JobPlan(
            name=f"{self.name}(k={self.k})",
            input_path=input_path,
            stages=(PlanStage("aggregate", build),),
            finish=finish,
        )
