"""Send-Coef: the baseline exact algorithm that ships all local wavelet coefficients.

Because the wavelet transform is linear, every global coefficient is the sum
of the corresponding local coefficients of the ``m`` splits
(``w_i = sum_j <v_j, psi_i>``).  Send-Coef computes each split's local
coefficients in the mapper's Close method and emits every non-zero one; the
reducer sums them per index and keeps the top-``k``.

The paper shows this is *worse* than Send-V for large domains (Figure 12):
the number of non-zero local coefficients grows with the domain size (a split
with ``d`` distinct keys can have up to ``d * log2(u)`` non-zero coefficients)
and so does the transform cost, which cancels the benefit of parallelising the
transform.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from repro.algorithms.base import (
    CONF_DOMAIN,
    CONF_K,
    ExecutionOutcome,
    HistogramAlgorithm,
)
from repro.core.frequency import merge_key_counts
from repro.core.haar import sparse_haar_arrays
from repro.core.topk_coefficients import top_k_coefficients
from repro.mapreduce.api import BatchMapper, BatchReducer, MapperContext, ReducerContext
from repro.mapreduce.counters import CounterNames
from repro.mapreduce.job import JobConfiguration, MapReduceJob
from repro.mapreduce.plan import JobPlan, PlanContext, PlanStage

__all__ = ["SendCoef", "SendCoefMapper", "SendCoefReducer"]

# 4-byte coefficient index plus 8-byte double coefficient value.
COEFFICIENT_PAIR_BYTES = 12


class SendCoefMapper(BatchMapper):
    """Computes the split's local wavelet coefficients and emits every non-zero one."""

    def setup(self, context: MapperContext) -> None:
        self._u = int(context.configuration.require(CONF_DOMAIN))
        self._counts: Dict[int, int] = {}
        self._batched = False

    def map(self, record: int, context: MapperContext) -> None:
        self._counts[record] = self._counts.get(record, 0) + 1
        context.counters.increment(CounterNames.HASHMAP_UPDATES)

    def map_batch(self, keys: np.ndarray, context: MapperContext) -> None:
        self._batched = True
        merge_key_counts(self._counts, keys)
        context.counters.increment_by(CounterNames.HASHMAP_UPDATES, 1.0,
                                      int(keys.size))

    def close(self, context: MapperContext) -> None:
        log_u = max(1, self._u.bit_length() - 1)
        indices, values = sparse_haar_arrays(self._counts, self._u)
        context.counters.increment(
            CounterNames.WAVELET_TRANSFORM_OPS, len(self._counts) * (log_u + 1)
        )
        nonzero = values != 0.0
        indices, values = indices[nonzero], values[nonzero]
        if self._batched:
            context.emit_block(indices, values, COEFFICIENT_PAIR_BYTES)
            return
        for index, value in zip(indices.tolist(), values.tolist()):
            context.emit(index, value, size_bytes=COEFFICIENT_PAIR_BYTES)


class SendCoefReducer(BatchReducer):
    """Sums local coefficients per index and keeps the top-k by magnitude."""

    def setup(self, context: ReducerContext) -> None:
        self._k = int(context.configuration.require(CONF_K))
        self._totals: Dict[int, float] = {}

    def reduce(self, key: int, values: Iterable[float], context: ReducerContext) -> None:
        total = float(sum(values))
        if total != 0.0:
            self._totals[int(key)] = total
        context.counters.increment(CounterNames.REDUCE_CPU_OPS)

    def reduce_batch(self, keys: np.ndarray, starts: np.ndarray,
                     values: np.ndarray, context: ReducerContext) -> None:
        """All coefficient groups in one order-preserving segmented fold.

        Unlike Send-V's integer counts, these are *float* partial coefficients,
        so ``np.add.reduceat`` would change the summation order (pairwise tree
        reduction) and drift from the reference answer in the last bits.
        Instead each sorted segment is folded with the same left-to-right
        Python ``sum`` the per-group :meth:`reduce` uses — the stable sort
        upstream preserved arrival order within a group, so every float lands
        in the accumulator in the reference order and the totals (and the
        top-k built from them) are bit-identical across planes.  Keys arrive
        ascending and distinct, matching the reference insertion order.
        """
        if keys.size == 0:
            return
        boundaries = starts.tolist() + [int(values.size)]
        values_list = values.tolist()
        totals = self._totals
        for position, key in enumerate(keys.tolist()):
            total = float(sum(values_list[boundaries[position]:boundaries[position + 1]]))
            if total != 0.0:
                totals[int(key)] = total
        context.counters.increment_by(CounterNames.REDUCE_CPU_OPS, 1.0,
                                      int(keys.size))

    def close(self, context: ReducerContext) -> None:
        for index, value in top_k_coefficients(self._totals, self._k).items():
            context.emit(index, value)


class SendCoef(HistogramAlgorithm):
    """Driver for the Send-Coef baseline (one MapReduce round)."""

    name = "Send-Coef"

    def create_plan(self, input_path: str) -> JobPlan:
        def build(context: PlanContext) -> MapReduceJob:
            return MapReduceJob(
                name=f"{self.name}(k={self.k})",
                input_path=context.input_path,
                mapper_class=SendCoefMapper,
                reducer_class=SendCoefReducer,
                configuration=JobConfiguration({CONF_DOMAIN: self.u, CONF_K: self.k}),
            )

        def finish(context: PlanContext) -> ExecutionOutcome:
            result = context.result("aggregate")
            coefficients = {int(index): float(value) for index, value in result.output}
            return ExecutionOutcome(
                coefficients=coefficients,
                rounds=context.ordered_rounds(),
                details={"coefficient_pairs_shuffled": result.counters.get(CounterNames.SHUFFLE_RECORDS)},
            )

        return JobPlan(
            name=f"{self.name}(k={self.k})",
            input_path=input_path,
            stages=(PlanStage("aggregate", build),),
            finish=finish,
        )
