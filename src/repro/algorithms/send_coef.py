"""Send-Coef: the baseline exact algorithm that ships all local wavelet coefficients.

Because the wavelet transform is linear, every global coefficient is the sum
of the corresponding local coefficients of the ``m`` splits
(``w_i = sum_j <v_j, psi_i>``).  Send-Coef computes each split's local
coefficients in the mapper's Close method and emits every non-zero one; the
reducer sums them per index and keeps the top-``k``.

A local coefficient travels as its exact integer numerator (the split's
``R - L`` count difference, see :func:`~repro.core.haar.exact_haar_numerators`),
so the reducer's sums are exact and it divides each by ``sqrt(W)`` once:
the coefficients are bit-identical to Send-V's, which transforms the summed
counts with the same kernel.

The paper shows this is *worse* than Send-V for large domains (Figure 12):
the number of non-zero local coefficients grows with the domain size (a split
with ``d`` distinct keys can have up to ``d * log2(u)`` non-zero coefficients)
and so does the transform cost, which cancels the benefit of parallelising the
transform.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.algorithms.base import (
    CONF_DOMAIN,
    CONF_K,
    ExecutionOutcome,
    HistogramAlgorithm,
    SplitCountMapper,
)
from repro.core.haar import coefficient_scales, exact_haar_numerators
from repro.core.topk_coefficients import top_k_from_arrays
from repro.mapreduce.api import BatchReducer, MapperContext, ReducerContext
from repro.mapreduce.counters import CounterNames
from repro.mapreduce.job import JobConfiguration, MapReduceJob
from repro.mapreduce.plan import JobPlan, PlanContext, PlanStage

__all__ = ["SendCoef", "SendCoefMapper", "SendCoefReducer"]

# The paper's pair: a 4-byte coefficient index plus an 8-byte coefficient.
# The value ships as its int64 numerator, which is also 8 bytes, so the
# charge is the paper's whatever the value's dtype.
COEFFICIENT_PAIR_BYTES = 12

_FIRST_GROUP = np.zeros(1, dtype=np.int64)


class SendCoefMapper(SplitCountMapper):
    """Computes the split's local wavelet coefficients and emits every non-zero one."""

    def close(self, context: MapperContext) -> None:
        keys, counts = self.split_counts()
        log_u = max(1, self._u.bit_length() - 1)
        indices, numerators = exact_haar_numerators(keys, counts, self._u)
        context.counters.increment(
            CounterNames.WAVELET_TRANSFORM_OPS, int(keys.size) * (log_u + 1)
        )
        nonzero = numerators != 0
        indices, numerators = indices[nonzero], numerators[nonzero]
        if self.batched:
            context.emit_block(indices, numerators, COEFFICIENT_PAIR_BYTES)
            return
        for index, numerator in zip(indices.tolist(), numerators.tolist()):
            context.emit(index, numerator, size_bytes=COEFFICIENT_PAIR_BYTES)


class SendCoefReducer(BatchReducer):
    """Sums local coefficient numerators per index and keeps the top-k by magnitude."""

    def setup(self, context: ReducerContext) -> None:
        self._u = int(context.configuration.require(CONF_DOMAIN))
        self._k = int(context.configuration.require(CONF_K))
        self._indices: List[np.ndarray] = []
        self._numerators: List[np.ndarray] = []

    def reduce(self, key: int, values: Iterable[int], context: ReducerContext) -> None:
        self.reduce_batch(np.full(1, key, dtype=np.int64), _FIRST_GROUP,
                          np.fromiter(values, dtype=np.int64), context)

    def reduce_batch(self, keys: np.ndarray, starts: np.ndarray,
                     values: np.ndarray, context: ReducerContext) -> None:
        """All coefficient groups in one integer ``np.add.reduceat``.

        The values are integer numerators, so the grouped sums are exact in
        any order: both planes, and any split of the partition into calls,
        give the same totals.
        """
        if keys.size == 0:
            return
        self._indices.append(keys)
        self._numerators.append(np.add.reduceat(values, starts))
        context.counters.increment_by(CounterNames.REDUCE_CPU_OPS, 1.0,
                                      int(keys.size))

    def close(self, context: ReducerContext) -> None:
        if not self._indices:
            return
        indices = np.concatenate(self._indices)
        values = np.concatenate(self._numerators) / coefficient_scales(indices, self._u)
        for index, value in top_k_from_arrays(indices, values, self._k).items():
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
