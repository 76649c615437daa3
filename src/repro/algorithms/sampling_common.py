"""Shared machinery for the three sampling-based algorithms (Section 4).

All three algorithms share the same skeleton:

* the mapper reads a *random sample* of its split through the
  :class:`~repro.mapreduce.inputformat.RandomSamplingInputFormat` (first-level
  sampling with probability ``p = 1/(eps^2 * n)``) and aggregates local sample
  counts ``s_j(x)``; what the mapper emits from Close differs per algorithm;
* the single reducer turns the received pairs into an estimated global
  frequency vector ``v_hat`` and builds the k-term wavelet histogram from it.

The concrete algorithms plug in their own Close logic (and, for two-level
sampling, their own estimator-aware reducer).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.algorithms.base import (
    CONF_DOMAIN,
    CONF_EPSILON,
    CONF_K,
    CONF_SAMPLE_PROBABILITY,
)
from repro.core.frequency import merge_key_counts
from repro.core.haar import sparse_haar_transform
from repro.core.topk_coefficients import top_k_coefficients
from repro.mapreduce.api import (
    BatchMapper,
    BatchReducer,
    MapperContext,
    Reducer,
    ReducerContext,
)
from repro.mapreduce.counters import CounterNames
from repro.sampling.two_level import TwoLevelEstimator

__all__ = [
    "SAMPLE_PAIR_BYTES",
    "NULL_PAIR_BYTES",
    "SamplingMapperBase",
    "ScaledCountReducer",
    "TwoLevelReducer",
]

# 4-byte key plus 4-byte sample count.
SAMPLE_PAIR_BYTES = 8
# A (key, NULL) marker carries only the 4-byte key.
NULL_PAIR_BYTES = 4


class SamplingMapperBase(BatchMapper):
    """Aggregates the local sample counts ``s_j(x)`` of the split's random sample.

    On the batch plane the sampling record reader draws all offsets in one
    vectorised without-replacement call and hands the sampled keys over as a
    single array; :meth:`map_batch` folds them with one counting pass.  The
    ``batched`` flag lets subclasses' Close methods pick their own vectorised
    emission path.
    """

    def setup(self, context: MapperContext) -> None:
        self._epsilon = float(context.configuration.require(CONF_EPSILON))
        self._sample_counts: Dict[int, int] = {}
        self._total_sampled = 0
        self._batched = False

    def map(self, record: int, context: MapperContext) -> None:
        # The record reader already applied the first-level sampling; every
        # record reaching the mapper is a sampled record.
        self._sample_counts[record] = self._sample_counts.get(record, 0) + 1
        self._total_sampled += 1
        context.counters.increment(CounterNames.SAMPLED_RECORDS)

    def map_batch(self, keys: np.ndarray, context: MapperContext) -> None:
        self._batched = True
        merge_key_counts(self._sample_counts, keys)
        self._total_sampled += int(keys.size)
        context.counters.increment_by(CounterNames.SAMPLED_RECORDS, 1.0,
                                      int(keys.size))

    @property
    def batched(self) -> bool:
        """Whether this task ran on the batch plane."""
        return self._batched

    @property
    def sample_counts(self) -> Dict[int, int]:
        """The split's local sample counts ``s_j``."""
        return self._sample_counts

    @property
    def total_sampled(self) -> int:
        """``t_j`` — the number of sampled records in this split."""
        return self._total_sampled


def _emit_histogram_from_estimates(
    estimates: Dict[int, float], u: int, k: int, context: ReducerContext
) -> None:
    """Build the k-term histogram from an estimated frequency vector and emit it."""
    log_u = max(1, u.bit_length() - 1)
    coefficients = sparse_haar_transform(estimates, u)
    context.counters.increment(CounterNames.REDUCE_CPU_OPS, len(estimates) * (log_u + 1))
    for index, value in top_k_coefficients(coefficients, k).items():
        context.emit(index, value)


class ScaledCountReducer(BatchReducer):
    """Reducer for Basic-S and Improved-S: ``v_hat(x) = (sum of received counts) / p``."""

    def setup(self, context: ReducerContext) -> None:
        self._u = int(context.configuration.require(CONF_DOMAIN))
        self._k = int(context.configuration.require(CONF_K))
        self._probability = float(context.configuration.require(CONF_SAMPLE_PROBABILITY))
        self._sample_sums: Dict[int, float] = {}

    def reduce(self, key: int, values: Iterable[int], context: ReducerContext) -> None:
        self._sample_sums[int(key)] = self._sample_sums.get(int(key), 0.0) + float(sum(values))

    def reduce_batch(self, keys: np.ndarray, starts: np.ndarray,
                     values: np.ndarray, context: ReducerContext) -> None:
        """Every key's sample count in one integer ``np.add.reduceat``.

        The counts are integers summing far below ``2**53``, so each int64
        group sum cast to float is bit-identical to :meth:`reduce`'s
        ``float(sum(values))``; the keys arrive ascending and distinct, the
        order :meth:`reduce` would have inserted them in.
        """
        sums = np.add.reduceat(values, starts).astype(np.float64)
        self._sample_sums.update(zip(keys.tolist(), sums.tolist()))

    def close(self, context: ReducerContext) -> None:
        estimates = {
            key: total / self._probability for key, total in self._sample_sums.items() if total > 0
        }
        _emit_histogram_from_estimates(estimates, self._u, self._k, context)


class TwoLevelReducer(Reducer):
    """Reducer for TwoLevel-S: the unbiased estimator of Theorem 1 / Corollary 1."""

    def setup(self, context: ReducerContext) -> None:
        self._u = int(context.configuration.require(CONF_DOMAIN))
        self._k = int(context.configuration.require(CONF_K))
        epsilon = float(context.configuration.require(CONF_EPSILON))
        probability = float(context.configuration.require(CONF_SAMPLE_PROBABILITY))
        threshold_scale = float(
            context.configuration.get("wavelet.twolevel.threshold.scale", 1.0)
        )
        self._estimator = TwoLevelEstimator(
            epsilon=epsilon,
            num_splits=context.num_splits,
            first_level_probability=probability,
            threshold_scale=threshold_scale,
        )

    def reduce(self, key: int, values: Iterable[Optional[int]], context: ReducerContext) -> None:
        for value in values:
            self._estimator.observe(int(key), None if value is None else float(value))

    def close(self, context: ReducerContext) -> None:
        estimates = {
            key: value
            for key, value in self._estimator.estimated_frequency_vector().items()
            if value > 0
        }
        _emit_histogram_from_estimates(estimates, self._u, self._k, context)
