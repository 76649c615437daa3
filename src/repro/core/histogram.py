"""The wavelet histogram synopsis.

A :class:`WaveletHistogram` is the paper's end product: the ``k`` Haar wavelet
coefficients of largest magnitude of a frequency vector, together with the
domain size.  It supports:

* point estimation ``estimate(x)`` — reconstruct ``v(x)`` from the retained
  coefficients in ``O(log u)``;
* range-sum / selectivity estimation ``range_sum(lo, hi)`` — the classic use
  of wavelet histograms for query optimisation [26];
* full reconstruction ``reconstruct()`` of the (approximate) frequency vector;
* error metrics against a reference vector: SSE (the paper's Figures 6, 7, 15
  and 18 metric) and relative energy error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping, Optional

import numpy as np

from repro.core.frequency import FrequencyVector
from repro.core.haar import (
    coefficient_support,
    haar_transform,
    inverse_haar_transform,
    sparse_haar_transform,
    sparse_inverse_contribution,
    validate_domain,
)
from repro.core.topk_coefficients import top_k_coefficients, top_k_from_dense
from repro.errors import InvalidParameterError, KeyOutOfDomainError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serving.engine import BatchQueryEngine

__all__ = ["WaveletHistogram"]


@dataclass
class WaveletHistogram:
    """A k-term Haar wavelet synopsis of a frequency vector over ``[1, u]``.

    Attributes:
        u: domain size (power of two).
        coefficients: mapping from 1-based coefficient index to its value.
        k: the synopsis budget this histogram was built with.  ``len(coefficients)``
            may be smaller when the signal has fewer non-zero coefficients.
    """

    u: int
    coefficients: Dict[int, float] = field(default_factory=dict)
    k: Optional[int] = None

    def __post_init__(self) -> None:
        validate_domain(self.u)
        if self.k is not None and self.k < 1:
            raise InvalidParameterError(f"k must be positive, got {self.k}")
        for index in self.coefficients:
            if not 1 <= index <= self.u:
                raise KeyOutOfDomainError(
                    f"coefficient index {index} outside [1, {self.u}]"
                )
        self.coefficients = {i: float(w) for i, w in self.coefficients.items() if w != 0.0}

    # ------------------------------------------------------------------ build
    @classmethod
    def from_frequency_vector(cls, vector: FrequencyVector, k: int) -> "WaveletHistogram":
        """Build the best k-term histogram of a sparse frequency vector.

        Uses the sparse ``O(|v| log u)`` transform, so it is efficient even for
        very large domains as long as the vector is sparse.
        """
        coefficients = sparse_haar_transform(vector.counts, vector.u)
        return cls(vector.u, top_k_coefficients(coefficients, k), k=k)

    @classmethod
    def from_dense(cls, dense: np.ndarray, k: int) -> "WaveletHistogram":
        """Build the best k-term histogram from a dense frequency vector."""
        w = haar_transform(dense)
        return cls(len(w), top_k_from_dense(w, k), k=k)

    @classmethod
    def from_coefficients(
        cls, coefficients: Mapping[int, float], u: int, k: Optional[int] = None
    ) -> "WaveletHistogram":
        """Wrap an externally computed coefficient set (e.g. from a distributed run)."""
        return cls(u, dict(coefficients), k=k)

    # -------------------------------------------------------------- estimation
    def estimate(self, key: int) -> float:
        """Estimate ``v(key)`` from the retained coefficients in ``O(log u)``."""
        return sparse_inverse_contribution(self.coefficients, key, self.u)

    def reconstruct(self) -> np.ndarray:
        """Reconstruct the full (approximate) frequency vector of length ``u``.

        This materialises a dense array and is intended for evaluation and for
        moderate domains; use :meth:`estimate` / :meth:`range_sum` for point
        queries on large domains.
        """
        dense_coefficients = np.zeros(self.u, dtype=float)
        for index, value in self.coefficients.items():
            dense_coefficients[index - 1] = value
        return inverse_haar_transform(dense_coefficients)

    def range_sum(self, lo: int, hi: int) -> float:
        """Estimate ``sum_{x=lo..hi} v(x)`` (range selectivity).

        Delegates to the vectorized batch engine (numerically identical to
        the scalar coefficient loop, kept as :meth:`range_sum_scalar`); for
        many queries call :meth:`range_sum_many`, which amortises the numpy
        dispatch over the whole batch.
        """
        return float(self.query_engine().range_sum_many((lo,), (hi,))[0])

    def range_sum_many(self, los, his) -> "np.ndarray":
        """Estimate ``sum_{x=lo..hi} v(x)`` for a whole batch of ranges at once.

        Args:
            los: 1-based inclusive lower bounds, shape ``(q,)``.
            his: 1-based inclusive upper bounds, shape ``(q,)``.

        Returns:
            ``float64`` array of shape ``(q,)``; evaluated by the
            :class:`~repro.serving.engine.BatchQueryEngine` in ``O(q log k)``
            numpy work rather than ``q`` Python coefficient loops.
        """
        return self.query_engine().range_sum_many(los, his)

    def estimate_many(self, keys) -> "np.ndarray":
        """Estimate ``v(key)`` for a whole batch of keys at once (vectorized)."""
        return self.query_engine().estimate_many(keys)

    def query_engine(self) -> "BatchQueryEngine":
        """The (lazily built, cached) batch query engine over this synopsis.

        The engine snapshots the coefficients, so it must not be used after
        mutating :attr:`coefficients` in place — histograms are treated as
        immutable once built, as everywhere else in the library.
        """
        engine = getattr(self, "_engine", None)
        if engine is None:
            # Deliberate layering inversion: the histogram's vectorised query
            # surface delegates to the serving engine, imported lazily so
            # importing repro.core never pulls in the serving stack and the
            # package DAG stays acyclic at import time.
            from repro.serving.engine import BatchQueryEngine  # reprolint: disable=layering

            engine = BatchQueryEngine.from_histogram(self)
            self._engine = engine
        return engine

    def range_sum_scalar(self, lo: int, hi: int) -> float:
        """The legacy per-coefficient Python loop for one range (``O(k)``).

        Each retained coefficient contributes its value times the sum of its
        basis vector over ``[lo, hi]``, which has a closed form because Haar
        basis vectors are piecewise constant on two halves of their support.
        Kept as the independently-implemented reference the batch engine is
        validated (and benchmarked) against.
        """
        if lo > hi:
            raise InvalidParameterError(f"empty range [{lo}, {hi}]")
        if lo < 1 or hi > self.u:
            raise KeyOutOfDomainError(f"range [{lo}, {hi}] outside domain [1, {self.u}]")
        total = 0.0
        for index, value in self.coefficients.items():
            total += value * self._basis_range_sum(index, lo, hi)
        return total

    def _basis_range_sum(self, index: int, lo: int, hi: int) -> float:
        """Sum of basis vector ``psi_index`` over keys in ``[lo, hi]``."""
        if index == 1:
            return (hi - lo + 1) / math.sqrt(self.u)
        support_lo, support_hi = coefficient_support(index, self.u)
        overlap_lo = max(lo, support_lo)
        overlap_hi = min(hi, support_hi)
        if overlap_lo > overlap_hi:
            return 0.0
        width = support_hi - support_lo + 1
        mid = support_lo + width // 2 - 1  # last key of the negative half
        scale = 1.0 / math.sqrt(width)
        negative = max(0, min(overlap_hi, mid) - overlap_lo + 1)
        positive = max(0, overlap_hi - max(overlap_lo, mid + 1) + 1)
        return scale * (positive - negative)

    # ------------------------------------------------------------------ errors
    def sse(self, reference: FrequencyVector | np.ndarray) -> float:
        """Sum of squared errors between the reconstruction and a reference vector.

        This is the metric plotted in the paper's Figures 6, 7, 15 and 18.  By
        Parseval it equals the energy of the reference's coefficients that the
        histogram failed to capture plus the squared error of the captured ones.
        """
        reference_dense = (
            reference.to_dense() if isinstance(reference, FrequencyVector) else np.asarray(reference, dtype=float)
        )
        if reference_dense.shape[0] != self.u:
            raise InvalidParameterError(
                f"reference vector has length {reference_dense.shape[0]}, expected {self.u}"
            )
        diff = self.reconstruct() - reference_dense
        return float(np.dot(diff, diff))

    def relative_energy_error(self, reference: FrequencyVector | np.ndarray) -> float:
        """SSE normalised by the reference's energy (0 is perfect, smaller is better)."""
        reference_dense = (
            reference.to_dense() if isinstance(reference, FrequencyVector) else np.asarray(reference, dtype=float)
        )
        ref_energy = float(np.dot(reference_dense, reference_dense))
        if ref_energy == 0.0:
            return 0.0
        return self.sse(reference_dense) / ref_energy

    def retained_energy(self) -> float:
        """Energy captured by the retained coefficients (``sum w_i^2``)."""
        return float(sum(w * w for w in self.coefficients.values()))

    # ------------------------------------------------------------------ dunder
    def __getstate__(self) -> Dict[str, object]:
        # The memoised query engine is cheap to rebuild from the coefficients;
        # drop it so a pickled histogram (tasks ship across processes)
        # carries only the synopsis itself.
        state = self.__dict__.copy()
        state.pop("_engine", None)
        return state

    def __len__(self) -> int:
        return len(self.coefficients)

    def __contains__(self, index: int) -> bool:
        return index in self.coefficients
