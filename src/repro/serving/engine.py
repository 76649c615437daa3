"""Vectorized batch evaluation of wavelet-histogram queries.

The legacy query path (:meth:`repro.core.histogram.WaveletHistogram.range_sum`)
loops over the retained coefficients in Python for every query.  This module
replaces it with a **piecewise index** built once per synopsis, so a batch of
``q`` range sums costs two ``searchsorted`` lookups per query — ``O(q log k)``
numpy work and ``O(q)`` memory, whatever the synopsis size.

The math.  A Haar basis vector ``psi_i`` is ``-1/sqrt(W)`` on the left half of
its dyadic support ``[s, s + W - 1]`` and ``+1/sqrt(W)`` on the right half,
and ``w_1``'s basis is the constant ``1/sqrt(u)``.  A ``k``-term synopsis
therefore reconstructs a piecewise-constant signal that can only change value
at ``1`` and at each kept detail coefficient's start ``s``, midpoint
``s + W/2`` and end ``s + W``: at most ``3k + 1`` pieces.  At each piece start
``x`` the value is a sum over the ``log u`` error-tree nodes covering ``x`` —
at level ``j`` (width ``W_j = u >> j``) that is node
``i = 2^j + (x - 1) // W_j + 1``, with ``w_i = 0`` when ``i`` is not kept::

    value(x)  = w_1/sqrt(u) + sum_j  sign_j(x) * w_j/sqrt(W_j)
    before(x) = w_1*(x - 1)/sqrt(u) + sum_j (pos_j - neg_j) * w_j/sqrt(W_j)

where ``sign_j`` is ``-`` on the node's left half and ``+`` on its right half,
and ``pos_j``/``neg_j`` are the exact int64 counts of ``[s_j, x - 1]`` in each
half.  ``before`` is the prefix sum of the signal up to ``x - 1``, so for a key
``x`` in the piece starting at ``start[p]``::

    prefix(x)         = before[p] + value[p] * (x - start[p] + 1)
    range_sum(lo, hi) = prefix(hi) - prefix(lo - 1)

and a point estimate is ``value[p]``.  Every stored number is a *direct* sum of
at most ``log u + 1`` terms; nothing is accumulated across pieces, so answers
stay within ``1e-9`` of the scalar coefficient loop (a running cumsum over the
pieces would drift past that bound on large synopses).  Building the index is
one ``(levels x pieces)`` gather through ``searchsorted`` over the sorted
coefficient indices.

Because a query needs only a few ``q``-length temporaries, no batch is ever
split into blocks, and no per-range memo sits in front of the lookup.  The
engine holds no mutable state after construction, so every public method is
thread-safe without a lock.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.haar import validate_domain
from repro.errors import InvalidParameterError, KeyOutOfDomainError
from repro.telemetry import get_telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.histogram import WaveletHistogram

__all__ = ["BatchQueryEngine", "normalize_selectivities"]

ArrayLike = Union[np.ndarray, Iterable[int]]


def normalize_selectivities(sums: np.ndarray, total: float) -> np.ndarray:
    """Turn range sums into selectivities, guarding a degenerate total.

    Contract: selectivities are only meaningful against a **positive, finite**
    total.  A synopsis-estimated total is ``w_1 * sqrt(u)``, and a sketched
    ``w_1`` can come out negative (or, with corrupted inputs, NaN/inf); naively
    dividing would hand callers negative or non-finite "selectivities" that
    poison downstream cost models.  Any non-positive or non-finite ``total``
    therefore yields the same all-zero vector the ``total == 0`` case always
    did: a recognisably degenerate answer rather than a silently wrong one.
    """
    total = float(total)
    if not math.isfinite(total) or total <= 0.0:
        return np.zeros_like(sums)
    return sums / total


class BatchQueryEngine:
    """Answers batches of range-sum / point / selectivity queries over one synopsis.

    Args:
        u: domain size (power of two).
        coefficients: mapping from 1-based coefficient index to its value
            (the :attr:`WaveletHistogram.coefficients` payload), or — the
            internal zero-copy form :meth:`from_arrays` uses — an already
            conforming ``(indices, values)`` array pair adopted as read-only
            views without copying.
    """

    def __init__(
        self,
        u: int,
        coefficients: Union[Mapping[int, float], Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        if isinstance(coefficients, tuple):
            # Zero-copy construction (the from_arrays fast path): already
            # sorted, conforming int64/float64 arrays — strictly ascending
            # indices, nonzero values, the invariant the WHSYN001 payload and
            # coefficient_arrays() both guarantee.  Adopted as read-only
            # views, never copied, so an mmap-backed payload serves queries
            # straight out of the page cache.
            indices, values = coefficients
            indices = indices.view()
            values = values.view()
        else:
            items = sorted(
                (int(i), float(w)) for i, w in coefficients.items() if w != 0.0
            )
            # The reference path *is* the copying path: fresh private arrays
            # materialised from the mapping.
            indices = np.array([i for i, _ in items], dtype=np.int64)  # reprolint: disable=hot-path-copy
            values = np.array([w for _, w in items], dtype=np.float64)  # reprolint: disable=hot-path-copy
        log_u = validate_domain(u)
        self.u = u

        if indices.size and (indices[0] < 1 or indices[-1] > u):
            bad = indices[0] if indices[0] < 1 else indices[-1]
            raise KeyOutOfDomainError(f"coefficient index {bad} outside [1, {u}]")
        indices.setflags(write=False)
        values.setflags(write=False)
        self._indices = indices
        self._values = values

        self._w1 = float(values[0]) if indices.size and indices[0] == 1 else 0.0
        self._starts, self._before, self._value = _piece_index(
            log_u, indices, values, self._w1)

    # ------------------------------------------------------------ construction
    @classmethod
    def from_histogram(cls, histogram: "WaveletHistogram") -> "BatchQueryEngine":
        """Build an engine over a histogram's retained coefficients."""
        return cls(histogram.u, histogram.coefficients)

    @classmethod
    def from_arrays(
        cls, u: int, indices: ArrayLike, values: Iterable[float],
    ) -> "BatchQueryEngine":
        """Build an engine from parallel index/value arrays (the stored payload form).

        Already-conforming arrays — int64/float64, 1-D, C-contiguous,
        native-endian, strictly ascending indices, no zero values, which is
        exactly what :meth:`coefficient_arrays` and an mmap'd WHSYN001 payload
        produce — pass through **without copying**: the engine adopts
        read-only views, so the LRU engine table and the page cache share one
        physical copy of the coefficients.  Anything else (lists,
        unsorted or duplicated indices, foreign dtypes) takes the reference
        dict round-trip.

        Raises:
            InvalidParameterError: on duplicate indices — a malformed
                payload must fail loudly, not collapse last-wins and
                mis-evaluate every query it serves.
        """
        index_array = np.asarray(indices)
        value_array = np.asarray(values)
        if (index_array.dtype == np.int64 and index_array.dtype.isnative
                and value_array.dtype == np.float64 and value_array.dtype.isnative
                and index_array.ndim == 1
                and index_array.shape == value_array.shape
                and index_array.flags.c_contiguous
                and value_array.flags.c_contiguous
                and bool(np.all(np.diff(index_array) > 0))
                and not bool(np.any(value_array == 0.0))):
            return cls(u, (index_array, value_array))
        if np.unique(index_array).size != index_array.size:
            counts = np.unique(index_array, return_counts=True)
            duplicated = counts[0][counts[1] > 1]
            raise InvalidParameterError(
                f"duplicate coefficient indices in shard payload: "
                f"{[int(i) for i in duplicated[:5]]}"
            )
        mapping: Dict[int, float] = {
            int(i): float(w) for i, w in zip(index_array, value_array)
        }
        return cls(u, mapping)

    # -------------------------------------------------------------- properties
    @property
    def num_coefficients(self) -> int:
        """Number of non-zero coefficients the engine evaluates."""
        return int(self._indices.size)

    def coefficient_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The (indices, values) arrays, sorted by index (read-only views)."""
        return self._indices, self._values

    def estimated_total(self) -> float:
        """The synopsis' estimate of ``sum_x v(x)`` (``w_1 * sqrt(u)``)."""
        return self._w1 * math.sqrt(self.u)

    # --------------------------------------------------------------- queries
    def range_sum_many(self, los: ArrayLike, his: ArrayLike) -> np.ndarray:
        """Estimate ``sum_{x=lo..hi} v(x)`` for every ``(lo, hi)`` pair.

        Args:
            los: 1-based inclusive lower bounds, shape ``(q,)``.
            his: 1-based inclusive upper bounds, shape ``(q,)``.

        Returns:
            ``float64`` array of shape ``(q,)``, numerically identical (within
            ``1e-9``) to calling the scalar coefficient loop per query.
        """
        los, his = self._validate_ranges(los, his)
        if los.size == 0:
            return np.zeros(0, dtype=np.float64)
        started = time.perf_counter()
        result = self._prefix(his)
        result -= self._prefix(los - 1)
        get_telemetry().metrics.observe(
            "repro_serving_batch_seconds", time.perf_counter() - started,
            op="range_sum")
        return result

    def estimate_many(self, keys: ArrayLike) -> np.ndarray:
        """Estimate ``v(key)`` for every key (vectorized point reconstruction)."""
        keys = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        if keys.ndim != 1:
            raise InvalidParameterError("keys must be a 1-D array")
        if keys.size == 0:
            return np.zeros(0, dtype=np.float64)
        if keys.min() < 1 or keys.max() > self.u:
            bad = keys[(keys < 1) | (keys > self.u)][0]
            raise KeyOutOfDomainError(f"key {bad} outside domain [1, {self.u}]")
        started = time.perf_counter()
        out = self._value[np.searchsorted(self._starts, keys, side="right") - 1]
        get_telemetry().metrics.observe(
            "repro_serving_batch_seconds", time.perf_counter() - started,
            op="estimate")
        return out

    def selectivity_many(
        self, los: ArrayLike, his: ArrayLike, total: Optional[float] = None
    ) -> np.ndarray:
        """Range sums normalised by the (estimated or supplied) total count.

        Args:
            los: lower bounds, as in :meth:`range_sum_many`.
            his: upper bounds.
            total: the dataset size ``n``; the synopsis' own estimate
                ``w_1 * sqrt(u)`` when omitted.
        """
        denominator = self.estimated_total() if total is None else float(total)
        return normalize_selectivities(self.range_sum_many(los, his), denominator)

    def validate_ranges(self, los: ArrayLike, his: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
        """Canonicalise and bounds-check a range batch without evaluating it.

        Returns the int64 ``(los, his)`` arrays the query methods would use.
        The service façade's fan-out validates every name's ranges up front,
        so a bad range fails the whole batch before any synopsis answers.

        Raises:
            InvalidParameterError: mismatched shapes or an empty range.
            KeyOutOfDomainError: a bound outside ``[1, u]``.
        """
        return self._validate_ranges(los, his)

    # -------------------------------------------------------------- internals
    def _validate_ranges(self, los: ArrayLike, his: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
        los = np.atleast_1d(np.asarray(los, dtype=np.int64))
        his = np.atleast_1d(np.asarray(his, dtype=np.int64))
        if los.ndim != 1 or his.ndim != 1 or los.shape != his.shape:
            raise InvalidParameterError(
                f"los and his must be 1-D arrays of equal length, "
                f"got shapes {los.shape} and {his.shape}"
            )
        if los.size == 0:
            return los, his
        inverted = los > his
        if inverted.any():
            where = int(np.flatnonzero(inverted)[0])
            raise InvalidParameterError(
                f"empty range [{los[where]}, {his[where]}] at query {where}"
            )
        if los.min() < 1 or his.max() > self.u:
            where = int(np.flatnonzero((los < 1) | (his > self.u))[0])
            raise KeyOutOfDomainError(
                f"range [{los[where]}, {his[where]}] outside domain [1, {self.u}]"
            )
        return los, his

    def _prefix(self, x: np.ndarray) -> np.ndarray:
        """``sum_{y=1..x} v(y)`` for every ``x`` in ``[0, u]`` (``0`` at ``x = 0``)."""
        piece = np.searchsorted(self._starts, x, side="right")
        piece -= 1
        length = x - self._starts[piece]
        length += 1
        out = self._value[piece] * length
        out += self._before[piece]
        return out


def _piece_index(
    log_u: int, indices: np.ndarray, values: np.ndarray, w1: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(starts, before, value)`` piece table of a synopsis.

    ``starts`` is ascending and begins with a sentinel piece at ``0`` whose
    ``before`` and ``value`` are zero, so ``prefix(0)`` needs no special case;
    every other entry is computed as described in the module docstring.
    """
    u = 1 << log_u
    detail = indices[1:] if indices.size and indices[0] == 1 else indices
    # Level j of detail node i = 2^j + offset + 1, and its support start/width.
    _, exponent = np.frexp((detail - 1).astype(np.float64))
    level = exponent.astype(np.int64) - 1
    width = np.int64(u) >> level
    support_start = (detail - 1 - (np.int64(1) << level)) * width + 1
    starts = np.unique(np.concatenate((
        np.ones(1, dtype=np.int64), support_start,
        support_start + (width >> 1), support_start + width)))
    starts = starts[starts <= u]

    # One row per level (none without detail coefficients): rows ascend in
    # level and, within a row, nodes ascend with x, so the flattened lookup
    # keys are sorted.
    levels = np.arange(log_u if detail.size else 0, dtype=np.int64)[:, None]
    shift = log_u - levels  # log2 of the node width
    node_width = np.int64(1) << shift
    before_x = starts - 1
    offset = before_x & (node_width - 1)  # x - s_j: keys of the node before x
    node = (np.int64(1) << levels) + (before_x >> shift) + 1
    slot = np.searchsorted(indices, node.ravel()).reshape(node.shape)
    np.minimum(slot, indices.size - 1, out=slot)
    scaled = np.where(indices[slot] == node, values[slot], 0.0)
    scaled /= np.sqrt(node_width.astype(np.float64))

    half = node_width >> 1
    inv_sqrt_u = 1.0 / math.sqrt(u)
    value = np.zeros(starts.size + 1, dtype=np.float64)
    before = np.zeros(starts.size + 1, dtype=np.float64)
    value[1:] = w1 * inv_sqrt_u + np.where(offset < half, -scaled, scaled).sum(axis=0)
    counts = np.maximum(offset - half, 0) - np.minimum(offset, half)  # pos - neg
    before[1:] = w1 * (before_x * inv_sqrt_u) + (counts * scaled).sum(axis=0)
    all_starts = np.zeros(starts.size + 1, dtype=np.int64)
    all_starts[1:] = starts
    for array in (all_starts, before, value):
        array.setflags(write=False)
    return all_starts, before, value
