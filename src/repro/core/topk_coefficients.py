"""Selection of the best k-term wavelet representation.

The best k-term representation under the L2 error metric keeps the ``k``
coefficients of largest *magnitude* (paper Section 2.1): because the
orthonormal transform preserves energy, dropping the smallest-magnitude
coefficients minimises the energy loss among all k-term representations.

The centralized algorithm streams over all coefficients; these helpers
select in numpy instead: ``np.partition`` finds the ``k``-th score, and one
``lexsort`` (score, then index) orders only the entries that reach it.  That
picks exactly the head of the full lexsort, so the tie-break rules match the
earlier heap-based implementation -- score ties go to the smaller
coefficient index -- and for a given coefficient mapping the selection is
fully deterministic and identical across executors.  Integer counts
transform exactly, one integer numerator divided once per coefficient
(:func:`exact_top_k`, :mod:`repro.core.haar`), so Send-V, Send-Coef and the
streaming maintainers select from the same bits for the same counts.
H-WTopk's coordinator still adds per-split float coefficients, and the
samplers' fractional estimates take a float fold; the last bits of those
values depend on the order their terms are added in.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from repro.core.haar import exact_haar_arrays, integer_count_arrays
from repro.errors import InvalidParameterError

__all__ = [
    "exact_top_k",
    "merge_coefficients",
    "top_k_coefficients",
    "top_k_from_arrays",
    "top_k_from_dense",
    "bottom_k_items",
    "bottom_k_positions",
    "top_k_items",
    "top_k_positions",
]


def _validate_k(k: int) -> None:
    if k < 1:
        raise InvalidParameterError(f"k must be a positive integer, got {k}")


def _items_as_arrays(items: Mapping[int, float]) -> Tuple[np.ndarray, np.ndarray]:
    indices = np.fromiter(items.keys(), dtype=np.int64, count=len(items))
    values = np.fromiter(items.values(), dtype=np.float64, count=len(items))
    return indices, values


def _head_positions(indices: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` largest scores, descending; ties to the smaller index.

    Exactly ``np.lexsort((indices, -scores))[:k]``, but the lexsort runs only
    over the entries that reach the ``k``-th largest score, which
    ``np.partition`` finds in linear time.  Those are the fewer-than-``k``
    larger entries plus every tie at the ``k``-th score, so the head of their
    order is the head of the full order.
    """
    if scores.size > k:
        kth = np.partition(scores, scores.size - k)[scores.size - k]
        candidates = np.flatnonzero(scores >= kth)
        order = np.lexsort((indices[candidates], -scores[candidates]))[:k]
        return candidates[order]
    return np.lexsort((indices, -scores))


def top_k_from_arrays(indices: np.ndarray, values: np.ndarray, k: int) -> Dict[int, float]:
    """:func:`top_k_coefficients` of aligned ``(indices, values)`` arrays.

    ``indices`` must be distinct; zero values are never selected.
    """
    _validate_k(k)
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    order = _head_positions(indices, np.abs(values), k)
    return {
        int(indices[i]): float(values[i]) for i in order if values[i] != 0.0
    }


def exact_top_k(counts: Mapping[int, float], u: int, k: int) -> Dict[int, float]:
    """The top-``k`` coefficients of a sparse vector of integer counts.

    The counts are transformed by the exact integer kernel
    (:func:`~repro.core.haar.exact_haar_arrays`), so every path that selects
    from the same counts -- a batch build, a streaming publish -- selects the
    same bits.
    """
    return top_k_from_arrays(*exact_haar_arrays(*integer_count_arrays(counts), u), k)


def top_k_coefficients(coefficients: Mapping[int, float], k: int) -> Dict[int, float]:
    """Return the ``k`` coefficients of largest magnitude from a sparse mapping.

    Ties on magnitude are broken by smaller coefficient index so the result is
    deterministic.  If fewer than ``k`` non-zero coefficients exist, all of
    them are returned.

    Args:
        coefficients: mapping from coefficient index to value.
        k: number of coefficients to retain.

    Returns:
        Mapping from index to value containing at most ``k`` entries, in
        descending magnitude order.
    """
    _validate_k(k)
    return top_k_from_arrays(*_items_as_arrays(coefficients), k)


def merge_coefficients(*maps: Mapping[int, float]) -> Dict[int, float]:
    """Coefficient-wise sum of sparse coefficient maps (the linear merge).

    The Haar transform is linear, so the transform of a sum of frequency
    vectors is the entry-wise sum of their transforms — this is what makes
    per-partition partial synopses mergeable and what lets the streaming
    maintainer publish version ``v+1`` as ``v``'s coefficients plus an update
    delta, re-thresholded with :func:`top_k_coefficients`, instead of a full
    rebuild.  Entries are folded per map in order and returned in ascending
    index order with exact cancellations (sum == 0.0) removed, so the result
    is a valid sparse coefficient mapping in the same canonical form the
    transforms produce.
    """
    totals: Dict[int, float] = {}
    for mapping in maps:
        for index, value in mapping.items():
            totals[index] = totals.get(index, 0.0) + float(value)
    return {index: totals[index] for index in sorted(totals) if totals[index] != 0.0}


def top_k_from_dense(w: np.ndarray | Iterable[float], k: int) -> Dict[int, float]:
    """Return the top-``k`` coefficients by magnitude from a dense coefficient array.

    The dense array is 0-based (entry ``i`` holds coefficient ``w_{i+1}``); the
    returned mapping uses the paper's 1-based coefficient indices.
    """
    _validate_k(k)
    arr = np.asarray(w, dtype=float)
    nonzero = np.flatnonzero(arr)
    order = _head_positions(nonzero, np.abs(arr[nonzero]), k)
    return {int(nonzero[i]) + 1: float(arr[nonzero[i]]) for i in order}


def top_k_positions(indices: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` largest (signed) scores, ordered descending.

    ``indices`` and ``values`` are aligned arrays of distinct item indices and
    their scores; score ties go to the smaller index.
    """
    _validate_k(k)
    return _head_positions(indices, values, k)


def bottom_k_positions(indices: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest (most negative) scores, ordered ascending.

    Score ties go to the smaller index.
    """
    _validate_k(k)
    return _head_positions(indices, -values, k)


def top_k_items(scores: Mapping[int, float], k: int) -> Tuple[Tuple[int, float], ...]:
    """Return the ``k`` items of largest (signed) score, ordered descending.

    Used by the H-WTopk mappers which must report their local top-``k`` and
    bottom-``k`` scored coefficients (paper Section 3, Round 1).  Score ties go
    to the smaller index.
    """
    _validate_k(k)
    if not scores:
        return ()
    indices, values = _items_as_arrays(scores)
    order = top_k_positions(indices, values, k)
    return tuple((int(indices[i]), float(values[i])) for i in order)


def bottom_k_items(scores: Mapping[int, float], k: int) -> Tuple[Tuple[int, float], ...]:
    """Return the ``k`` items of smallest (most negative) score, ordered ascending.

    Score ties go to the smaller index.
    """
    _validate_k(k)
    if not scores:
        return ()
    indices, values = _items_as_arrays(scores)
    order = bottom_k_positions(indices, values, k)
    return tuple((int(indices[i]), float(values[i])) for i in order)
