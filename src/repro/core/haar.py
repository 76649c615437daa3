"""Haar wavelet transforms.

The paper (Section 2.1) uses the orthonormal Haar basis over a domain
``[u] = {1, ..., u}`` where ``u`` is a power of two.  Coefficients are indexed
``1 .. u`` (we use the same 1-based indexing throughout the library so the
code matches the paper's notation):

* ``w_1`` is the overall average scaled by ``sqrt(u)`` (the dot product of the
  signal with the constant basis vector ``[1, ..., 1] / sqrt(u)``).
* For ``j = 0 .. log2(u) - 1`` and ``k = 0 .. 2^j - 1``, coefficient
  ``i = 2^j + k + 1`` is the detail coefficient at resolution level ``j``
  covering the key range ``[k * u / 2^j + 1, (k + 1) * u / 2^j]``.

With this normalisation the transform is orthonormal, i.e. it preserves the
signal's energy (Parseval): ``sum(v[x]^2) == sum(w[i]^2)``.

Four transform implementations are provided:

``haar_transform``
    Dense ``O(u)`` bottom-up transform used by the centralized algorithm of
    Matias et al. [26].

``exact_haar_numerators`` / ``exact_haar_arrays``
    The sparse ``O(|v| log u)`` transform of Gilbert et al. [20] for
    *integer* counts, given as sorted distinct keys and int64 counts.  Every
    coefficient is one exact int64 numerator -- the total count for ``w_1``,
    the right-half count minus the left-half count ``R - L`` for a detail --
    divided once by ``sqrt(W)``, ``W`` its support width
    (:func:`coefficient_scales`).  Since the keys are sorted, each node of a
    level is one run of keys: one node-change mask and one ``np.add.reduceat``
    compute every numerator, with nothing to sort.  Every integer-count path
    runs on it -- the Send-V reducer, the Send-Coef, H-WTopk and Send-Sketch
    mappers, the streaming partials and maintainers -- so they agree bit for
    bit, and Send-Coef can ship the numerators and sum them exactly.

``sparse_haar_transform``
    The same sparse transform over fractional counts (the samplers'
    estimated frequency vectors): each key adds ``+-count / sqrt(W)`` to the
    coefficients on its path, in float, grouped by one stable sort
    (``sparse_haar_arrays`` returns the same coefficients as arrays).

``inverse_haar_transform``
    Exact inverse of ``haar_transform`` (used for reconstruction and SSE
    computation).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from repro.errors import InvalidDomainError, InvalidParameterError, KeyOutOfDomainError

__all__ = [
    "validate_domain",
    "haar_transform",
    "inverse_haar_transform",
    "exact_haar_arrays",
    "exact_haar_numerators",
    "coefficient_scales",
    "integer_count_arrays",
    "sparse_haar_transform",
    "sparse_haar_arrays",
    "sparse_inverse_contribution",
    "wavelet_basis_vector",
    "basis_value",
    "coefficient_level",
    "coefficient_support",
    "coefficients_for_key",
    "energy",
]


def validate_domain(u: int) -> int:
    """Validate that ``u`` is a positive power of two and return ``log2(u)``.

    Raises:
        InvalidDomainError: if ``u`` is not a positive power of two.
    """
    if u < 1 or (u & (u - 1)) != 0:
        raise InvalidDomainError(f"domain size must be a positive power of two, got {u}")
    return u.bit_length() - 1


def energy(values: Iterable[float]) -> float:
    """Return the energy (squared L2 norm) of a signal or coefficient set."""
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    return float(np.dot(arr, arr))


def haar_transform(v: np.ndarray | Iterable[float]) -> np.ndarray:
    """Compute the orthonormal Haar wavelet transform of dense signal(s).

    Args:
        v: the frequency vector, length ``u`` (a power of two).  Index ``x`` of
            the array holds ``v(x + 1)`` in the paper's 1-based notation.  A 2-D
            array of shape ``(batch, u)`` transforms every row in one batched
            pass (used by the parallel runtime to amortise numpy dispatch over
            many per-split vectors).

    Returns:
        An array ``w`` of the same shape where ``w[..., i - 1]`` is the paper's
        coefficient ``w_i``.

    The transform runs bottom-up in ``O(u)`` time per signal: at each level the
    current averages are pairwise averaged and differenced; the orthonormal
    scaling ``sqrt(u / 2^level)`` is applied at the end per level.
    """
    v = np.asarray(v, dtype=float)
    u = v.shape[-1]
    log_u = validate_domain(u)

    w = np.zeros(v.shape, dtype=float)
    # The averages are overwritten level by level; the caller's signal is not.
    averages = v.copy()  # reprolint: disable=hot-path-copy
    # Unnormalised tree coefficients: detail at level j has 2^j entries and is
    # stored at indices [2^j, 2^(j+1)) (0-based index i-1 for coefficient i).
    for level in range(log_u - 1, -1, -1):
        evens = averages[..., 0::2]
        odds = averages[..., 1::2]
        details = (odds - evens) / 2.0
        averages = (evens + odds) / 2.0
        scale = math.sqrt(u / (2 ** level))
        w[..., 2 ** level : 2 ** (level + 1)] = details * scale
    w[..., 0] = averages[..., 0] * math.sqrt(u)
    return w


def inverse_haar_transform(w: np.ndarray | Iterable[float]) -> np.ndarray:
    """Invert :func:`haar_transform`, returning the dense signal(s).

    Args:
        w: array of length ``u`` holding the orthonormal coefficients
            (``w[i - 1]`` is coefficient ``w_i``); a ``(batch, u)`` array
            inverts every row.

    Returns:
        The reconstructed signal, same shape as ``w``.
    """
    w = np.asarray(w, dtype=float)
    u = w.shape[-1]
    log_u = validate_domain(u)

    averages = w[..., :1] / math.sqrt(u)
    for level in range(0, log_u):
        scale = math.sqrt(u / (2 ** level))
        details = w[..., 2 ** level : 2 ** (level + 1)] / scale
        next_averages = np.empty(w.shape[:-1] + (averages.shape[-1] * 2,), dtype=float)
        next_averages[..., 0::2] = averages - details
        next_averages[..., 1::2] = averages + details
        averages = next_averages
    return averages


def coefficient_level(index: int, u: int) -> int:
    """Return the resolution level of coefficient ``index`` (1-based).

    Level 0 holds ``w_1`` (overall average) and ``w_2``; detail coefficient
    ``i = 2^j + k + 1`` is at level ``j``.
    """
    validate_domain(u)
    if index < 1 or index > u:
        raise KeyOutOfDomainError(f"coefficient index {index} outside [1, {u}]")
    if index == 1:
        return 0
    return (index - 1).bit_length() - 1


def coefficient_support(index: int, u: int) -> Tuple[int, int]:
    """Return the inclusive 1-based key range ``[lo, hi]`` a coefficient covers.

    ``w_1`` and ``w_2`` cover the whole domain; detail coefficient
    ``i = 2^j + k + 1`` covers ``[k * u / 2^j + 1, (k + 1) * u / 2^j]``.
    """
    validate_domain(u)
    if index < 1 or index > u:
        raise KeyOutOfDomainError(f"coefficient index {index} outside [1, {u}]")
    if index == 1:
        return (1, u)
    j = (index - 1).bit_length() - 1
    k = index - 1 - 2 ** j
    width = u // (2 ** j)
    lo = k * width + 1
    return (lo, lo + width - 1)


def coefficients_for_key(key: int, u: int) -> Tuple[int, ...]:
    """Return the indices of all coefficients whose basis vector is non-zero at ``key``.

    Every key contributes to exactly ``log2(u) + 1`` coefficients: the overall
    average ``w_1`` plus one detail coefficient per level.  This is the path
    from the leaf to the root of the coefficient tree and is the backbone of
    the sparse transform.
    """
    log_u = validate_domain(u)
    if key < 1 or key > u:
        raise KeyOutOfDomainError(f"key {key} outside domain [1, {u}]")
    indices = [1]
    for j in range(0, log_u):
        k = (key - 1) // (u // (2 ** j)) if j > 0 else 0
        indices.append(2 ** j + k + 1)
    return tuple(indices)


def basis_value(index: int, key: int, u: int) -> float:
    """Return ``psi_index(key)`` — the value of wavelet basis vector ``psi_index`` at ``key``.

    Runs in ``O(1)``; both arguments are 1-based as in the paper.
    """
    validate_domain(u)
    if index < 1 or index > u:
        raise KeyOutOfDomainError(f"coefficient index {index} outside [1, {u}]")
    if key < 1 or key > u:
        raise KeyOutOfDomainError(f"key {key} outside domain [1, {u}]")
    return _basis_value(index, key, u)


def _basis_value(index: int, key: int, u: int) -> float:
    """Return ``psi_index(key)`` — the value of a wavelet basis vector at a key."""
    if index == 1:
        return 1.0 / math.sqrt(u)
    j = (index - 1).bit_length() - 1
    k = index - 1 - 2 ** j
    width = u // (2 ** j)
    lo = k * width + 1
    hi = lo + width - 1
    if key < lo or key > hi:
        return 0.0
    half = width // 2
    scale = 1.0 / math.sqrt(width)
    if key <= lo + half - 1:
        return -scale
    return scale


def wavelet_basis_vector(index: int, u: int) -> np.ndarray:
    """Materialise the ``index``-th orthonormal Haar basis vector ``psi_index``.

    This follows the paper's Section 2.1 definition: ``psi_1 = 1/sqrt(u)`` and
    ``psi_i = (-phi_{j+1,2k} + phi_{j+1,2k+1}) / sqrt(u / 2^j)`` for
    ``i = 2^j + k + 1``.  Intended for tests and small domains; the transforms
    never materialise basis vectors.
    """
    validate_domain(u)
    if index < 1 or index > u:
        raise KeyOutOfDomainError(f"coefficient index {index} outside [1, {u}]")
    return np.fromiter((_basis_value(index, key, u) for key in range(1, u + 1)),
                       dtype=float, count=u)


def exact_haar_numerators(keys: np.ndarray | Iterable[int],
                          counts: np.ndarray | Iterable[int],
                          u: int) -> Tuple[np.ndarray, np.ndarray]:
    """The sparse Haar transform of integer counts, as exact integer numerators.

    Args:
        keys: distinct 1-based keys in ascending order.
        counts: their integer counts (negative for stream deltas); zero
            counts are dropped.
        u: domain size (power of two).

    Returns:
        ``(indices, numerators)``, both int64: the ascending indices of every
        coefficient on some key's leaf-to-root path, and per index the total
        count (``w_1``) or the right-half minus the left-half count ``R - L``
        (a detail coefficient).  ``w_i = numerators / coefficient_scales(
        indices, u)``, one division per coefficient; a numerator of 0 is an
        exact zero.  Numerators are exact as long as the counts' absolute sum
        stays below ``2**63``, and their quotients as long as it stays below
        ``2**53``.

    Runs in ``O(|keys| log u)`` with one node-change mask and one
    ``np.add.reduceat`` over all levels; nothing is sorted.
    """
    log_u = validate_domain(u)
    keys = np.asarray(keys, dtype=np.int64)
    counts = np.asarray(counts)
    if keys.ndim != 1 or keys.shape != counts.shape:
        raise InvalidParameterError("keys and counts must be aligned 1-D arrays")
    if counts.size and counts.dtype.kind not in "iu":
        raise InvalidParameterError(
            f"the exact transform takes integer counts, got {counts.dtype}")
    counts = counts.astype(np.int64, copy=False)
    nonzero = counts != 0
    if not nonzero.all():
        keys, counts = keys[nonzero], counts[nonzero]
    if keys.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if keys[0] < 1 or keys[-1] > u:
        bad = keys[(keys < 1) | (keys > u)][0]
        raise KeyOutOfDomainError(f"key {bad} outside domain [1, {u}]")
    if np.any(keys[1:] <= keys[:-1]):
        raise InvalidParameterError("keys must be distinct and ascending")

    d = keys.size
    # Row j holds each key's node at level j + 1.  Its parent (child >> 1) is
    # the level-j node whose coefficient the key feeds: on the right half of
    # that node's support when the child is odd, on the left when even.
    child = (keys - 1) >> np.arange(log_u - 1, -1, -1, dtype=np.int64)[:, np.newaxis]
    nodes = child >> 1
    # The keys ascend, so every node is one run of its level's row, and the
    # runs of all levels start where the node id changes.
    change = np.empty((log_u, d), dtype=bool)
    change[:, 0] = True
    np.not_equal(nodes[:, 1:], nodes[:, :-1], out=change[:, 1:])
    starts = np.flatnonzero(change)
    numerators = np.add.reduceat((counts * ((child & 1) * 2 - 1)).ravel(), starts)
    indices = nodes.ravel()[starts] + (1 << (starts // d)) + 1
    return (np.concatenate(([1], indices)),
            np.concatenate(([counts.sum()], numerators)))


def exact_haar_arrays(keys: np.ndarray | Iterable[int],
                      counts: np.ndarray | Iterable[int],
                      u: int) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`exact_haar_numerators` divided out: ``(indices, values)``.

    Each value is its numerator divided once by ``sqrt(W)``, so integer
    counts transform to the same bits on every path, whatever the split or
    fold that produced them.
    """
    indices, numerators = exact_haar_numerators(keys, counts, u)
    return indices, numerators / coefficient_scales(indices, u)


def coefficient_scales(indices: np.ndarray | Iterable[int], u: int) -> np.ndarray:
    """``sqrt(W)`` of each 1-based coefficient index, ``W`` its support width.

    ``W = u`` for ``w_1`` and ``u / 2^j`` for a detail at level ``j``: the
    divisor that turns an :func:`exact_haar_numerators` numerator into its
    coefficient.
    """
    log_u = validate_domain(u)
    indices = np.asarray(indices, dtype=np.int64)
    # frexp's exponent of i - 1 >= 1 is its bit length, one more than the level.
    levels = np.frexp(np.maximum(indices - 1, 1))[1] - 1
    return np.sqrt(np.ldexp(1.0, log_u - levels))


def integer_count_arrays(counts: Mapping[int, float]) -> Tuple[np.ndarray, np.ndarray]:
    """A sparse count mapping as ascending int64 ``(keys, counts)`` arrays.

    The input of :func:`exact_haar_numerators` for integer-valued counts
    held in a dict, in any key order (float values such as ``3.0`` are
    accepted).

    Raises:
        InvalidParameterError: if a count is not an integer.
    """
    keys = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    values = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    if not np.all(np.trunc(values) == values):
        raise InvalidParameterError("the exact transform takes integer counts")
    order = np.argsort(keys, kind="stable")
    return keys[order], values[order].astype(np.int64)


def sparse_haar_transform(counts: Mapping[int, float], u: int) -> Dict[int, float]:
    """Compute the non-zero Haar coefficients of a sparse frequency vector.

    Args:
        counts: mapping from 1-based key to its (possibly fractional) count.
            Keys with zero count may be omitted.
        u: domain size (power of two).

    Returns:
        Mapping from 1-based coefficient index to its value, in ascending
        index order; only coefficients that can be non-zero (those on some
        present key's leaf-to-root path) appear.  Exact cancellations may
        still leave zero-valued entries.

    Runs in ``O(|counts| * log u)`` time using the per-key path decomposition:
    coefficient ``w_i = sum_x v(x) * psi_i(x)``, and a single key contributes
    to only ``log2(u) + 1`` coefficients.  See :func:`sparse_haar_arrays` for
    the same coefficients as arrays; the samplers' fractional estimates are
    its callers, and integer counts take :func:`exact_haar_arrays`.
    """
    indices, values = sparse_haar_arrays(counts, u)
    return dict(zip(indices.tolist(), values.tolist()))


def sparse_haar_arrays(counts: Mapping[int, float], u: int) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`sparse_haar_transform` as ``(indices, values)`` arrays.

    Returns the 1-based coefficient indices (int64, ascending and distinct)
    and their values (float64), for callers that feed the coefficients to
    numpy rather than look them up.  The implementation is batched numpy:
    one vectorised pass per resolution level over all present keys, then one
    stable sort that groups the contributions by index, each group summed in
    the mapping's key order.  Integer counts take
    :func:`exact_haar_arrays` instead, which is exact and sorts nothing.
    """
    log_u = validate_domain(u)
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    if not counts:
        return empty
    keys = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    values = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    nonzero = values != 0.0
    keys, values = keys[nonzero], values[nonzero]
    if keys.size == 0:
        return empty
    if keys.min() < 1 or keys.max() > u:
        bad = keys[(keys < 1) | (keys > u)][0]
        raise KeyOutOfDomainError(f"key {bad} outside domain [1, {u}]")

    # One (index, contribution) pair per key per level, plus the w_1 row.
    num_levels = log_u + 1
    indices = np.empty((num_levels, keys.size), dtype=np.int64)
    contributions = np.empty((num_levels, keys.size), dtype=np.float64)
    indices[0] = 1
    contributions[0] = values / math.sqrt(u)
    offsets = keys - 1
    for j in range(log_u):
        width = u >> j
        indices[j + 1] = (1 << j) + offsets // width + 1
        # psi is -1/sqrt(width) on the left half of its support, +1/sqrt(width)
        # on the right half.
        sign = np.where(offsets % width < width >> 1, -1.0, 1.0)
        contributions[j + 1] = values * sign / math.sqrt(width)

    flat_indices = indices.ravel()
    flat_contributions = contributions.ravel()
    order = _grouping_order(flat_indices, u)
    sorted_indices = flat_indices[order]
    sorted_contributions = flat_contributions[order]
    boundaries = np.flatnonzero(np.diff(sorted_indices)) + 1
    starts = np.concatenate(([0], boundaries))
    return sorted_indices[starts], np.add.reduceat(sorted_contributions, starts)


def _grouping_order(flat_indices: np.ndarray, u: int) -> np.ndarray:
    """The stable ascending order of 1-based coefficient indices in ``[1, u]``.

    For ``u <= 2**16`` the indices minus one fit in 16 bits, and numpy's
    stable sort of 16-bit integers is a radix sort, several times faster than
    the int64 merge sort.  A stable order of the same keys is unique, so both
    branches return the same permutation.
    """
    if u <= 1 << 16:
        return np.argsort((flat_indices - 1).astype(np.uint16), kind="stable")
    return np.argsort(flat_indices, kind="stable")


def sparse_inverse_contribution(coefficients: Mapping[int, float], key: int, u: int) -> float:
    """Reconstruct the value of a single key from a sparse coefficient set.

    ``v(key) = sum_i w_i * psi_i(key)``; only the ``log2(u) + 1`` coefficients
    on the key's path can contribute, so this runs in ``O(log u)`` regardless
    of how many coefficients are retained.
    """
    validate_domain(u)
    if key < 1 or key > u:
        raise KeyOutOfDomainError(f"key {key} outside domain [1, {u}]")
    value = 0.0
    for index in coefficients_for_key(key, u):
        w = coefficients.get(index)
        if w:
            value += w * _basis_value(index, key, u)
    return value
