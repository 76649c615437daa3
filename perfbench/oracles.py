"""Reference computations the benchmark checks the program against.

Written with numpy alone, never importing ``repro``, so a fault in the
program's transform, top-k or query code cannot cancel out of a check.  The
formulations are deliberately different from the program's: the transform is
computed from prefix sums of the signal (one dot product per dyadic support)
instead of the program's bottom-up averaging, and range sums come from prefix
sums of the reconstructed signal, kept per constant piece, instead of the
engine's closed-form prefix sums of each basis vector.

Conventions match the paper: keys and coefficient indices are 1-based,
``w_1 = sum(v) / sqrt(u)`` and coefficient ``i = 2^j + k + 1`` is the detail
at level ``j`` whose basis is ``-1/sqrt(W)`` on the left half and
``+1/sqrt(W)`` on the right half of keys ``[k W + 1, (k + 1) W]``,
``W = u / 2^j``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Tuple

import numpy as np

# Exact-algorithm coefficients and SSEs must agree to this relative precision:
# both sides sum the same integers in a different order.
EXACT_RTOL = 1e-9
# Served range sums must agree with oracle range sums to this relative
# precision; the absolute floor of one part in a million of one record keeps
# ranges whose true sum is near zero from failing on rounding alone.
ANSWER_RTOL = 1e-6


def _levels(u: int) -> int:
    if u < 1 or u & (u - 1):
        raise ValueError(f"domain must be a power of two, got {u}")
    return u.bit_length() - 1


def haar(v: np.ndarray) -> np.ndarray:
    """Orthonormal Haar transform of a length-``u`` signal.

    ``result[i - 1]`` is coefficient ``w_i``.
    """
    v = np.asarray(v, dtype=np.float64)
    u = v.size
    log_u = _levels(u)
    prefix = np.concatenate(([0.0], np.cumsum(v)))
    w = np.empty(u, dtype=np.float64)
    w[0] = prefix[-1] / np.sqrt(u)
    for level in range(log_u):
        width = u >> level
        starts = np.arange(1 << level, dtype=np.int64) * width  # 0-based
        left = prefix[starts + width // 2] - prefix[starts]
        right = prefix[starts + width] - prefix[starts + width // 2]
        w[(1 << level):(2 << level)] = (right - left) / np.sqrt(width)
    return w


def inverse_haar(w: np.ndarray) -> np.ndarray:
    """Signal whose :func:`haar` is ``w`` (dense, length ``u``)."""
    w = np.asarray(w, dtype=np.float64)
    u = w.size
    log_u = _levels(u)
    offsets = np.arange(u, dtype=np.int64)  # key - 1
    v = np.full(u, w[0] / np.sqrt(u))
    for level in range(log_u):
        width = u >> level
        index = (1 << level) + offsets // width  # 0-based position of w_i
        sign = np.where(offsets % width >= width // 2, 1.0, -1.0)
        v += sign * w[index] / np.sqrt(width)
    return v


def dense(coefficients: Mapping[int, float], u: int) -> np.ndarray:
    """A sparse ``{index: value}`` coefficient set as a dense length-``u`` array."""
    w = np.zeros(u, dtype=np.float64)
    for index, value in coefficients.items():
        if not 1 <= int(index) <= u:
            raise ValueError(f"coefficient index {index} outside [1, {u}]")
        w[int(index) - 1] = float(value)
    return w


def top_k(w: np.ndarray, k: int) -> Dict[int, float]:
    """The ``k`` largest-magnitude coefficients of ``w`` as ``{index: value}``.

    Ties at the k-th magnitude are broken by index; callers that compare
    against another top-k accept any tie-break (see :func:`optimal_sse`).
    """
    order = np.lexsort((np.arange(w.size), -np.abs(w)))[:k]
    return {int(i) + 1: float(w[i]) for i in order}


def optimal_sse(w: np.ndarray, k: int) -> float:
    """The least SSE any ``k``-term synopsis of the signal can reach.

    By Parseval, the energy of the coefficients left out: every coefficient
    but the ``k`` largest in magnitude.
    """
    squares = np.sort(np.square(w))
    return float(squares[: max(0, w.size - k)].sum())


def sse(v: np.ndarray, coefficients: Mapping[int, float]) -> float:
    """SSE of a synopsis against its signal, measured in the signal domain."""
    v = np.asarray(v, dtype=np.float64)
    error = v - inverse_haar(dense(coefficients, v.size))
    return float(np.dot(error, error))


class RangeOracle:
    """Range sums of the signal a sparse coefficient set reconstructs.

    The reconstruction is constant between the support boundaries (start,
    midpoint, end) of the kept coefficients, so its prefix sums are kept per
    piece: ``O(k)`` memory per synopsis instead of a dense length-``u`` array.
    """

    def __init__(self, coefficients: Mapping[int, float], u: int) -> None:
        _levels(u)
        boundaries = {1}
        supports = []
        mean = 0.0
        for index, value in coefficients.items():
            index = int(index)
            if not 1 <= index <= u:
                raise ValueError(f"coefficient index {index} outside [1, {u}]")
            if index == 1:
                mean = float(value) / np.sqrt(u)
                continue
            level = (index - 1).bit_length() - 1
            width = u >> level
            start = (index - 1 - (1 << level)) * width + 1
            supports.append((start, start + width // 2, start + width,
                             float(value) / np.sqrt(width)))
            boundaries.update(b for b in (start, start + width // 2, start + width) if b <= u)
        self.starts = np.array(sorted(boundaries), dtype=np.int64)
        self.values = np.full(self.starts.size, mean)
        for start, middle, end, height in supports:
            inside = (self.starts >= start) & (self.starts < end)
            self.values += np.where(inside, np.where(self.starts >= middle, height, -height), 0.0)
        lengths = np.diff(np.append(self.starts, u + 1))
        self.before = np.concatenate(([0.0], np.cumsum(self.values * lengths)[:-1]))

    def prefix(self, keys: np.ndarray) -> np.ndarray:
        """``sum_{x=1..key}`` of the signal (0 for key 0)."""
        keys = np.asarray(keys, dtype=np.int64)
        piece = np.maximum(np.searchsorted(self.starts, keys, side="right") - 1, 0)
        inside = keys - self.starts[piece] + 1
        return np.where(keys >= 1, self.before[piece] + self.values[piece] * inside, 0.0)

    def sums(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """``sum_{x=lo..hi}`` of the signal, per ``(lo, hi)`` pair."""
        return self.prefix(his) - self.prefix(np.asarray(los, dtype=np.int64) - 1)


def answers_match(answers: np.ndarray, expected: np.ndarray) -> bool:
    """Whether served answers agree with oracle answers to :data:`ANSWER_RTOL`."""
    answers = np.asarray(answers, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if answers.shape != expected.shape:
        return False
    bound = ANSWER_RTOL * np.maximum(np.abs(expected), 1.0)
    return bool(np.all(np.abs(answers - expected) <= bound))


def counts(keys: np.ndarray, u: int) -> np.ndarray:
    """Frequency vector ``v`` (length ``u``, int64) of 1-based keys."""
    return np.bincount(np.asarray(keys, dtype=np.int64), minlength=u + 1)[1:].astype(np.int64)


def replay(batches, u: int) -> Iterator[np.ndarray]:
    """Net counts after each ``(inserts, deletes)`` batch, applied in order.

    Yields one array that is updated in place; copy it to keep a snapshot.
    """
    net = np.zeros(u, dtype=np.int64)
    for inserts, deletes in batches:
        net += counts(inserts, u)
        net -= counts(deletes, u)
        yield net


def exact_topk_error(w: np.ndarray, k: int, coefficients: Mapping[int, float]) -> str:
    """Why ``coefficients`` is not an exact top-``k`` synopsis of ``w``, or ``""``.

    The coefficients must be at most ``k`` valid indices whose values equal
    the transform there, and their SSE must equal the optimal ``k``-term SSE,
    so any tie-break at the k-th magnitude is accepted.
    """
    if len(coefficients) > k:
        return f"{len(coefficients)} coefficients for k={k}"
    scale = float(np.abs(w).max()) if w.size else 0.0
    for index, value in coefficients.items():
        if not 1 <= int(index) <= w.size:
            return f"index {index} outside [1, {w.size}]"
        truth = w[int(index) - 1]
        if abs(float(value) - truth) > EXACT_RTOL * max(abs(truth), scale, 1.0):
            return f"w_{index} = {value!r}, transform gives {truth!r}"
    kept = np.array([w[int(i) - 1] for i in coefficients], dtype=np.float64)
    achieved = float(np.dot(w, w) - np.dot(kept, kept))
    best = optimal_sse(w, k)
    if abs(achieved - best) > EXACT_RTOL * max(best, np.dot(w, w) * 1e-6, 1.0):
        return f"SSE {achieved!r} against optimal {best!r}"
    return ""


def approximate_error(v: np.ndarray, w: np.ndarray, k: int,
                      coefficients: Mapping[int, float], factor: float,
                      min_count: int) -> Tuple[str, float]:
    """Check an approximate synopsis; returns ``(reason or "", sse / optimum)``.

    It must hold between ``min_count`` and ``k`` coefficients at valid
    indices with finite values, and its SSE must be no lower than the
    optimum and at most ``factor`` times it.
    """
    if not min_count <= len(coefficients) <= k:
        return (f"{len(coefficients)} coefficients, expected {min_count} to {k}",
                float("nan"))
    for index, value in coefficients.items():
        if not 1 <= int(index) <= v.size or not np.isfinite(value):
            return f"invalid coefficient w_{index} = {value!r}", float("nan")
    achieved = sse(v, coefficients)
    best = optimal_sse(w, k)
    ratio = achieved / best if best > 0 else float("inf")
    if achieved < best * (1 - EXACT_RTOL):
        return f"SSE {achieved!r} below the optimum {best!r}", ratio
    if achieved > factor * best:
        return f"SSE {achieved!r} is {ratio:.3f}x the optimum (limit {factor}x)", ratio
    return "", ratio
