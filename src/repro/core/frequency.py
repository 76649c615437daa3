"""Frequency-vector helpers.

A *frequency vector* ``v`` over domain ``[u]`` maps each key ``x`` to the
number of occurrences ``v(x)`` of that key in a dataset (paper Section 1).
Datasets in this library are usually huge relative to the domain, so the
canonical in-memory representation is a sparse ``dict``; :class:`FrequencyVector`
wraps it with the operations the algorithms need (aggregation, dense export,
energy, scaling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Tuple

import numpy as np

from repro.core.haar import validate_domain
from repro.errors import KeyOutOfDomainError

__all__ = [
    "FrequencyVector",
    "frequency_vector_from_keys",
    "first_occurrence_counts",
    "merge_key_counts",
]


def first_occurrence_counts(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Count key occurrences, returning distinct keys in first-occurrence order.

    The vectorised equivalent of the mapper's per-record hash-map loop: the
    returned ``(unique_keys, counts)`` arrays list each distinct key exactly
    once, ordered by where the key *first* appears in ``keys`` — the same
    insertion order a ``dict`` built record-at-a-time would have.  Only the
    sampling mappers need that order: their Close methods iterate the
    aggregation, and TwoLevel-S draws its second-level RNG per entry, so any
    other order would break plane equivalence.  Mappers that transform their
    counts take sorted ``np.unique`` counts instead, since the exact
    transform does not depend on any order.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    unique, first_index, counts = np.unique(keys, return_index=True,
                                            return_counts=True)
    order = np.argsort(first_index, kind="stable")
    return unique[order], counts[order]


def merge_key_counts(counts: Dict[int, int], keys: np.ndarray) -> None:
    """Fold a batch of record keys into a mapper's count dict, in place.

    Exactly equivalent to ``for key in keys: counts[key] = counts.get(key, 0) + 1``
    — including the dict's resulting insertion order, which the sampling
    mappers' Close methods depend on (see :func:`first_occurrence_counts`) —
    but one vectorised counting pass plus one update per *distinct* key.
    """
    unique, batch_counts = first_occurrence_counts(keys)
    if not counts:
        counts.update(zip(unique.tolist(), batch_counts.tolist()))
        return
    for key, count in zip(unique.tolist(), batch_counts.tolist()):
        counts[key] = counts.get(key, 0) + count


@dataclass
class FrequencyVector:
    """Sparse frequency vector over the key domain ``[1, u]``.

    Attributes:
        u: domain size (power of two).
        counts: mapping from key to count; zero-count keys are never stored.
    """

    u: int
    counts: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate_domain(self.u)
        for key in self.counts:
            self._check_key(key)
        # Drop explicit zeros so sparsity invariants hold.
        self.counts = {k: float(c) for k, c in self.counts.items() if c != 0}

    def _check_key(self, key: int) -> None:
        if not 1 <= key <= self.u:
            raise KeyOutOfDomainError(f"key {key} outside domain [1, {self.u}]")

    def add(self, key: int, count: float = 1.0) -> None:
        """Add ``count`` occurrences of ``key`` (negative counts allowed for deltas)."""
        self._check_key(key)
        new = self.counts.get(key, 0.0) + count
        if new == 0.0:
            self.counts.pop(key, None)
        else:
            self.counts[key] = new

    def get(self, key: int) -> float:
        """Return ``v(key)`` (0 for absent keys)."""
        self._check_key(key)
        return self.counts.get(key, 0.0)

    def merge(self, other: "FrequencyVector") -> "FrequencyVector":
        """Return a new vector equal to ``self + other`` (domains must match)."""
        if other.u != self.u:
            raise KeyOutOfDomainError(
                f"cannot merge frequency vectors over different domains ({self.u} vs {other.u})"
            )
        merged = FrequencyVector(self.u, dict(self.counts))
        for key, count in other.counts.items():
            merged.add(key, count)
        return merged

    def scale(self, factor: float) -> "FrequencyVector":
        """Return a new vector with every count multiplied by ``factor``."""
        return FrequencyVector(self.u, {k: c * factor for k, c in self.counts.items()})

    def to_dense(self) -> np.ndarray:
        """Materialise the dense length-``u`` vector (index ``x - 1`` holds ``v(x)``)."""
        dense = np.zeros(self.u, dtype=float)
        for key, count in self.counts.items():
            dense[key - 1] = count
        return dense

    @classmethod
    def from_dense(cls, dense: np.ndarray | Iterable[float]) -> "FrequencyVector":
        """Build a sparse vector from a dense array whose length is the domain size."""
        arr = np.asarray(dense, dtype=float)
        vector = cls(arr.shape[0])
        for index, value in enumerate(arr):
            if value != 0:
                vector.counts[index + 1] = float(value)
        return vector

    @property
    def total_count(self) -> float:
        """Total number of records represented (``n`` when counts are raw frequencies)."""
        return float(sum(self.counts.values()))

    @property
    def distinct_keys(self) -> int:
        """Number of keys with a non-zero count."""
        return len(self.counts)

    def energy(self) -> float:
        """Squared L2 norm of the vector (the signal energy preserved by the transform)."""
        return float(sum(c * c for c in self.counts.values()))

    def items(self) -> Iterator[Tuple[int, float]]:
        """Iterate over ``(key, count)`` pairs for non-zero keys."""
        return iter(self.counts.items())

    def __len__(self) -> int:
        return self.distinct_keys

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequencyVector):
            return NotImplemented
        return self.u == other.u and self.counts == other.counts


def frequency_vector_from_keys(keys: Iterable[int], u: int) -> FrequencyVector:
    """Count key occurrences into a :class:`FrequencyVector`.

    This is exactly what a mapper does when it scans its split (paper
    Appendix A): a hash map from key to count — computed here with one
    vectorised counting pass (:func:`first_occurrence_counts`), which
    produces the same mapping in the same insertion order as the
    record-at-a-time loop.
    """
    arr = np.asarray(keys if isinstance(keys, np.ndarray) else list(keys),
                     dtype=np.int64)
    vector = FrequencyVector(u)
    if arr.size == 0:
        return vector
    bad = (arr < 1) | (arr > u)
    if bad.any():
        raise KeyOutOfDomainError(f"key {int(arr[bad][0])} outside domain [1, {u}]")
    unique, counts = first_occurrence_counts(arr)
    vector.counts = {
        key: float(count) for key, count in zip(unique.tolist(), counts.tolist())
    }
    return vector
