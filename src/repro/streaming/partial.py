"""Linear, mergeable partial synopses — the unit of streaming ingest.

The Haar transform is linear: ``transform(a + b) == transform(a) +
transform(b)`` for any two frequency vectors.  A :class:`PartialSynopsis`
exploits that by carrying the **count-space** delta of a batch of updates
(insertions add 1 to a key's count, deletions subtract 1) instead of a
truncated coefficient set:

* count deltas are integers, so :meth:`PartialSynopsis.merge` is *exact* —
  partials from different partitions or epochs fold associatively and
  commutatively with no float-ordering sensitivity, the ``merge()`` idiom of
  linear sketches;
* nothing is truncated, so the merged state still determines the full
  transform — the maintainer can re-select the top-``k`` for every published
  version instead of compounding truncation error;
* the coefficient-space view (:meth:`coefficients`) is computed through the
  same :func:`~repro.core.haar.sparse_haar_transform` the batch reducers use,
  over keys in ascending order — the batch fold order — which is what makes a
  streamed publish *byte-identical* (checksum and all) to a batch build of
  the same logical multiset.

Counting a batch goes through the columnar plane: one ``np.bincount`` pass
per update array, exactly like the Send-V batch mapper's whole-split
counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.core.haar import sparse_haar_transform, validate_domain
from repro.errors import InvalidParameterError, KeyOutOfDomainError

__all__ = ["PartialSynopsis"]


def _as_key_array(keys: Optional[Any], u: int) -> np.ndarray:
    """Canonicalise one update array: 1-D int64 keys, bounds-checked."""
    if keys is None:
        return np.zeros(0, dtype=np.int64)
    array = np.atleast_1d(np.asarray(keys, dtype=np.int64))
    if array.ndim != 1:
        raise InvalidParameterError("update keys must be a 1-D array")
    if array.size and (array.min() < 1 or array.max() > u):
        bad = array[(array < 1) | (array > u)][0]
        raise KeyOutOfDomainError(f"update key {int(bad)} outside domain [1, {u}]")
    return array


@dataclass(eq=False)
class PartialSynopsis:
    """The exact count-space delta of a slice of an update stream.

    Attributes:
        u: domain size (power of two).
        counts: sparse ``{key: net count delta}`` over ``[1, u]`` — positive
            for net insertions, negative for net deletions, zeros dropped.
        insertions: raw insertions folded into this partial.
        deletions: raw deletions folded into this partial.
        batches: update batches folded into this partial.
        partition: optional label of the ingest partition that produced it
            (``None`` after merging partials from different partitions).
    """

    u: int
    counts: Dict[int, float] = field(default_factory=dict)
    insertions: int = 0
    deletions: int = 0
    batches: int = 0
    partition: Optional[str] = None

    def __post_init__(self) -> None:
        validate_domain(self.u)
        cleaned: Dict[int, float] = {}
        for key, value in self.counts.items():
            key = int(key)
            if key < 1 or key > self.u:
                raise KeyOutOfDomainError(
                    f"count key {key} outside domain [1, {self.u}]"
                )
            value = float(value)
            if value != 0.0:
                cleaned[key] = value
        self.counts = cleaned

    # ------------------------------------------------------------ construction
    @classmethod
    def empty(cls, u: int, *, partition: Optional[str] = None) -> "PartialSynopsis":
        """A zero partial over ``[1, u]`` (the merge identity)."""
        return cls(u=u, partition=partition)

    @classmethod
    def from_updates(
        cls,
        u: int,
        inserts: Optional[Any] = None,
        deletes: Optional[Any] = None,
        *,
        partition: Optional[str] = None,
    ) -> "PartialSynopsis":
        """Count one batch of key updates via the columnar plane.

        ``np.bincount`` turns each update array into a dense count vector in
        one pass (the Send-V batch mapper's counting idiom); the sparse net
        delta is whatever survives insertions minus deletions.
        """
        validate_domain(u)
        insert_keys = _as_key_array(inserts, u)
        delete_keys = _as_key_array(deletes, u)
        delta = np.zeros(u + 1, dtype=np.int64)
        if insert_keys.size:
            delta += np.bincount(insert_keys, minlength=u + 1)
        if delete_keys.size:
            delta -= np.bincount(delete_keys, minlength=u + 1)
        present = np.flatnonzero(delta)
        counts = {int(key): float(delta[key]) for key in present}
        return cls(
            u=u,
            counts=counts,
            insertions=int(insert_keys.size),
            deletions=int(delete_keys.size),
            batches=1,
            partition=partition,
        )

    # ----------------------------------------------------------------- algebra
    def merge(self, other: "PartialSynopsis") -> "PartialSynopsis":
        """The exact sum of two partials (linear merge; associative, commutative).

        Count deltas are integers, so the sum carries no float-ordering
        sensitivity: any merge tree over any partitioning of the stream
        produces the identical partial.
        """
        if self.u != other.u:
            raise InvalidParameterError(
                f"cannot merge partial synopses over different domains "
                f"({self.u} vs {other.u})"
            )
        totals = dict(self.counts)
        for key, value in other.counts.items():
            totals[key] = totals.get(key, 0.0) + value
        counts = {key: totals[key] for key in sorted(totals) if totals[key] != 0.0}
        return PartialSynopsis(
            u=self.u,
            counts=counts,
            insertions=self.insertions + other.insertions,
            deletions=self.deletions + other.deletions,
            batches=self.batches + other.batches,
            partition=self.partition if self.partition == other.partition else None,
        )

    def negated(self) -> "PartialSynopsis":
        """The additive inverse: ``p.merge(p.negated())`` is the zero partial.

        Used by the sliding-window maintainer, where expiring an epoch means
        *subtracting* its partial.  The update counters flip sign too, so
        window-level bookkeeping stays a plain sum over the ring.
        """
        return PartialSynopsis(
            u=self.u,
            counts={key: -value for key, value in self.counts.items()},
            insertions=-self.insertions,
            deletions=-self.deletions,
            batches=-self.batches,
            partition=self.partition,
        )

    # ------------------------------------------------------------------- views
    def sorted_counts(self) -> Dict[int, float]:
        """The count delta keyed in ascending order — the batch fold order."""
        return {key: self.counts[key] for key in sorted(self.counts)}

    def coefficients(self) -> Dict[int, float]:
        """The coefficient-space delta: sparse Haar transform of the counts.

        Computed over ascending keys, matching how the batch reducers fold a
        global frequency vector, so coefficient values are bit-identical to
        a batch transform of the same counts.
        """
        return sparse_haar_transform(self.sorted_counts(), self.u)

    # -------------------------------------------------------------- properties
    @property
    def is_empty(self) -> bool:
        """Whether the net count delta is zero everywhere."""
        return not self.counts

    @property
    def update_count(self) -> int:
        """Raw updates folded in (insertions plus deletions)."""
        return self.insertions + self.deletions

    def __len__(self) -> int:
        return len(self.counts)
