"""Linear, mergeable partial synopses — the unit of streaming ingest.

The Haar transform is linear: ``transform(a + b) == transform(a) +
transform(b)`` for any two frequency vectors.  A :class:`PartialSynopsis`
exploits that by carrying the **count-space** delta of a batch of updates
(insertions add 1 to a key's count, deletions subtract 1) instead of a
truncated coefficient set:

* count deltas are int64, so :meth:`PartialSynopsis.merge` is *exact* —
  partials from different partitions or epochs fold associatively and
  commutatively with no float-ordering sensitivity, the ``merge()`` idiom of
  linear sketches;
* nothing is truncated, so the merged state still determines the full
  transform — the maintainer can re-select the top-``k`` for every published
  version instead of compounding truncation error;
* the coefficient-space view (:meth:`coefficients`) is computed through the
  same exact integer transform (:func:`~repro.core.haar.exact_haar_arrays`)
  the batch builds use, which is what makes a streamed publish
  *byte-identical* (checksum and all) to a batch build of the same logical
  multiset.

A partial holds two aligned int64 arrays: ascending distinct ``keys`` and
their non-zero ``counts`` — the input the exact transform takes.  Counting a
batch sorts each update array once with ``np.unique(..., return_counts=True)``
(the batch mappers' split-counting idiom), so nothing dense over ``[1, u]`` is
built; merging concatenates two partials' arrays and sums them per key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

import numpy as np

from repro.core.haar import exact_haar_arrays, validate_domain
from repro.errors import InvalidParameterError, KeyOutOfDomainError

__all__ = ["PartialSynopsis", "update_keys"]


def _no_keys() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


def update_keys(keys: Optional[Any]) -> np.ndarray:
    """One update array as 1-D int64 keys (``None`` is no updates)."""
    if keys is None:
        return _no_keys()
    array = np.atleast_1d(np.asarray(keys, dtype=np.int64))
    if array.ndim != 1:
        raise InvalidParameterError("keys must be a 1-D array")
    return array


def _integer_counts(counts: Any) -> np.ndarray:
    """``counts`` as int64, refusing any value that is not an exact integer."""
    array = np.atleast_1d(np.asarray(counts))
    if array.dtype.kind in "iub":
        return array.astype(np.int64, copy=False)
    if array.dtype.kind == "f":
        exact = (np.trunc(array) == array) & (np.abs(array) < 2.0 ** 63)
        if exact.all():
            return array.astype(np.int64)
    raise InvalidParameterError(
        "partial synopsis counts must be integers (the exact transform takes "
        "integer counts)"
    )


def _grouped_sum(keys: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sum ``counts`` per distinct key: ascending distinct keys, int64 sums.

    Input already ascending and distinct (a single ``np.unique`` output, a
    negated partial) passes through unsorted; zero sums are kept.
    """
    if keys.size > 1 and not (keys[1:] > keys[:-1]).all():
        order = np.argsort(keys, kind="stable")
        keys, counts = keys[order], counts[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        keys, counts = keys[starts], np.add.reduceat(counts, starts)
    return keys, counts


@dataclass(eq=False)
class PartialSynopsis:
    """The exact count-space delta of a slice of an update stream.

    Attributes:
        u: domain size (power of two).
        keys: ascending distinct int64 keys in ``[1, u]`` with a non-zero
            net count.  The constructor accepts keys in any order, with
            repeats, and sums their counts.
        counts: int64 net count delta per key — positive for net insertions,
            negative for net deletions.  A count that is not an exact
            integer raises :class:`~repro.errors.InvalidParameterError`.
        insertions: raw insertions folded into this partial.
        deletions: raw deletions folded into this partial.
        batches: update batches folded into this partial.
        partition: optional label of the ingest partition that produced it
            (``None`` after merging partials from different partitions).
    """

    u: int
    keys: np.ndarray = field(default_factory=_no_keys)
    counts: np.ndarray = field(default_factory=_no_keys)
    insertions: int = 0
    deletions: int = 0
    batches: int = 0
    partition: Optional[str] = None

    def __post_init__(self) -> None:
        validate_domain(self.u)
        keys = update_keys(self.keys)
        counts = _integer_counts(self.counts)
        if keys.shape != counts.shape:
            raise InvalidParameterError(
                f"partial synopsis has {keys.size} keys but {counts.size} counts"
            )
        keys, counts = _grouped_sum(keys, counts)
        # Keys are sorted now, so the ends bound them all; checked before
        # zero sums drop, so an out-of-domain key cannot cancel itself away.
        if keys.size and (keys[0] < 1 or keys[-1] > self.u):
            bad = keys[0] if keys[0] < 1 else keys[-1]
            raise KeyOutOfDomainError(f"key {int(bad)} outside domain [1, {self.u}]")
        live = counts != 0
        if not live.all():
            keys, counts = keys[live], counts[live]
        self.keys, self.counts = keys, counts

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
        """Count one batch of key updates.

        ``np.unique(..., return_counts=True)`` turns each update array into
        sorted distinct keys and their counts (the batch mappers'
        split-counting idiom); the net delta is insertions minus deletions,
        summed per key.
        """
        insert_keys, delete_keys = update_keys(inserts), update_keys(deletes)
        inserted, insert_counts = np.unique(insert_keys, return_counts=True)
        deleted, delete_counts = np.unique(delete_keys, return_counts=True)
        return cls(
            u=u,
            keys=np.concatenate([inserted, deleted]),
            counts=np.concatenate([insert_counts, -delete_counts]),
            insertions=int(insert_keys.size),
            deletions=int(delete_keys.size),
            batches=1,
            partition=partition,
        )

    # ----------------------------------------------------------------- algebra
    def merge(self, other: "PartialSynopsis") -> "PartialSynopsis":
        """The exact sum of two partials (linear merge; associative, commutative).

        Count deltas are int64, so the sum carries no float-ordering
        sensitivity: any merge tree over any partitioning of the stream
        produces the identical partial.
        """
        if self.u != other.u:
            raise InvalidParameterError(
                f"cannot merge partial synopses over different domains "
                f"({self.u} vs {other.u})"
            )
        return PartialSynopsis(
            u=self.u,
            keys=np.concatenate([self.keys, other.keys]),
            counts=np.concatenate([self.counts, other.counts]),
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
            keys=self.keys,
            counts=-self.counts,
            insertions=-self.insertions,
            deletions=-self.deletions,
            batches=-self.batches,
            partition=self.partition,
        )

    # ------------------------------------------------------------------- views
    def coefficients(self) -> Tuple[np.ndarray, np.ndarray]:
        """The coefficient-space delta: ``(indices, values)`` of the sparse
        Haar transform of the counts.

        Computed by the exact integer transform the batch builds use, so
        coefficient values are bit-identical to a batch transform of the
        same counts.
        """
        return exact_haar_arrays(self.keys, self.counts, self.u)

    # -------------------------------------------------------------- properties
    @property
    def is_empty(self) -> bool:
        """Whether the net count delta is zero everywhere."""
        return self.keys.size == 0

    @property
    def update_count(self) -> int:
        """Raw updates folded in (insertions plus deletions)."""
        return self.insertions + self.deletions

    def __len__(self) -> int:
        return int(self.keys.size)
