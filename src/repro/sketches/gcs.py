"""The Group-Count Sketch (GCS) of Cormode, Garofalakis and Sacharidis [13].

The GCS answers *group energy* queries over a signed vector: items are
partitioned into groups, groups are hashed into buckets, items are hashed into
sub-buckets within their group's bucket, and each cell accumulates
``sign(item) * delta``.  The energy (squared L2 norm) of a group is estimated
as the median over rows of the sum of squared cells in the group's bucket.

To find the large wavelet coefficients, one maintains a GCS per level of a
``branching``-ary tree over the coefficient index space (``GCS-8`` in the
paper uses branching factor 8) and performs a top-down group-testing search:
only groups whose estimated energy is large are expanded.  The
:class:`HierarchicalGcs` implements this search with a configurable beam
width, plus signed point estimates from the finest level.

All sketches built with the same ``(seed, shape)`` are *linear*: the sketch of
the union of two datasets is the entry-wise sum of their sketches, which is
what the Send-Sketch reducer exploits.

A sketch is two parts.  Its **hash family** (the per-group bucket and the
per-item sub-bucket and sign of every row, :class:`GcsHashFamily`) is a pure
function of ``(universe, shift, depth, group_buckets, item_buckets, seed)``
and dwarfs the counters (``depth * universe`` entries against
``depth * group_buckets * item_buckets``), so it is built once per process,
held read-only in a small bounded cache (:func:`gcs_hash_family`) and shared
by every sketch of that shape.  Its **counter table** is the sketch's own
mutable state, and it is all a sketch pickles: a sketch shipped to a worker
or back re-attaches its family on load instead of carrying it.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SketchError
from repro.sketches.hashing import FourWiseHash, PairwiseHash

__all__ = ["GcsHashFamily", "GroupCountSketch", "HierarchicalGcs", "gcs_hash_family"]

# Families kept per process.  A hierarchy has one family per level, and the
# cache must hold every level of one hierarchy at once or each new sketch would
# evict the levels the next one needs: 32 covers any universe up to 2^32 at
# branching 2.  Families of an evicted shape are rebuilt on their next use.
HASH_FAMILY_CACHE_SIZE = 32

# The sketch attributes that alias its hash family (never pickled).
_HASH_ATTRIBUTES = ("_group_bucket", "_item_bucket", "_item_sign")


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


class GcsHashFamily(NamedTuple):
    """The seeded hash tables of one GCS shape, read-only and shared.

    Attributes:
        group_bucket: ``(depth, num_groups)`` bucket of every group, per row.
        item_bucket: ``(depth, universe)`` sub-bucket of every item, per row.
        item_sign: ``(depth, universe)`` ±1 sign of every item, per row (int8).
    """

    group_bucket: np.ndarray
    item_bucket: np.ndarray
    item_sign: np.ndarray


@functools.lru_cache(maxsize=HASH_FAMILY_CACHE_SIZE)
def gcs_hash_family(universe: int, shift: int, depth: int, group_buckets: int,
                    item_buckets: int, seed: int) -> GcsHashFamily:
    """The hash family of a GCS shape, built on first use and cached per process.

    Each row draws a pairwise group hash, a pairwise item hash and a four-wise
    sign hash from ``default_rng(seed)``, in that order, and tabulates them
    over every group and item so that batch updates are pure numpy indexing.
    The arrays are read-only because every sketch of the shape shares them.
    """
    num_groups = (universe + (1 << shift) - 1) >> shift
    rng = np.random.default_rng(seed)
    items = np.arange(universe, dtype=np.int64)
    groups = np.arange(num_groups, dtype=np.int64)
    family = GcsHashFamily(
        group_bucket=np.empty((depth, num_groups), dtype=np.int64),
        item_bucket=np.empty((depth, universe), dtype=np.int64),
        item_sign=np.empty((depth, universe), dtype=np.int8),
    )
    for row in range(depth):
        group_hash = PairwiseHash(rng=rng)
        item_hash = PairwiseHash(rng=rng)
        sign_hash = FourWiseHash(rng=rng)
        family.group_bucket[row] = group_hash.bucket_array(groups, group_buckets)
        family.item_bucket[row] = item_hash.bucket_array(items, item_buckets)
        family.item_sign[row] = sign_hash.sign_array(items)
    for table in family:
        table.flags.writeable = False
    return family


class GroupCountSketch:
    """A single-level GCS over items ``0 .. universe-1`` grouped by ``item >> shift``.

    The sketch owns only its ``(depth, group_buckets, item_buckets)`` counter
    table; its hash tables are the shape's shared :func:`gcs_hash_family`.

    Attributes:
        universe: number of distinct items.
        shift: right-shift mapping an item to its group id.
        depth: number of independent hash rows.
        group_buckets: number of buckets groups are hashed into.
        item_buckets: number of sub-buckets items are hashed into inside a bucket.
    """

    def __init__(
        self,
        universe: int,
        shift: int,
        depth: int = 3,
        group_buckets: int = 64,
        item_buckets: int = 8,
        seed: int = 131,
    ) -> None:
        if universe < 1:
            raise SketchError("universe must be positive")
        if shift < 0:
            raise SketchError("shift must be non-negative")
        if depth < 1 or group_buckets < 1 or item_buckets < 1:
            raise SketchError("depth, group_buckets and item_buckets must be positive")
        self.universe = universe
        self.shift = shift
        self.depth = depth
        self.group_buckets = group_buckets
        self.item_buckets = item_buckets
        self.seed = seed
        self.num_groups = (universe + (1 << shift) - 1) >> shift
        self._table = np.zeros((depth, group_buckets, item_buckets), dtype=float)
        self.update_ops = 0
        self._attach_hashes()

    def _attach_hashes(self) -> None:
        self._group_bucket, self._item_bucket, self._item_sign = gcs_hash_family(
            self.universe, self.shift, self.depth, self.group_buckets,
            self.item_buckets, self.seed,
        )

    # --------------------------------------------------------------- pickling
    def __getstate__(self) -> Dict[str, object]:
        """Pickle the parameters and counters; the hash family stays behind."""
        return {name: value for name, value in self.__dict__.items()
                if name not in _HASH_ATTRIBUTES}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._attach_hashes()

    # ----------------------------------------------------------------- update
    def update(self, item: int, delta: float) -> None:
        """Add ``delta`` to a single item."""
        self.update_batch(np.array([item], dtype=np.int64), np.array([delta], dtype=float))

    def update_batch(self, items: np.ndarray, deltas: np.ndarray) -> None:
        """Add ``deltas[i]`` to ``items[i]`` for all ``i`` (vectorised)."""
        items = np.asarray(items, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=float)
        if items.shape != deltas.shape:
            raise SketchError("items and deltas must have the same shape")
        if items.size == 0:
            return
        if items.min() < 0 or items.max() >= self.universe:
            raise SketchError("item outside the sketch universe")
        groups = items >> self.shift
        for row in range(self.depth):
            buckets = self._group_bucket[row, groups]
            subbuckets = self._item_bucket[row, items]
            signed = deltas * self._item_sign[row, items]
            np.add.at(self._table[row], (buckets, subbuckets), signed)
        self.update_ops += int(items.size) * self.depth

    # --------------------------------------------------------------- queries
    def group_energy(self, group: int) -> float:
        """Estimate the energy (sum of squares) of all items in ``group``."""
        if group < 0 or group >= self.num_groups:
            raise SketchError(f"group {group} outside [0, {self.num_groups})")
        energies = np.empty(self.depth, dtype=float)
        for row in range(self.depth):
            bucket = self._group_bucket[row, group]
            energies[row] = float(np.sum(self._table[row, bucket, :] ** 2))
        return float(np.median(energies))

    def group_energies(self, groups: np.ndarray) -> np.ndarray:
        """:meth:`group_energy` of every group in ``groups``, with one gather."""
        rows = np.arange(self.depth)[:, np.newaxis]
        cells = self._table[rows, self._group_bucket[:, groups], :]
        return np.median(np.sum(cells ** 2, axis=2), axis=0)

    def estimate_item(self, item: int) -> float:
        """Signed estimate of a single item's value (only meaningful when ``shift == 0``)."""
        if item < 0 or item >= self.universe:
            raise SketchError(f"item {item} outside [0, {self.universe})")
        group = item >> self.shift
        estimates = np.empty(self.depth, dtype=float)
        for row in range(self.depth):
            bucket = self._group_bucket[row, group]
            sub = self._item_bucket[row, item]
            estimates[row] = self._item_sign[row, item] * self._table[row, bucket, sub]
        return float(np.median(estimates))

    # ------------------------------------------------------------------ merge
    def is_compatible(self, other: "GroupCountSketch") -> bool:
        """Sketches merge correctly iff they share shape, shift and seed."""
        return (
            self.universe == other.universe
            and self.shift == other.shift
            and self.depth == other.depth
            and self.group_buckets == other.group_buckets
            and self.item_buckets == other.item_buckets
            and self.seed == other.seed
        )

    def merge_in_place(self, other: "GroupCountSketch") -> None:
        """Add another sketch's counters into this one."""
        if not self.is_compatible(other):
            raise SketchError("cannot merge incompatible GCS sketches")
        if not self._table.flags.writeable:
            # A sketch shipped out-of-band rebuilds its table as a read-only
            # view over shared pages; the accumulator must own its buffer.
            self._table = self._table.copy()
        self._table += other._table
        self.update_ops += other.update_ops

    # ------------------------------------------------------------------ sizes
    def nonzero_entries(self) -> int:
        """Number of non-zero cells (mappers only ship these)."""
        return int(np.count_nonzero(self._table))

    def serialized_size_bytes(self) -> int:
        """Bytes to ship the non-zero cells (4-byte index + 8-byte value each)."""
        return self.nonzero_entries() * 12

    @property
    def total_cells(self) -> int:
        """Total number of counters."""
        return self.depth * self.group_buckets * self.item_buckets


def _strongest(groups: np.ndarray, energies: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` groups first in descending ``(energy, group)`` order."""
    return groups[np.lexsort((groups, energies))[::-1][:count]]


class HierarchicalGcs:
    """A stack of GCS levels supporting top-down search for large items.

    Level ``0`` is the finest (each group is a single item); level ``i`` groups
    ``branching**i`` consecutive items.  The coarsest level has at most
    ``branching`` groups so the search can start by enumerating it.
    """

    def __init__(
        self,
        universe: int,
        branching: int = 8,
        depth: int = 3,
        group_buckets: int = 64,
        item_buckets: int = 8,
        seed: int = 131,
    ) -> None:
        if not _is_power_of_two(universe):
            raise SketchError(f"universe must be a power of two, got {universe}")
        if not _is_power_of_two(branching) or branching < 2:
            raise SketchError(f"branching must be a power of two >= 2, got {branching}")
        self.universe = universe
        self.branching = branching
        self.depth = depth
        self.group_buckets = group_buckets
        self.item_buckets = item_buckets
        self.seed = seed

        bits_per_level = int(math.log2(branching))
        total_bits = int(math.log2(universe))
        shifts = list(range(0, total_bits + 1, bits_per_level))
        if shifts[-1] != total_bits:
            shifts.append(total_bits)
        # Drop the level whose single group is the whole universe unless the
        # universe is so small that it is the only level.
        self._levels: List[GroupCountSketch] = []
        for level_index, shift in enumerate(shifts):
            num_groups = universe >> shift
            if num_groups < 1:
                num_groups = 1
            if num_groups == 1 and len(shifts) > 1:
                continue
            self._levels.append(
                GroupCountSketch(
                    universe=universe,
                    shift=shift,
                    depth=depth,
                    group_buckets=group_buckets,
                    item_buckets=item_buckets,
                    seed=seed + 7919 * level_index,
                )
            )
        self.update_ops = 0

    @property
    def num_levels(self) -> int:
        """Number of sketched levels."""
        return len(self._levels)

    @property
    def levels(self) -> Sequence[GroupCountSketch]:
        """The per-level sketches, finest first."""
        return tuple(self._levels)

    @classmethod
    def from_space_budget(
        cls,
        universe: int,
        bytes_per_level: int = 20 * 1024,
        branching: int = 8,
        depth: int = 3,
        item_buckets: int = 8,
        seed: int = 131,
    ) -> "HierarchicalGcs":
        """Build a hierarchy sized like the paper's ``20 kB * log2(u)`` recommendation.

        Each level gets ``bytes_per_level`` of counters (8 bytes each), split
        across ``depth`` rows and ``item_buckets`` sub-buckets.
        """
        cells_per_level = max(bytes_per_level // 8, depth * item_buckets)
        group_buckets = max(1, cells_per_level // (depth * item_buckets))
        return cls(
            universe=universe,
            branching=branching,
            depth=depth,
            group_buckets=group_buckets,
            item_buckets=item_buckets,
            seed=seed,
        )

    # ----------------------------------------------------------------- update
    def update(self, item: int, delta: float) -> None:
        """Add ``delta`` to one item across all levels."""
        self.update_batch(np.array([item], dtype=np.int64), np.array([delta], dtype=float))

    def update_batch(self, items: np.ndarray, deltas: np.ndarray) -> None:
        """Vectorised update of all levels."""
        items = np.asarray(items, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=float)
        for level in self._levels:
            level.update_batch(items, deltas)
        self.update_ops += int(items.size) * len(self._levels) * self.depth

    # ------------------------------------------------------------------ merge
    def is_compatible(self, other: "HierarchicalGcs") -> bool:
        """Hierarchies merge iff every level pair is compatible."""
        if self.num_levels != other.num_levels:
            return False
        return all(a.is_compatible(b) for a, b in zip(self._levels, other._levels))

    def merge_in_place(self, other: "HierarchicalGcs") -> None:
        """Entry-wise addition of another hierarchy built with the same parameters."""
        if not self.is_compatible(other):
            raise SketchError("cannot merge incompatible GCS hierarchies")
        for mine, theirs in zip(self._levels, other._levels):
            mine.merge_in_place(theirs)
        self.update_ops += other.update_ops

    # ----------------------------------------------------------------- search
    def estimate_item(self, item: int) -> float:
        """Signed estimate of one item's value from the finest level."""
        return self._levels[0].estimate_item(item)

    def noise_floor(self) -> float:
        """Estimated standard deviation of a single point estimate.

        A point estimate's error is driven by the other items hashed into the
        same cell; its standard deviation is on the order of
        ``sqrt(total energy / number of cells per row)`` at the finest level.
        """
        finest = self._levels[0]
        row_energies = np.sum(finest._table ** 2, axis=(1, 2))
        total_energy = float(np.median(row_energies))
        cells_per_row = finest.group_buckets * finest.item_buckets
        return math.sqrt(max(total_energy, 0.0) / max(cells_per_row, 1))

    def search_top_k(self, k: int, beam_width: Optional[int] = None,
                     significance: float = 2.0) -> Dict[int, float]:
        """Group-testing search for the ``k`` items of (approximately) largest magnitude.

        Starting from the coarsest level, the candidate groups with the largest
        estimated energies are expanded level by level; at the finest level the
        surviving items are point-estimated and the top ``k`` by magnitude are
        returned.

        Args:
            k: number of items to return.
            beam_width: maximum number of groups kept per level; defaults to
                ``max(4 * k, 32)``.
            significance: drop items whose estimated magnitude is below
                ``significance * noise_floor()`` — returning a spurious
                coefficient hurts the reconstruction more than returning
                nothing, so the search only reports items it can distinguish
                from sketch noise (0 disables the filter).  Fewer than ``k``
                items may therefore be returned.
        """
        if k < 1:
            raise SketchError(f"k must be positive, got {k}")
        beam = beam_width if beam_width is not None else max(4 * k, 32)

        coarsest = self._levels[-1]
        candidates = np.arange(coarsest.num_groups, dtype=np.int64)
        # Walk from the coarsest level towards the finest, expanding children.
        for level_index in range(len(self._levels) - 1, 0, -1):
            level = self._levels[level_index]
            survivors = _strongest(candidates, level.group_energies(candidates), beam)
            finer = self._levels[level_index - 1]
            ratio = (1 << level.shift) >> finer.shift
            children = (survivors[:, np.newaxis] * ratio + np.arange(ratio)).ravel()
            candidates = children[children < finer.num_groups]

        finest = self._levels[0]
        top_candidates = _strongest(candidates, finest.group_energies(candidates),
                                    max(beam, k))
        estimates = {item: finest.estimate_item(item) for item in top_candidates.tolist()}
        if significance > 0:
            threshold = significance * self.noise_floor()
            estimates = {item: value for item, value in estimates.items()
                         if abs(value) >= threshold}
        ranked: List[Tuple[int, float]] = sorted(
            estimates.items(), key=lambda pair: (abs(pair[1]), -pair[0]), reverse=True
        )
        return {item: value for item, value in ranked[:k] if value != 0.0}

    # ------------------------------------------------------------------ sizes
    def nonzero_entries(self) -> int:
        """Total non-zero cells across levels."""
        return sum(level.nonzero_entries() for level in self._levels)

    def serialized_size_bytes(self) -> int:
        """Bytes to ship all non-zero cells."""
        return sum(level.serialized_size_bytes() for level in self._levels)

    @property
    def total_cells(self) -> int:
        """Total counters across levels."""
        return sum(level.total_cells for level in self._levels)
