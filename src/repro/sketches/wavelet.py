"""Sketching the wavelet-coefficient vector of a frequency vector.

Gilbert et al. [20] and Cormode et al. [13] observe that because the Haar
transform is linear, a sketch of the *wavelet-domain* vector can be maintained
under point updates to the *signal*: adding ``c`` occurrences of key ``x``
adds ``c * psi_i(x)`` to every coefficient ``i`` on the key's leaf-to-root
path (``log2(u) + 1`` coefficients).  :class:`WaveletGcsSketch` packages that
translation on top of :class:`~repro.sketches.gcs.HierarchicalGcs` and is the
data structure the Send-Sketch mappers build and ship.  Shipping one moves only
its counter tables: the hash tables of every level are shared per process (see
:mod:`repro.sketches.gcs`) and re-attached when a shipped sketch is loaded.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.core.haar import (
    basis_value,
    coefficients_for_key,
    exact_haar_arrays,
    integer_count_arrays,
    validate_domain,
)
from repro.core.topk_coefficients import top_k_coefficients
from repro.errors import SketchError
from repro.sketches.gcs import HierarchicalGcs

__all__ = ["WaveletGcsSketch"]


class WaveletGcsSketch:
    """A GCS hierarchy over the wavelet coefficients of a signal on ``[1, u]``.

    Args:
        u: key domain size (power of two).
        bytes_per_level: sketch space per level, following the paper's
            ``20 kB * log2(u)`` total budget (so per level ≈ 20 kB).
        branching: group-testing fan-out (the paper's best variant is GCS-8).
        depth: number of hash rows.
        seed: shared seed; sketches from different splits must use the same
            seed to be mergeable.
    """

    def __init__(
        self,
        u: int,
        bytes_per_level: int = 20 * 1024,
        branching: int = 8,
        depth: int = 3,
        seed: int = 131,
    ) -> None:
        validate_domain(u)
        self.u = u
        self.seed = seed
        self._gcs = HierarchicalGcs.from_space_budget(
            universe=u,
            bytes_per_level=bytes_per_level,
            branching=branching,
            depth=depth,
            seed=seed,
        )
        self.key_updates = 0

    @property
    def gcs(self) -> HierarchicalGcs:
        """The underlying hierarchical GCS (coefficient items are 0-based indices)."""
        return self._gcs

    # ----------------------------------------------------------------- update
    def update_key(self, key: int, count: float = 1.0) -> None:
        """Add ``count`` occurrences of ``key`` to the sketched signal."""
        if count == 0:
            return
        indices = coefficients_for_key(key, self.u)
        items = np.array([index - 1 for index in indices], dtype=np.int64)
        deltas = np.array(
            [count * basis_value(index, key, self.u) for index in indices],
            dtype=float,
        )
        self._gcs.update_batch(items, deltas)
        self.key_updates += 1

    def update_frequency_vector(self, counts: Mapping[int, float]) -> None:
        """Add a whole (sparse) local frequency vector of integer counts.

        This is the paper's Send-Sketch mapper optimisation: build the local
        frequency vector first, then insert each *distinct* key once with its
        aggregate count.  See :meth:`update_counts`.
        """
        self.update_counts(*integer_count_arrays(counts))

    def update_counts(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Add the exact transform of sorted distinct keys' integer counts."""
        indices, values = exact_haar_arrays(keys, counts, self.u)
        if indices.size == 0:
            return
        self._gcs.update_batch(indices - 1, values)
        self.key_updates += len(keys)

    # --------------------------------------------------------------- queries
    def estimate_coefficient(self, index: int) -> float:
        """Signed estimate of wavelet coefficient ``w_index`` (1-based index)."""
        if not 1 <= index <= self.u:
            raise SketchError(f"coefficient index {index} outside [1, {self.u}]")
        return self._gcs.estimate_item(index - 1)

    def top_k(self, k: int, beam_width: Optional[int] = None) -> Dict[int, float]:
        """Approximate top-``k`` coefficients by magnitude via group-testing search."""
        items = self._gcs.search_top_k(k, beam_width=beam_width)
        return top_k_coefficients({item + 1: value for item, value in items.items()}, k)

    # ------------------------------------------------------------------ merge
    def is_compatible(self, other: "WaveletGcsSketch") -> bool:
        """Mergeability check (same domain, same hash seeds, same shape)."""
        return self.u == other.u and self._gcs.is_compatible(other._gcs)

    def merge_in_place(self, other: "WaveletGcsSketch") -> None:
        """Entry-wise merge of another split's sketch (linearity of the GCS)."""
        if not self.is_compatible(other):
            raise SketchError("cannot merge incompatible wavelet sketches")
        self._gcs.merge_in_place(other._gcs)
        self.key_updates += other.key_updates

    # ------------------------------------------------------------------ sizes
    def nonzero_entries(self) -> int:
        """Non-zero cells across all levels."""
        return self._gcs.nonzero_entries()

    def serialized_size_bytes(self) -> int:
        """Bytes needed to ship the sketch's non-zero cells to the reducer."""
        return self._gcs.serialized_size_bytes()

    @property
    def total_cells(self) -> int:
        """Total allocated counters."""
        return self._gcs.total_cells
