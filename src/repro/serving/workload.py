"""Reproducible query workloads for the serving layer.

The repo's experiment harness measures *build* cost (communication, time,
SSE); this module opens the *query* dimension: it generates the range-sum
workloads the serving benchmarks and the ``serve-bench`` CLI replay against a
synopsis.  Three canonical mixes are provided, mirroring how selectivity
estimation is exercised in practice:

``uniform``
    Independent uniformly random ``(lo, hi)`` pairs, touching the whole
    domain evenly.

``zipfian``
    Queries centred on zipf-distributed hot keys with small dyadic widths —
    the "popular key" regime of web/OLTP traffic, where a small hot set of
    ranges repeats.

``range_skewed``
    Wide, heavy-tailed (Pareto) range widths with starting points biased
    toward the low end of the domain — analytic scans such as
    ``price BETWEEN 0 AND x``.

``mixed``
    Equal thirds of the above, deterministically shuffled.

Every generated workload is a pure function of ``(domain, seed, mix, count)``,
so two processes — or a benchmark re-run months later — replay byte-identical
query streams.

The module also generates *update* streams for the streaming ingest path:
:class:`UpdateStreamGenerator` produces sequenced :class:`UpdateBatch`
insert/delete batches with the same purity guarantee (a function of
``(u, seed, delete_fraction, batch_size, num_batches)``), with deletions
drawn only from currently live records so every prefix of the stream
describes a realisable multiset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.haar import validate_domain
from repro.errors import InvalidParameterError

__all__ = [
    "MIX_NAMES",
    "QueryWorkload",
    "UpdateBatch",
    "UpdateStreamGenerator",
    "WorkloadGenerator",
]

MIX_NAMES: Tuple[str, ...] = ("uniform", "zipfian", "range_skewed", "mixed")


@dataclass(frozen=True, eq=False)
class QueryWorkload:
    """A batch of range queries: parallel ``(lo, hi)`` arrays plus provenance."""

    los: np.ndarray
    his: np.ndarray
    mix: str
    seed: int

    def __post_init__(self) -> None:
        if self.los.shape != self.his.shape or self.los.ndim != 1:
            raise InvalidParameterError("workload bounds must be equal-length 1-D arrays")

    def __len__(self) -> int:
        return int(self.los.size)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return ((int(lo), int(hi)) for lo, hi in zip(self.los, self.his))

    def __eq__(self, other: object) -> bool:
        # The generated dataclass __eq__ would raise on ndarray fields; two
        # workloads are equal when they replay the same query stream.
        if not isinstance(other, QueryWorkload):
            return NotImplemented
        return (
            self.mix == other.mix
            and self.seed == other.seed
            and np.array_equal(self.los, other.los)
            and np.array_equal(self.his, other.his)
        )


@dataclass(frozen=True, eq=False)
class UpdateBatch:
    """One sequenced batch of a key-update stream: insertions and deletions."""

    sequence: int
    inserts: np.ndarray
    deletes: np.ndarray

    def __post_init__(self) -> None:
        if self.sequence < 1:
            raise InvalidParameterError(
                f"batch sequence must be positive, got {self.sequence}"
            )
        if self.inserts.ndim != 1 or self.deletes.ndim != 1:
            raise InvalidParameterError("update keys must be 1-D arrays")

    def __len__(self) -> int:
        return int(self.inserts.size + self.deletes.size)

    def __eq__(self, other: object) -> bool:
        # As with QueryWorkload: equality means "replays the same updates".
        if not isinstance(other, UpdateBatch):
            return NotImplemented
        return (
            self.sequence == other.sequence
            and np.array_equal(self.inserts, other.inserts)
            and np.array_equal(self.deletes, other.deletes)
        )


class UpdateStreamGenerator:
    """Generates deterministic insert/delete streams over a domain ``[1, u]``.

    Insertions are zipf-skewed keys (decorrelated from rank by the same
    seed-derived odd-multiplier bijection the query generator uses);
    deletions are drawn uniformly without replacement from the records
    currently live, so any prefix of the stream nets out to a realisable
    (non-negative) multiset — the shape the equivalence suite compares
    against a batch build.

    Args:
        u: domain size (power of two, matching the synopsis being fed).
        seed: base seed; each ``(batch_size, num_batches)`` pair derives its
            own RNG stream, so generation is reproducible independent of
            call order.
        alpha: zipf skew of the inserted-key distribution.
        delete_fraction: fraction of each batch that is deletions (rounded;
            capped by the number of live records at that point).
    """

    def __init__(
        self,
        u: int,
        seed: int = 7,
        alpha: float = 1.1,
        delete_fraction: float = 0.0,
    ) -> None:
        validate_domain(u)
        if alpha <= 0:
            raise InvalidParameterError(f"alpha must be positive, got {alpha}")
        if not 0.0 <= delete_fraction < 1.0:
            raise InvalidParameterError(
                f"delete_fraction must be in [0, 1), got {delete_fraction}"
            )
        self.u = u
        self.seed = seed
        self.alpha = alpha
        self.delete_fraction = delete_fraction

    def batches(self, batch_size: int, num_batches: int) -> List[UpdateBatch]:
        """Generate ``num_batches`` sequenced batches of ``batch_size`` updates."""
        if batch_size < 1:
            raise InvalidParameterError(f"batch_size must be positive, got {batch_size}")
        if num_batches < 1:
            raise InvalidParameterError(f"num_batches must be positive, got {num_batches}")
        rng = np.random.default_rng((self.seed, batch_size, num_batches, self.u))
        multiplier = 2 * int(rng.integers(0, max(self.u // 2, 1))) + 1
        live = np.zeros(self.u + 1, dtype=np.int64)
        batches: List[UpdateBatch] = []
        for index in range(num_batches):
            num_deletes = int(round(batch_size * self.delete_fraction))
            num_inserts = batch_size - num_deletes
            ranks = np.minimum(
                rng.zipf(1.0 + self.alpha, size=num_inserts), self.u
            ).astype(np.int64)
            inserts = ((ranks - 1) * multiplier) % self.u + 1
            np.add.at(live, inserts, 1)
            if num_deletes:
                keys = np.flatnonzero(live)
                population = np.repeat(keys, live[keys])
                deletes = np.sort(rng.choice(
                    population, size=min(num_deletes, population.size),
                    replace=False,
                )).astype(np.int64)
                np.subtract.at(live, deletes, 1)
            else:
                deletes = np.zeros(0, dtype=np.int64)
            batches.append(UpdateBatch(
                sequence=index + 1, inserts=inserts, deletes=deletes
            ))
        return batches

    def net_keys(self, batches: Sequence[UpdateBatch]) -> np.ndarray:
        """The surviving key multiset of a batch list, as a sorted key array.

        This is what a from-scratch batch build of "the same logical dataset"
        ingests — the equivalence suite feeds it to the batch pipeline and
        compares checksums with the streamed synopsis.
        """
        live = np.zeros(self.u + 1, dtype=np.int64)
        for batch in batches:
            np.add.at(live, batch.inserts, 1)
            np.subtract.at(live, batch.deletes, 1)
        if live.min() < 0:
            raise InvalidParameterError(
                "update stream deletes records that were never inserted"
            )
        keys = np.flatnonzero(live)
        return np.repeat(keys, live[keys])


class WorkloadGenerator:
    """Generates deterministic query workloads over a domain ``[1, u]``.

    Args:
        u: domain size (power of two, matching the synopsis being queried).
        seed: base seed; each ``(mix, count)`` pair derives its own RNG stream
            from it, so workloads are reproducible independent of call order.
        alpha: zipf skew of the ``zipfian`` mix's hot-key distribution.
    """

    def __init__(self, u: int, seed: int = 7, alpha: float = 1.1) -> None:
        validate_domain(u)
        if alpha <= 0:
            raise InvalidParameterError(f"alpha must be positive, got {alpha}")
        self.u = u
        self.seed = seed
        self.alpha = alpha

    # ------------------------------------------------------------------ mixes
    def generate(self, count: int, mix: str = "mixed") -> QueryWorkload:
        """Generate ``count`` queries of the given mix."""
        if count < 1:
            raise InvalidParameterError(f"count must be positive, got {count}")
        if mix not in MIX_NAMES:
            raise InvalidParameterError(f"mix must be one of {MIX_NAMES}, got {mix!r}")
        rng = self._rng(mix, count)
        if mix == "uniform":
            los, his = self._uniform(rng, count)
        elif mix == "zipfian":
            los, his = self._zipfian(rng, count)
        elif mix == "range_skewed":
            los, his = self._range_skewed(rng, count)
        else:
            los, his = self._mixed(rng, count)
        return QueryWorkload(los=los, his=his, mix=mix, seed=self.seed)

    # -------------------------------------------------------------- internals
    def _rng(self, mix: str, count: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, MIX_NAMES.index(mix), count, self.u))

    def _uniform(self, rng: np.random.Generator, count: int) -> Tuple[np.ndarray, np.ndarray]:
        a = rng.integers(1, self.u + 1, size=count, dtype=np.int64)
        b = rng.integers(1, self.u + 1, size=count, dtype=np.int64)
        return np.minimum(a, b), np.maximum(a, b)

    def _zipfian(self, rng: np.random.Generator, count: int) -> Tuple[np.ndarray, np.ndarray]:
        # Hot centres: zipf ranks folded into the domain so the hottest keys
        # repeat often.
        # A seed-derived odd multiplier mod u (a bijection, since u is a power
        # of two) decouples rank from key in O(count) — materialising a full
        # permutation of the domain would make generation O(u).
        ranks = np.minimum(rng.zipf(1.0 + self.alpha, size=count), self.u).astype(np.int64)
        multiplier = 2 * int(rng.integers(0, max(self.u // 2, 1))) + 1
        centres = ((ranks - 1) * multiplier) % self.u + 1
        half_widths = np.minimum(
            rng.geometric(0.25, size=count), self.u // 2 or 1
        ).astype(np.int64)
        los = np.maximum(1, centres - half_widths)
        his = np.minimum(self.u, centres + half_widths)
        return los, his

    def _range_skewed(self, rng: np.random.Generator, count: int) -> Tuple[np.ndarray, np.ndarray]:
        # Heavy-tailed widths (Pareto) and low-biased starting points: most
        # scans are narrow but a fat tail sweeps large fractions of the domain.
        widths = np.minimum(
            (1.0 + rng.pareto(1.5, size=count)) * max(1, self.u // 64), float(self.u)
        ).astype(np.int64)
        widths = np.maximum(widths, 1)
        span = np.maximum(self.u - widths + 1, 1)
        los = 1 + (span * rng.random(size=count) ** 2.0).astype(np.int64)
        los = np.minimum(los, span)
        return los, los + widths - 1

    def _mixed(self, rng: np.random.Generator, count: int) -> Tuple[np.ndarray, np.ndarray]:
        thirds = [count // 3, count // 3, count - 2 * (count // 3)]
        parts = []
        for size, mix in zip(thirds, ("uniform", "zipfian", "range_skewed")):
            if size > 0:
                workload = self.generate(size, mix)
                parts.append((workload.los, workload.his))
        los = np.concatenate([part[0] for part in parts])
        his = np.concatenate([part[1] for part in parts])
        order = rng.permutation(los.size)
        return los[order], his[order]
