"""The query-serving front end: a thread-safe server over a synopsis store.

A :class:`QueryServer` is what a client-facing process holds: it owns a
:class:`~repro.serving.store.SynopsisStore`, faults synopses in lazily on
first query (keeping one :class:`~repro.serving.engine.BatchQueryEngine` per
synopsis), and answers batches of range-sum / point / selectivity queries by
name.

Concurrency model:

* **Thread safety** — many threads may query concurrently.  Engines are
  immutable after construction and need no lock; the server's own engine
  table and statistics are lock-guarded.  Repeating the same batch always
  returns bit-identical answers.
* **Bounded engine table** — the server's synopsis/engine table is an LRU
  bounded by ``max_synopses`` (``None`` disables the bound): when a catalog
  holds more synopses than the server should keep materialised, the least
  recently *queried* synopsis is evicted — its engine and payload are
  dropped together, and the next query for that name faults it
  back in from the store (re-resolving the latest version, exactly as a
  fresh first touch would).  Eviction never changes answers, only which
  payloads are resident.  The LRU order is kept per handle, so touching a
  synopsis is one ``move_to_end`` however many synopses are resident.
* **In-process evaluation** — every batch is answered by the synopsis'
  resident engine in the calling thread.  A lookup costs ``O(log k)`` per
  query and ``O(q)`` memory (see :mod:`repro.serving.engine`), so there is
  nothing to gain from shipping shards of a batch to worker processes.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import InvalidParameterError, SynopsisIntegrityError
from repro.serving.engine import BatchQueryEngine, normalize_selectivities
from repro.serving.store import StoredSynopsis, SynopsisStore
from repro.serving.workload import QueryWorkload
from repro.telemetry import get_telemetry

__all__ = ["QueryServer"]

logger = logging.getLogger(__name__)


class QueryServer:
    """Serves range-sum / point / selectivity queries out of a synopsis store.

    Args:
        store: the persistent catalog to serve from.
        max_synopses: LRU bound on concurrently materialised synopses
            (engines + payloads); ``None`` keeps every synopsis ever touched.
    """

    def __init__(
        self,
        store: SynopsisStore,
        *,
        max_synopses: Optional[int] = 64,
    ) -> None:
        if max_synopses is not None and max_synopses < 1:
            raise InvalidParameterError(
                f"max_synopses must be positive or None, got {max_synopses}"
            )
        self.store = store
        self.max_synopses = max_synopses
        self._lock = threading.Lock()
        # Engine table.  A synopsis resolved as "latest" occupies two keys —
        # (name, None) and its pinned (name, version) — pointing at one shared
        # handle.  The LRU is ordered by handle (least recently used first)
        # and maps each handle to its keys, so a touch through either key is
        # one move_to_end and an eviction drops the handle with its aliases.
        self._synopses: Dict[Tuple[str, Optional[int]], StoredSynopsis] = {}
        self._lru: "OrderedDict[StoredSynopsis, List[Tuple[str, Optional[int]]]]" = OrderedDict()
        self._queries_served = 0
        self._batches_served = 0
        self._synopses_evicted = 0
        # name -> {"requested_version": bad, "serving_version": fallback} for
        # synopses currently served from an intact ancestor after an integrity
        # failure; surfaced via stats()["degraded"] and cleared by refresh().
        self._degraded: Dict[str, Dict[str, int]] = {}

    # ----------------------------------------------------------------- lookup
    def synopsis(self, name: str, version: Optional[int] = None) -> StoredSynopsis:
        """The (lazily loaded, cached) stored synopsis for ``name``/``version``."""
        key = (name, version)
        with self._lock:
            handle = self._synopses.get(key)
            if handle is None:
                handle = self.store.load(name, version)
                keys = [key]
                if version is None:
                    # Pin the resolved version too, so explicit and implicit
                    # lookups share one engine.
                    keys.append((name, handle.metadata.version))
                self._insert_locked(handle, keys)
                self._evict_locked(keep=handle)
            else:
                self._lru.move_to_end(handle)
            return handle

    def engine(self, name: str, version: Optional[int] = None) -> BatchQueryEngine:
        """The batch engine serving ``name`` (faults the payload in on first use).

        An integrity failure while materialising the payload does not take the
        name down: the corrupt version is quarantined in the store and the
        server falls back to the newest intact ancestor (flagged ``degraded``
        in :meth:`stats` until a :meth:`refresh`).
        """
        return self._materialize(name, version)[0]

    def _materialize(
        self, name: str, version: Optional[int]
    ) -> Tuple[BatchQueryEngine, StoredSynopsis]:
        """Resolve ``name``/``version`` and build its engine, degrading on
        integrity failure instead of propagating it (tentpole 4, PR 8)."""
        handle = self.synopsis(name, version)
        try:
            return handle.engine(), handle
        except SynopsisIntegrityError as error:
            bad_version = handle.metadata.version
            self.store.quarantine(name, bad_version, reason=str(error))
            # load_intact walks versions <= the requested one newest-first,
            # quarantining further corrupt payloads as it finds them; it
            # raises only when no intact ancestor exists at all.
            fallback = self.store.load_intact(name, version)
            fallback_engine = fallback.engine()
            with self._lock:
                keys = self._lru.pop(handle, [])
                for key in keys:
                    self._synopses[key] = fallback
                self._insert_locked(fallback, keys + [(name, fallback.metadata.version)])
                self._degraded[name] = {
                    "requested_version": int(bad_version),
                    "serving_version": int(fallback.metadata.version),
                }
            get_telemetry().metrics.inc("repro_server_degraded_total")
            logger.warning(
                "serving %r degraded: v%d failed integrity verification (%s); "
                "falling back to intact v%d",
                name, bad_version, error, fallback.metadata.version,
            )
            return fallback_engine, fallback

    def refresh(self) -> None:
        """Forget cached synopses so the next query re-resolves latest versions.

        Also clears the degraded flags: the next touch of a degraded name
        re-walks the store (quarantined versions stay skipped) and re-derives
        its degradation state, so a repaired or newly published version lifts
        the flag while a still-broken one re-sets it.
        """
        with self._lock:
            self._synopses.clear()
            self._lru.clear()
            self._degraded.clear()

    # ---------------------------------------------------------------- queries
    def range_sums(
        self,
        name: str,
        los: Any,
        his: Any,
        *,
        version: Optional[int] = None,
    ) -> np.ndarray:
        """Answer a batch of range-sum queries against one synopsis."""
        results = self.engine(name, version).range_sum_many(los, his)
        self._count(results.size)
        return results

    def estimates(
        self, name: str, keys: Any, *, version: Optional[int] = None
    ) -> np.ndarray:
        """Answer a batch of point-estimate queries against one synopsis."""
        results = self.engine(name, version).estimate_many(keys)
        self._count(results.size)
        return results

    def selectivities(
        self,
        name: str,
        los: Any,
        his: Any,
        *,
        total: Optional[float] = None,
        version: Optional[int] = None,
    ) -> np.ndarray:
        """Range sums normalised by the dataset size (estimated when omitted).

        The synopsis is resolved **once** and its pinned version answers both
        the sums and the denominator.  Resolving twice with ``version=None``
        would let a concurrent ``refresh()`` or publish slip a new version in
        between the two touches — sums from v(N+1) normalised by v(N)'s total.
        """
        engine, handle = self._materialize(name, version)
        pinned = handle.metadata.version
        sums = self.range_sums(name, los, his, version=pinned)
        denominator = engine.estimated_total() if total is None else float(total)
        return normalize_selectivities(sums, denominator)

    def serve_workload(
        self, name: str, workload: QueryWorkload, *, version: Optional[int] = None
    ) -> np.ndarray:
        """Replay a generated workload's range queries against one synopsis."""
        return self.range_sums(name, workload.los, workload.his, version=version)

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, Any]:
        """Serving statistics: query totals and the engine table's occupancy.

        Strictly observation-only: ``synopses_loaded`` counts engines that
        already exist (``peek_engine``), never materialising one — a stats
        scrape must not load payloads or build engines under the server lock.
        """
        with self._lock:
            loaded = sum(
                1 for (_, version), handle in self._synopses.items()
                if version is not None and handle.peek_engine() is not None
            )
            return {
                "queries_served": self._queries_served,
                "batches_served": self._batches_served,
                "synopses_loaded": loaded,
                "synopses_resident": len(self._lru),
                "synopses_evicted": self._synopses_evicted,
                "degraded": {name: dict(info)
                             for name, info in self._degraded.items()},
            }

    # -------------------------------------------------------------- internals
    def _count(self, queries: int) -> None:
        with self._lock:
            self._queries_served += int(queries)
            self._batches_served += 1
        registry = get_telemetry().metrics
        registry.inc("repro_server_queries_total", int(queries))
        registry.inc("repro_server_batches_total")

    def _insert_locked(
        self, handle: StoredSynopsis, keys: List[Tuple[str, Optional[int]]]
    ) -> None:
        """Register a newly loaded handle, most recently used, under its free keys."""
        owned = [key for key in keys if self._synopses.setdefault(key, handle) is handle]
        if owned:
            self._lru[handle] = owned

    def _evict_locked(self, keep: StoredSynopsis) -> None:
        """Drop least-recently-used handles until the table fits the bound."""
        if self.max_synopses is None:
            return
        while len(self._lru) > self.max_synopses:
            victim = next((h for h in self._lru if h is not keep), None)
            if victim is None:
                return
            for key in self._lru.pop(victim):
                del self._synopses[key]
            victim.release()
            self._synopses_evicted += 1
