"""User-facing Mapper/Reducer interfaces and their task contexts.

Algorithm code subclasses :class:`Mapper` and :class:`Reducer` exactly as it
would in Hadoop: ``setup`` runs once at task start, ``map``/``reduce`` run per
record / per key group, and ``close`` runs once at task end (the paper's exact
and sampling mappers do all their emitting from ``close``).

Contexts expose the pieces of Hadoop the paper relies on:

* ``emit`` — produce an intermediate or final key/value pair, with byte
  accounting;
* ``configuration`` and ``distributed_cache`` — the side channels;
* ``save_state`` / ``load_state`` — per-split persistent state across rounds
  (immutable payloads whose arrays are frozen; see :mod:`repro.mapreduce.state`);
* ``counters`` — CPU-work accounting for the cost model;
* ``rng`` — a deterministic per-task random generator.

The batch data plane adds two pieces on top of the Hadoop-shaped surface:
:class:`BatchMapper` (a mapper that can consume a whole split's keys as one
int64 numpy array) and :meth:`MapperContext.emit_block` (emit a uniform
key/value stream as one :class:`~repro.mapreduce.columnar.ColumnarBlock`
instead of one tuple per pair).  Both are *exact* accelerations: the runtime
guarantees bit-identical coefficients, counters and shuffle accounting
whichever plane executes a job.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

import numpy as np

from repro.mapreduce.columnar import ColumnarBlock
from repro.mapreduce.counters import CounterNames, Counters
from repro.mapreduce.hdfs import InputSplit
from repro.mapreduce.job import DistributedCache, JobConfiguration
from repro.mapreduce.serialization import SerializationModel
from repro.mapreduce.state import StateStore

__all__ = [
    "EmittedPair",
    "MapperContext",
    "ReducerContext",
    "Mapper",
    "BatchMapper",
    "Reducer",
    "BatchReducer",
]


EmittedPair = Tuple[Any, Any, int]
"""An intermediate pair as buffered by the runtime: ``(key, value, size_bytes)``."""


class _TaskContext:
    """State and services shared by mapper and reducer contexts."""

    def __init__(
        self,
        configuration: JobConfiguration,
        distributed_cache: DistributedCache,
        counters: Counters,
        state_store: StateStore,
        serialization: SerializationModel,
        rng: np.random.Generator,
    ) -> None:
        self.configuration = configuration
        self.distributed_cache = distributed_cache
        self.counters = counters
        self.serialization = serialization
        self.rng = rng
        self._state_store = state_store
        # Emission stream in order: EmittedPair tuples and/or ColumnarBlocks.
        self._emitted: List[Any] = []

    @property
    def emitted_pairs(self) -> List[Any]:
        """The emission stream so far (pairs and/or columnar blocks), in order."""
        return self._emitted

    def _record_emit(self, key: Any, value: Any, size_bytes: Optional[int]) -> int:
        size = self.serialization.pair_size(key, value, explicit=size_bytes)
        self._emitted.append((key, value, size))
        return size


class MapperContext(_TaskContext):
    """Context handed to every :class:`Mapper` method."""

    def __init__(
        self,
        split: InputSplit,
        configuration: JobConfiguration,
        distributed_cache: DistributedCache,
        counters: Counters,
        state_store: StateStore,
        serialization: SerializationModel,
        rng: np.random.Generator,
        num_splits: int,
    ) -> None:
        super().__init__(configuration, distributed_cache, counters, state_store,
                         serialization, rng)
        self.split = split
        self.num_splits = num_splits

    @property
    def split_id(self) -> int:
        """0-based id of the split this mapper processes (stable across rounds)."""
        return self.split.split_id

    def emit(self, key: Any, value: Any, size_bytes: Optional[int] = None) -> None:
        """Emit an intermediate ``(key, value)`` pair towards the reducers.

        Args:
            key: intermediate key.
            value: intermediate value (``None`` models a zero-byte payload).
            size_bytes: explicit payload size overriding the serialization
                model (excluding per-pair overhead).
        """
        size = self._record_emit(key, value, size_bytes)
        self.counters.increment(CounterNames.MAP_OUTPUT_RECORDS)
        self.counters.increment(CounterNames.MAP_OUTPUT_BYTES, size)

    def emit_block(self, keys: np.ndarray, values: np.ndarray,
                   pair_size_bytes: int) -> None:
        """Emit a uniform stream of ``(keys[i], values[i])`` pairs columnar.

        The batch-plane counterpart of calling :meth:`emit` once per pair with
        ``size_bytes=pair_size_bytes``: byte accounting, shuffle routing and
        reduce-side grouping all see exactly the pairs the loop would have
        produced (same order, same per-pair size), but the stream travels as
        two numpy arrays.  Empty streams are a no-op.

        Args:
            keys: int64 array of intermediate keys, in emission order.
            values: aligned numeric array of intermediate values.
            pair_size_bytes: explicit payload size per pair (excluding
                per-pair overhead), as in :meth:`emit`'s ``size_bytes``.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return
        size = self.serialization.pair_size(None, None, explicit=pair_size_bytes)
        self._emitted.append(ColumnarBlock(keys, np.asarray(values), size))
        self.counters.increment_by(CounterNames.MAP_OUTPUT_RECORDS, 1.0, int(keys.size))
        self.counters.increment_by(CounterNames.MAP_OUTPUT_BYTES, size, int(keys.size))

    def save_state(self, payload: Any, size_bytes: Optional[int] = None) -> None:
        """Persist state for this split, readable by the mapper of a later round."""
        self._state_store.save("split", self.split_id, payload, size_bytes=size_bytes)
        self.counters.increment(
            CounterNames.STATE_BYTES_WRITTEN,
            size_bytes if size_bytes is not None else 0,
        )

    def load_state(self, default: Any = None) -> Any:
        """Load the state persisted for this split by a previous round."""
        return self._state_store.load("split", self.split_id, default=default)


class ReducerContext(_TaskContext):
    """Context handed to every :class:`Reducer` method."""

    def __init__(
        self,
        reducer_id: int,
        configuration: JobConfiguration,
        distributed_cache: DistributedCache,
        counters: Counters,
        state_store: StateStore,
        serialization: SerializationModel,
        rng: np.random.Generator,
        num_splits: int,
    ) -> None:
        super().__init__(configuration, distributed_cache, counters, state_store,
                         serialization, rng)
        self.reducer_id = reducer_id
        self.num_splits = num_splits

    def emit(self, key: Any, value: Any, size_bytes: Optional[int] = None) -> None:
        """Emit a final output ``(key, value)`` pair."""
        self._record_emit(key, value, size_bytes)
        self.counters.increment(CounterNames.REDUCE_OUTPUT_RECORDS)

    def save_state(self, payload: Any, size_bytes: Optional[int] = None) -> None:
        """Persist coordinator state on the designated reducer machine."""
        self._state_store.save("reducer", self.reducer_id, payload, size_bytes=size_bytes)

    def load_state(self, default: Any = None) -> Any:
        """Load coordinator state persisted by a previous round."""
        return self._state_store.load("reducer", self.reducer_id, default=default)


class Mapper:
    """Base class for map tasks.

    Subclasses override any of :meth:`setup`, :meth:`map` and :meth:`close`.
    When the job is configured with ``read_input=False`` only ``setup`` and
    ``close`` run (the paper's rounds 2 and 3 of H-WTopk).
    """

    def setup(self, context: MapperContext) -> None:
        """Called once before any record is processed."""

    def map(self, record: int, context: MapperContext) -> None:
        """Called for every input record (the record is the integer key)."""

    def close(self, context: MapperContext) -> None:
        """Called once after all records have been processed (Hadoop's Close)."""


class BatchMapper(Mapper):
    """A mapper that can consume a whole split per call (the batch data plane).

    When the runtime executes a job on the ``"batch"`` data plane and the
    job's mapper is a :class:`BatchMapper`, the record reader yields the
    split's keys as one int64 numpy array and :meth:`map_batch` is invoked
    once instead of :meth:`map` once per record.  The contract is strict
    equivalence: ``map_batch(keys, context)`` must leave the mapper and the
    context in *exactly* the state the per-record loop would have — same
    aggregation contents in the same insertion order, same counter totals,
    same RNG consumption — because the equivalence suite asserts bit-identical
    outcomes across planes.  The default implementation is the reference
    per-record loop, so a subclass that only overrides :meth:`map` is still
    correct (just not vectorised).
    """

    def map_batch(self, keys: np.ndarray, context: MapperContext) -> None:
        """Process one split's record keys in a single call."""
        for key in keys:
            self.map(int(key), context)


class Reducer:
    """Base class for reduce tasks."""

    def setup(self, context: ReducerContext) -> None:
        """Called once before any key group is processed."""

    def reduce(self, key: Any, values: Iterable[Any], context: ReducerContext) -> None:
        """Called once per distinct intermediate key with all its values."""

    def close(self, context: ReducerContext) -> None:
        """Called once after all key groups have been processed."""


class BatchReducer(Reducer):
    """A reducer that can consume a whole sorted columnar partition per call.

    When a reduce task's partition arrives fully columnar (the batch plane's
    sorted-and-grouped arrays) and the job's reducer is a
    :class:`BatchReducer`, the runtime invokes :meth:`reduce_batch` once with
    the grouped stream instead of :meth:`reduce` once per key.  Same
    equivalence contract as :class:`BatchMapper`: the batch call must leave
    reducer state and counters exactly as the per-group loop would have.  The
    default implementation is that reference loop, so overriding only
    :meth:`reduce` stays correct; and :meth:`reduce` must still be
    implemented, because per-pair partitions (mixed streams, the records
    plane) always take the per-group path.
    """

    def reduce_batch(self, keys: np.ndarray, starts: np.ndarray,
                     values: np.ndarray, context: ReducerContext) -> None:
        """Process every key group of the partition in a single call.

        Args:
            keys: int64 array of the distinct keys, ascending.
            starts: int64 array, ``starts[i]`` is the offset of group ``i``
                in ``values`` (groups are contiguous; the last runs to the
                end).
            values: all values of the partition, stably sorted by key —
                within a group, arrival order is preserved.
            context: the task context (for emitting and counters).
        """
        ends = np.concatenate((starts[1:], [values.size]))
        values_list = values.tolist()
        for key, start, end in zip(keys.tolist(), starts.tolist(), ends.tolist()):
            self.reduce(key, values_list[start:end], context)
