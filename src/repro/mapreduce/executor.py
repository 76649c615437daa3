"""Pluggable task executors: serial and process-parallel phase execution.

The simulated runtime decomposes every MapReduce round into *task
specifications* — one :class:`MapTaskSpec` per input split and one
:class:`ReduceTaskSpec` per reduce partition — and hands each phase's specs to
an :class:`Executor`.  Two executors are provided:

``SerialExecutor``
    Runs every task in the calling process, in task order.  This is the
    default and reproduces the original single-process behaviour.

``ParallelExecutor``
    Runs tasks concurrently in a :class:`concurrent.futures.ProcessPoolExecutor`,
    bounded by the cluster's ``map_slots`` / ``reduce_slots`` so the simulated
    scheduler constraint is honoured on real hardware.

**Determinism.**  Both executors invoke the *same* module-level task functions
(:func:`execute_map_task`, :func:`execute_reduce_task`) and the runtime merges
each task's :class:`~repro.mapreduce.counters.Counters`, state writes and
emitted pairs at the phase barrier **in task order**, regardless of the order
tasks finished in.  Each task receives a private RNG seeded from
``(job seed, round, task id)`` and a private state overlay, so a parallel run
is bit-identical to a serial run.  The price of this guarantee is that
everything a task touches must be picklable: mapper/reducer classes, combiner
functions, input formats and — since the shuffle is sharded into the map
tasks — the job's partitioner must be defined at module level (no lambdas or
closures), which all of the paper's algorithms satisfy.  The partitioner must
also be process-stable; the default ``hash_partitioner`` is, for the int keys
every shipped algorithm emits (CPython int hashing is hash-seed independent),
but jobs that hash *strings* across processes should prefer the ``fork``
start method (the default where available) so workers share the parent's hash
seed.  The serial executor imposes none of these constraints.

A task never sees the whole simulated HDFS: a map spec carries only its own
split's records (:class:`SplitRecords`), and a task's state overlay carries
only the ``(kind, id)`` blobs that task is allowed to read, so the payload
shipped to a worker process stays proportional to the split size.
"""

from __future__ import annotations

import logging
import os
import time
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.errors import (
    ExecutorError,
    InvalidParameterError,
    TaskPermanentError,
    TaskTransientError,
)
from repro.mapreduce.faults import (
    DEFAULT_RETRY_POLICY,
    KIND_TRANSIENT,
    KIND_WORKER_KILL,
    FaultInjector,
    RetryPolicy,
)
from repro.mapreduce.api import (
    BatchMapper,
    BatchReducer,
    EmittedPair,
    MapperContext,
    ReducerContext,
)
from repro.mapreduce.columnar import ColumnarBlock, emitted_length
from repro.mapreduce.counters import CounterNames, Counters
from repro.mapreduce.hdfs import InputSplit
from repro.mapreduce.inputformat import InputFormat, SequentialInputFormat
from repro.mapreduce.job import DistributedCache, JobConfiguration, hash_partitioner
from repro.mapreduce.serialization import (
    SHIP_MODE_OOB,
    SHIP_MODE_PICKLED,
    SerializationModel,
    ShipmentArena,
    ShippedTask,
    load_shipped,
    pickled_task_bytes,
)
from repro.mapreduce.state import StateStore, freeze
from repro.telemetry import get_telemetry
from repro.telemetry.metrics import MetricsDelta

__all__ = [
    "MapTaskSpec",
    "ReduceTaskSpec",
    "FunctionTaskSpec",
    "TaskResult",
    "TaskHandle",
    "SplitRecords",
    "execute_map_task",
    "execute_reduce_task",
    "execute_function_task",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "EXECUTOR_NAMES",
    "DATA_PLANE_NAMES",
    "create_executor",
    "shared_executor",
    "translate_task_failure",
]

logger = logging.getLogger(__name__)

# Data planes the runtime can move a job's records through.  ``"batch"`` is
# the columnar fast path (whole-split arrays, vectorised mappers, blocked
# spills); ``"records"`` is the record-at-a-time reference path.  Both are
# bit-identical in every outcome; only wall-clock differs.
DATA_PLANE_NAMES = ("batch", "records")

StateKey = Tuple[str, int]
StateSave = Tuple[str, int, Any, int]


@dataclass
class SplitRecords:
    """The record keys of one split, addressable by the split's absolute offsets.

    Stands in for the :class:`~repro.mapreduce.hdfs.HdfsFile` inside a task so
    record readers work unchanged without shipping the whole file to a worker.
    """

    keys: np.ndarray
    start: int
    record_size_bytes: int

    def read(self, start: int, length: int) -> np.ndarray:
        """Return the keys of records ``start .. start + length - 1`` (absolute)."""
        offset = start - self.start
        return self.keys[offset : offset + length]


class _TaskStateStore(StateStore):
    """Per-task overlay of the cross-round state store.

    Reads are served from the snapshot the runtime shipped with the task;
    writes are additionally recorded in :attr:`saves` and replayed into the
    real store at the phase barrier.  A later read observes an earlier write by
    the same task, matching the read-your-writes behaviour of the shared store.
    Inherits all byte accounting from :class:`StateStore` so the charging rules
    cannot drift between executors and the shared store.  Snapshot arrays are
    frozen on arrival, so loaded state is read-only whether the spec came by
    reference, through shared memory or through an in-band pickle.
    """

    def __init__(self, snapshot: Dict[StateKey, Any],
                 serialization: SerializationModel) -> None:
        super().__init__(serialization)
        for (kind, identifier), payload in snapshot.items():
            self._blobs[(kind, identifier)] = freeze(payload)
        self.saves: List[StateSave] = []

    def save(self, kind: str, identifier: int, payload: Any,
             size_bytes: Optional[int] = None) -> None:
        written_before = self.bytes_written
        super().save(kind, identifier, payload, size_bytes=size_bytes)
        self.saves.append(
            (kind, identifier, payload, self.bytes_written - written_before)
        )


@dataclass
class MapTaskSpec:
    """Everything one map task needs, detached from runner and HDFS.

    ``partitioner`` and ``num_reducers`` live on the map spec because the
    shuffle is sharded: each map task routes its own spilled output to reduce
    partitions (so the parent's shuffle step is a pure concatenation).  Under
    a parallel executor the partitioner therefore runs in worker processes —
    it must be module-level (picklable) and process-stable; the default
    ``hash_partitioner`` over the int keys every shipped algorithm emits
    qualifies.  ``data_plane`` selects the columnar fast path (``"batch"``)
    or the record-at-a-time reference path (``"records"``).
    """

    split: InputSplit
    mapper_class: Type
    configuration: JobConfiguration
    distributed_cache: DistributedCache
    serialization: SerializationModel
    input_format: Optional[InputFormat]
    read_input: bool
    combiner: Optional[Callable[[Any, list], Any]]
    records: Optional[SplitRecords]
    state_snapshot: Dict[StateKey, Any]
    seed_key: Tuple[int, ...]
    num_splits: int
    partitioner: Callable[[Any, int], int] = hash_partitioner
    num_reducers: int = 1
    data_plane: str = "batch"
    zero_copy: bool = True

    @property
    def task_id(self) -> int:
        return self.split.split_id


@dataclass
class ReduceTaskSpec:
    """Everything one reduce task (one partition) needs.

    ``pairs`` is the partition's shuffled stream in task order: per-pair
    tuples, :class:`~repro.mapreduce.columnar.ColumnarBlock` objects, or a
    mixture.
    """

    reducer_id: int
    reducer_class: Type
    configuration: JobConfiguration
    distributed_cache: DistributedCache
    serialization: SerializationModel
    pairs: List[Any]
    state_snapshot: Dict[StateKey, Any]
    seed_key: Tuple[int, ...]
    num_splits: int
    zero_copy: bool = True

    @property
    def task_id(self) -> int:
        return self.reducer_id


@dataclass
class TaskResult:
    """What one task hands back to the runtime at the phase barrier.

    For reduce and function tasks ``pairs`` holds the final output pairs.
    Map tasks instead fill ``partitions``: their post-combine spill already
    routed to reduce partitions (the sharded shuffle), as a list with one
    entry per reducer holding pairs and/or columnar blocks in emission order.

    ``metrics`` carries the task's telemetry delta (wall time, task counts)
    across the process boundary; the runtime replays deltas in task order at
    the phase barrier, alongside ``counters``.  It rides in the result rather
    than a side channel so worker-process metrics can never arrive out of
    merge order.
    """

    task_id: int
    pairs: List[EmittedPair]
    counters: Counters
    state_saves: List[StateSave] = field(default_factory=list)
    state_bytes_read: int = 0
    partitions: Optional[List[List[Any]]] = None
    metrics: Optional[MetricsDelta] = None


def _materialize(items: List[Any]) -> List[EmittedPair]:
    """Widen a mixed pairs/blocks emission stream into per-pair tuples."""
    pairs: List[EmittedPair] = []
    for item in items:
        if isinstance(item, ColumnarBlock):
            pairs.extend(item.to_pairs())
        else:
            pairs.append(item)
    return pairs


def _apply_combiner(combiner: Optional[Callable[[Any, list], Any]],
                    serialization: SerializationModel,
                    items: List[Any],
                    counters: Counters) -> List[Any]:
    """Hadoop's Combine: group one mapper's output by key, fold each group.

    Columnar blocks are widened to pairs first — combining is a per-group
    Python fold either way, and materialising keeps the combine counters and
    output identical across data planes.
    """
    if combiner is None or not items:
        return items
    pairs = _materialize(items)
    grouped: Dict[Any, List[Any]] = {}
    order: List[Any] = []
    for key, value, _ in pairs:
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(value)
        counters.increment(CounterNames.COMBINE_INPUT_RECORDS)
    combined: List[EmittedPair] = []
    for key in order:
        value = combiner(key, grouped[key])
        size = serialization.pair_size(key, value)
        combined.append((key, value, size))
        counters.increment(CounterNames.COMBINE_OUTPUT_RECORDS)
    return combined


def _partition_spill(items: List[Any], partitioner: Callable[[Any, int], int],
                     num_reducers: int, counters: Counters) -> List[List[Any]]:
    """The map-side half of the sharded shuffle: route the spill per reducer.

    Runs inside the map task (so it parallelises with the rest of the phase)
    and charges the shuffle counters in batched form; the parent's shuffle
    step then only concatenates the returned lists in task order.  Columnar
    blocks are routed without widening: with one reducer they pass through
    untouched, and under the default ``hash_partitioner`` a block's int64 keys
    are their own hashes (CPython: ``hash(x) == x`` for ``0 <= x < 2**61-1``),
    so the reducer index is one vectorised modulo.  A custom partitioner or
    negative keys fall back to per-pair routing.
    """
    partitions: List[List[Any]] = [[] for _ in range(num_reducers)]
    records = 0
    size_total = 0
    for item in items:
        if isinstance(item, ColumnarBlock):
            records += len(item)
            size_total += item.total_bytes
            if num_reducers == 1:
                partitions[0].append(item)
            elif partitioner is hash_partitioner and int(item.keys.min()) >= 0:
                ids = item.keys % num_reducers
                for partition, sub_block in item.split_by_partition(ids, num_reducers):
                    partitions[partition].append(sub_block)
            else:
                for key, value, size in item.to_pairs():
                    partitions[partitioner(key, num_reducers)].append((key, value, size))
        else:
            key, _, size = item
            partitions[partitioner(key, num_reducers)].append(item)
            records += 1
            size_total += size
    counters.increment_by(CounterNames.SHUFFLE_RECORDS, 1.0, records)
    counters.increment(CounterNames.SHUFFLE_BYTES, size_total)
    return partitions


def _task_metrics(phase: str, started: float) -> MetricsDelta:
    """The per-task telemetry delta: wall time and a task count, by phase.

    Recorded unconditionally (two entries is cheap) so the coordinator's
    registry sees task timings whether or not tracing is enabled, and works
    identically whichever process ran the task.
    """
    delta = MetricsDelta()
    delta.observe("repro_task_seconds", time.perf_counter() - started,
                  phase=phase)
    delta.inc("repro_tasks_total", 1.0, phase=phase)
    return delta


def execute_map_task(spec: MapTaskSpec) -> TaskResult:
    """Run one map task: read the split, map, combine, spill, partition.

    Self-contained and side-effect free outside the spec, so it can run in the
    calling process or a worker process interchangeably.  On the ``"batch"``
    data plane a :class:`~repro.mapreduce.api.BatchMapper` consumes the whole
    split as one array and the per-record counters are charged in batched
    form; any other mapper (or the ``"records"`` plane) takes the reference
    record-at-a-time loop.  Either way the task ends with the map-side half of
    the sharded shuffle: the spill leaves the task already routed per reducer.
    """
    task_started = time.perf_counter()
    counters = Counters()
    rng = np.random.default_rng(spec.seed_key)
    state = _TaskStateStore(spec.state_snapshot, spec.serialization)
    context = MapperContext(
        split=spec.split,
        configuration=spec.configuration,
        distributed_cache=spec.distributed_cache,
        counters=counters,
        state_store=state,
        serialization=spec.serialization,
        rng=rng,
        num_splits=spec.num_splits,
    )
    mapper = spec.mapper_class()
    mapper.setup(context)
    if spec.read_input:
        input_format = (
            spec.input_format if spec.input_format is not None
            else SequentialInputFormat()
        )
        reader = input_format.create_reader(spec.records, spec.split, rng=rng)
        if spec.data_plane == "batch" and isinstance(mapper, BatchMapper):
            keys = reader.read_batch()
            mapper.map_batch(keys, context)
            counters.increment_by(CounterNames.MAP_INPUT_RECORDS, 1.0, int(keys.size))
        else:
            for record in reader:
                mapper.map(record, context)
                counters.increment(CounterNames.MAP_INPUT_RECORDS)
        counters.increment(CounterNames.MAP_INPUT_BYTES, reader.bytes_read)
        counters.increment(CounterNames.HDFS_BYTES_READ, reader.bytes_read)
    mapper.close(context)
    spilled = _apply_combiner(spec.combiner, spec.serialization,
                              context.emitted_pairs, counters)
    counters.increment(CounterNames.SPILLED_RECORDS, emitted_length(spilled))
    partitions = _partition_spill(spilled, spec.partitioner, spec.num_reducers,
                                  counters)
    return TaskResult(
        task_id=spec.task_id,
        pairs=[],
        counters=counters,
        state_saves=state.saves,
        state_bytes_read=state.bytes_read,
        partitions=partitions,
        metrics=_task_metrics("map", task_started),
    )


def _reduce_columnar(reducer: Any, blocks: List[ColumnarBlock],
                     context: ReducerContext, counters: Counters) -> None:
    """Vectorised sort-and-group over an all-columnar partition.

    Equivalent to the reference dict-grouping loop: groups are visited in
    ascending key order and each group's values keep their arrival order (the
    stable sort preserves the stream order across blocks), so reducers that
    fold floats see the exact same summation order on either plane.  A
    :class:`~repro.mapreduce.api.BatchReducer` receives the grouped arrays in
    one call; any other reducer gets the per-group reference loop.
    """
    if len(blocks) == 1:
        # A coalesced (or single-mapper) partition arrives as one block; sort
        # its columns in place-of-reference — no concatenation copy at all.
        keys, values = blocks[0].keys, blocks[0].values
    else:
        keys = np.concatenate([block.keys for block in blocks])
        values = np.concatenate([block.values for block in blocks])
    counters.increment_by(CounterNames.REDUCE_INPUT_RECORDS, 1.0, int(keys.size))
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_values = values[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_keys)) + 1))
    counters.increment_by(CounterNames.REDUCE_INPUT_GROUPS, 1.0, int(starts.size))
    if isinstance(reducer, BatchReducer):
        reducer.reduce_batch(sorted_keys[starts], starts, sorted_values, context)
    else:
        # Unbound call: feed a plain reducer through the one reference
        # per-group loop (BatchReducer's default body), so the grouping-fold
        # contract lives in a single place.
        BatchReducer.reduce_batch(reducer, sorted_keys[starts], starts,
                                  sorted_values, context)


def execute_reduce_task(spec: ReduceTaskSpec) -> TaskResult:
    """Run one reduce task: sort-and-group its partition, reduce each key group.

    Sorting happens here, per partition, rather than in the runtime's shuffle —
    the paper's reducers see keys in ascending order, and sorting inside the
    task lets partitions sort concurrently under a parallel executor.  A
    partition that arrives fully columnar (same value dtype throughout) is
    grouped with one stable numpy sort instead of the per-pair dict loop; any
    mixed or per-pair partition takes the reference loop.
    """
    task_started = time.perf_counter()
    counters = Counters()
    rng = np.random.default_rng(spec.seed_key)
    state = _TaskStateStore(spec.state_snapshot, spec.serialization)
    context = ReducerContext(
        reducer_id=spec.reducer_id,
        configuration=spec.configuration,
        distributed_cache=spec.distributed_cache,
        counters=counters,
        state_store=state,
        serialization=spec.serialization,
        rng=rng,
        num_splits=spec.num_splits,
    )
    reducer = spec.reducer_class()
    reducer.setup(context)
    items = spec.pairs
    all_columnar = (
        bool(items)
        and all(isinstance(item, ColumnarBlock) for item in items)
        and len({item.values.dtype for item in items}) == 1
    )
    if all_columnar:
        _reduce_columnar(reducer, items, context, counters)
    else:
        grouped: Dict[Any, List[Any]] = {}
        for key, value, _ in _materialize(items):
            grouped.setdefault(key, []).append(value)
            counters.increment(CounterNames.REDUCE_INPUT_RECORDS)
        for key in sorted(grouped):
            counters.increment(CounterNames.REDUCE_INPUT_GROUPS)
            reducer.reduce(key, grouped[key], context)
    reducer.close(context)
    return TaskResult(
        task_id=spec.reducer_id,
        pairs=context.emitted_pairs,
        counters=counters,
        state_saves=state.saves,
        state_bytes_read=state.bytes_read,
        metrics=_task_metrics("reduce", task_started),
    )


@dataclass
class FunctionTaskSpec:
    """A generic task: a module-level function applied to a picklable payload.

    This is the executor seam's escape hatch for work that is not a MapReduce
    phase — streaming ingest uses it to count large update batches in shards
    across the same serial/parallel executors the runtime uses for map and
    reduce tasks.
    The function must be defined at module level (same picklability contract
    as mappers and reducers) and its return value must be picklable; the
    result is delivered as the single pair ``("result", value, 0)``.
    """

    task_id: int
    function: Callable[[Any], Any]
    payload: Any
    zero_copy: bool = True


def execute_function_task(spec: FunctionTaskSpec) -> TaskResult:
    """Run one generic function task and wrap its return value as a TaskResult."""
    task_started = time.perf_counter()
    value = spec.function(spec.payload)
    return TaskResult(
        task_id=spec.task_id,
        pairs=[("result", value, 0)],
        counters=Counters(),
        metrics=_task_metrics("function", task_started),
    )


TaskSpec = Union[MapTaskSpec, ReduceTaskSpec, FunctionTaskSpec]


_WORKER_DIED_MESSAGE = (
    "a worker process died while executing tasks; this usually means the "
    "job's mapper/reducer/combiner or an emitted value is not picklable "
    "(they must be defined at module level)"
)

_UNPICKLABLE_SPEC_MESSAGE = (
    "a task spec could not be pickled for a worker process; under the "
    "parallel executor the job's mapper, reducer, combiner and partitioner "
    "must be defined at module level (no lambdas or closures)"
)


def translate_task_failure(error: BaseException,
                           executor: "Executor") -> Optional[ExecutorError]:
    """Map a raw task failure to the shared :class:`ExecutorError` diagnosis.

    Called only from the pool task handle's ``result()``, which both
    :meth:`ParallelExecutor.run_tasks` and the cluster scheduler collect
    through, so the two execution modes cannot drift in how they report — or
    recover from — the same worker failure.  A broken pool is closed
    (discarded) so the executor stays usable.  Returns ``None`` for failures
    that are not the executor's to explain (caller re-raises): a task's own
    exception reaches the caller unchanged, whatever its message says.  (A
    spec that does not pickle never gets here; the handle refuses it before
    submission.)
    """
    if isinstance(error, BrokenProcessPool):
        executor.close()
        return ExecutorError(_WORKER_DIED_MESSAGE)
    return None


def _execute_task(spec: TaskSpec) -> TaskResult:
    """Dispatch a spec to its task function (the worker-process entry point)."""
    if isinstance(spec, MapTaskSpec):
        return execute_map_task(spec)
    if isinstance(spec, ReduceTaskSpec):
        return execute_reduce_task(spec)
    return execute_function_task(spec)


def _spec_phase(spec: TaskSpec) -> str:
    """The phase label a spec's task belongs to (for metrics and messages)."""
    if isinstance(spec, MapTaskSpec):
        return "map"
    if isinstance(spec, ReduceTaskSpec):
        return "reduce"
    return "function"


# Exit code used by injected worker kills; distinctive in worker logs.
_INJECTED_KILL_EXIT = 113


def _execute_faulted_task(spec: TaskSpec, fault: Optional[str]) -> TaskResult:
    """Worker entry point with the fault-injection seam applied.

    The coordinator draws the fault *before* submission (the injector's
    selector may not be picklable) and ships only the directive.  A transient
    directive raises before the task body runs; a kill directive takes the
    whole worker process down, exactly like real task-tracker loss.  The
    task's own RNG key never sees the attempt number, so the eventual
    successful attempt is bit-identical to an uninjected run.
    """
    if fault == KIND_TRANSIENT:
        raise TaskTransientError(
            f"injected transient fault in {_spec_phase(spec)} task {spec.task_id}"
        )
    if fault == KIND_WORKER_KILL:
        os._exit(_INJECTED_KILL_EXIT)
    return _execute_task(spec)


def _execute_shipped_task(shipped: ShippedTask,
                          fault: Optional[str]) -> TaskResult:
    """Worker entry point for zero-copy shipped specs.

    Rebuilds the spec as read-only views over the coordinator's shared-memory
    segments (see :func:`repro.mapreduce.serialization.load_shipped`), then
    runs the exact same fault/task path as a conventionally pickled spec — so
    shipping can never change what a task computes, only how its input bytes
    arrived.
    """
    return _execute_faulted_task(load_shipped(shipped), fault)


def _failure_reason(error: BaseException) -> str:
    """Short label for the retry metrics' ``reason`` dimension."""
    if isinstance(error, TaskTransientError):
        return "transient"
    if isinstance(error, BrokenProcessPool):
        return "worker-died"
    return type(error).__name__.lower()


class TaskHandle:
    """One task submitted through :meth:`Executor.submit_task`.

    The handle is how the cluster scheduler drives tasks *without* phase
    barriers: it observes completion (:meth:`completed`), collects the result
    (:meth:`result`, which re-raises the task's exception if it failed) and can
    try to withdraw a not-yet-started task (:meth:`cancel`).  An inline
    executor returns handles that are already complete at submission.
    """

    __slots__ = ("spec",)

    def __init__(self, spec: TaskSpec) -> None:
        self.spec = spec

    def completed(self) -> bool:
        """Whether the task has finished (successfully or with an error)."""
        raise NotImplementedError

    def result(self) -> TaskResult:
        """The task's result; re-raises the task's exception on failure."""
        raise NotImplementedError

    def cancel(self) -> bool:
        """Best-effort cancellation; True if the task will never run."""
        return False


class _InlineTaskHandle(TaskHandle):
    """An already-executed task (the serial executor's submission result)."""

    __slots__ = ("_result", "_error")

    def __init__(self, spec: TaskSpec, result: Optional[TaskResult] = None,
                 error: Optional[BaseException] = None) -> None:
        super().__init__(spec)
        self._result = result
        self._error = error

    def completed(self) -> bool:
        return True

    def result(self) -> TaskResult:
        if self._error is not None:
            raise self._error
        return self._result  # type: ignore[return-value]


class _PoolTaskHandle(TaskHandle):
    """A task running in a process pool, with transparent per-task retries.

    The parallel executor's only attempt loop, driven both by
    :meth:`ParallelExecutor.run_tasks` and by the cluster scheduler through
    :meth:`ParallelExecutor.submit_task`.  When :meth:`completed` observes a
    retryable failure it resubmits the task (rebuilding a broken pool first)
    and reports the handle as still running; only success or a permanent
    failure completes it.  Retried results are bit-identical because the
    attempt number never reaches the task's RNG key.  :meth:`result` is where
    a pool failure becomes an :class:`ExecutorError`.

    The spec ships into a lent ``arena`` (``run_tasks`` lends one per phase,
    so a buffer shared by several specs ships once), which its lender
    releases.  Without one the handle owns a private arena and releases it on
    its terminal transition (or via ``executor.close()``).  A spec that does
    not pickle raises :class:`ExecutorError` from the constructor and never
    reaches the pool.
    """

    __slots__ = ("executor", "future", "attempt", "generation", "fault",
                 "arena", "owns_arena", "shipped", "_cancelled", "_final_error")

    def __init__(self, executor: "ParallelExecutor", spec: TaskSpec,
                 arena: Optional[ShipmentArena] = None) -> None:
        super().__init__(spec)
        self.executor = executor
        self.attempt = 1
        self._cancelled = False
        self._final_error: Optional[BaseException] = None
        self.owns_arena = arena is None
        self.arena = ShipmentArena() if arena is None else arena
        if self.owns_arena:
            executor._live_arenas.add(self.arena)
        try:
            self.shipped = executor._ship_spec(spec, self.arena)
        except ExecutorError:
            self._release_shipment()
            raise
        self._submit()

    def _release_shipment(self) -> None:
        if self.owns_arena:
            self.executor._live_arenas.discard(self.arena)
            self.arena.release()

    def _submit(self) -> None:
        executor = self.executor
        self.fault = executor._draw_fault(self.spec, self.attempt, allow_kill=True)
        if self.fault == KIND_WORKER_KILL:
            executor._generation_kill_injected = True
        self.generation = executor._generation
        if self.shipped is not None and not self.arena.released:
            entry_point: Any = _execute_shipped_task
            argument: Any = self.shipped
        else:
            # The arena is gone (executor closed between attempts): fall back
            # to the pool's own pickler rather than point at dead segments.
            entry_point = _execute_faulted_task
            argument = self.spec
        try:
            self.future = executor._ensure_pool().submit(
                entry_point, argument, self.fault
            )
        except BrokenProcessPool:
            # The pool died under a concurrent handle's kill before this
            # submission landed: rebuild once and resubmit (the attempt never
            # started, so nothing is charged to the retry budget).
            executor._recover_pool(self.generation)
            self.generation = executor._generation
            self.future = executor._ensure_pool().submit(
                entry_point, argument, self.fault
            )

    def completed(self) -> bool:
        if self._final_error is not None:
            return True
        if not self.future.done():
            return False
        if self._cancelled or self.future.cancelled():
            self._release_shipment()
            return True
        error = self.future.exception()
        if error is None:
            self._release_shipment()
            return True
        policy = self.executor.retry_policy
        if policy is None or not policy.is_retryable(error):
            self._release_shipment()
            return True
        if isinstance(error, BrokenProcessPool):
            self.executor._recover_pool(self.generation)
            if (self.executor._last_break_injected
                    and self.fault != KIND_WORKER_KILL):
                # An innocent bystander of an injected kill: the attempt
                # never ran, so resubmit without charging the retry budget.
                self._submit()
                return False
        try:
            self.attempt = self.executor._after_failure(
                self.spec, self.attempt, error
            )
        except BaseException as final:  # retries exhausted
            self._final_error = final
            self._release_shipment()
            return True
        self._submit()
        return False

    def result(self) -> TaskResult:
        try:
            if self._final_error is not None:
                raise self._final_error
            return self.future.result()
        except BaseException as error:
            translated = translate_task_failure(error, self.executor)
            if translated is not None:
                raise translated from error
            raise

    def cancel(self) -> bool:
        self._cancelled = True
        withdrawn = self.future.cancel()
        if withdrawn:
            self._release_shipment()
        return withdrawn


class Executor(ABC):
    """Executes the tasks of one phase and returns their results in task order."""

    name: str = "abstract"

    # Retry configuration shared by every executor: attempts are budgeted by
    # ``retry_policy`` and synthetic faults come from ``fault_injector``
    # (None = no injection).  Class-level defaults keep third-party
    # subclasses working without constructor changes.
    retry_policy: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY
    fault_injector: Optional[FaultInjector] = None

    @abstractmethod
    def run_tasks(self, specs: Sequence[TaskSpec], slots: int) -> List[TaskResult]:
        """Run all specs, honouring at most ``slots`` concurrent tasks.

        Results are returned in spec order regardless of completion order.
        """

    # ---------------------------------------------------- retries and faults

    def _draw_fault(self, spec: TaskSpec, attempt: int,
                    allow_kill: bool) -> Optional[str]:
        """The injected fault (if any) for this attempt.

        Inline execution paths pass ``allow_kill=False``: a worker-kill draw
        degrades to a transient error there, because ``os._exit`` in the
        coordinator process would take the whole run down rather than one
        worker.  The *draw* itself is identical either way, so fault plans
        stay comparable across executors.
        """
        if self.fault_injector is None:
            return None
        fault = self.fault_injector.draw(spec, attempt)
        if fault == KIND_WORKER_KILL and not allow_kill:
            return KIND_TRANSIENT
        return fault

    def _after_failure(self, spec: TaskSpec, attempt: int,
                       error: BaseException) -> int:
        """Account one failed attempt: raise, or book a retry and return attempt+1.

        Non-retryable errors re-raise unchanged; an exhausted budget raises
        :class:`TaskPermanentError` naming the task and attempt count.  A
        booked retry records the ``repro_task_retries_total`` counter and a
        retry span, then sleeps the policy's deterministic backoff.
        """
        policy = self.retry_policy
        if policy is None or not policy.is_retryable(error):
            raise error
        phase = _spec_phase(spec)
        if attempt >= policy.max_attempts:
            detail = (_WORKER_DIED_MESSAGE if isinstance(error, BrokenProcessPool)
                      else str(error))
            raise TaskPermanentError(
                f"{phase} task {spec.task_id} failed permanently after "
                f"{attempt} attempt(s); last error: {detail}",
                task_id=spec.task_id, attempts=attempt,
            ) from error
        reason = _failure_reason(error)
        telemetry = get_telemetry()
        telemetry.metrics.inc("repro_task_retries_total", 1.0,
                              phase=phase, reason=reason)
        telemetry.tracer.record("task.retry", kind="faults", phase=phase,
                                task=spec.task_id, attempt=attempt,
                                reason=reason)
        logger.warning("retrying %s task %s (attempt %d failed: %s)",
                       phase, spec.task_id, attempt, reason)
        policy.sleep_before_retry(attempt)
        return attempt + 1

    def _run_inline(self, spec: TaskSpec) -> TaskResult:
        """Execute one task in the calling process, honouring the retry loop."""
        attempt = 1
        while True:
            try:
                fault = self._draw_fault(spec, attempt, allow_kill=False)
                return _execute_faulted_task(spec, fault)
            except BaseException as error:
                attempt = self._after_failure(spec, attempt, error)

    # ------------------------------------------------------- task submission
    # The non-blocking half of the seam: the cluster scheduler dispatches
    # *individual* ready tasks from many concurrent jobs instead of whole
    # phases, so slot-pool sharing happens above the executor while the task
    # functions (and therefore all results) stay exactly the same.

    def submit_task(self, spec: TaskSpec) -> TaskHandle:
        """Submit one task; the default executes it inline (serial semantics).

        The inline handle is complete on return; a raised task exception is
        captured and re-raised by :meth:`TaskHandle.result`, mirroring future
        semantics so callers handle both executors identically.
        """
        try:
            return _InlineTaskHandle(spec, result=self._run_inline(spec))
        except BaseException as error:  # re-raised at result(), like a future
            return _InlineTaskHandle(spec, error=error)

    def wait_any(self, handles: Sequence[TaskHandle]) -> List[TaskHandle]:
        """Block until at least one handle completes; return the complete ones.

        The returned list preserves the order of ``handles`` (submission
        order), so callers that process completions in list order are
        deterministic for any executor.  Inline handles are always complete,
        so the default implementation never blocks.
        """
        return [handle for handle in handles if handle.completed()]

    def run_map_tasks(self, specs: Sequence[MapTaskSpec], slots: int) -> List[TaskResult]:
        """Run one map phase."""
        return self.run_tasks(specs, slots)

    def run_reduce_tasks(self, specs: Sequence[ReduceTaskSpec],
                         slots: int) -> List[TaskResult]:
        """Run one reduce phase."""
        return self.run_tasks(specs, slots)

    def close(self) -> None:
        """Release any resources (worker processes); the executor stays reusable."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SerialExecutor(Executor):
    """Runs every task inline, in task order (the original behaviour).

    Failed attempts retry inline under ``retry_policy``; injected worker
    kills degrade to transient errors (there is no worker to kill).
    """

    name = "serial"

    def __init__(self, retry_policy: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY,
                 fault_injector: Optional[FaultInjector] = None) -> None:
        self.retry_policy = retry_policy
        self.fault_injector = fault_injector

    def run_tasks(self, specs: Sequence[TaskSpec], slots: int) -> List[TaskResult]:
        return [self._run_inline(spec) for spec in specs]


class ParallelExecutor(Executor):
    """Runs tasks in a process pool, bounded by the phase's slot count.

    Args:
        max_workers: worker processes to use; defaults to the machine's CPU
            count.  The effective concurrency of a phase is
            ``min(max_workers, slots, len(specs))``.

    The pool is created lazily on first use and reused across jobs and rounds;
    worker start-up therefore amortises over a whole algorithm run.  The
    ``fork`` start method is preferred (workers inherit the parent's imported
    modules and hash seed); ``spawn`` is used where fork is unavailable.
    """

    name = "parallel"

    def __init__(self, max_workers: Optional[int] = None,
                 retry_policy: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY,
                 fault_injector: Optional[FaultInjector] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise InvalidParameterError(
                f"max_workers must be a positive integer, got {max_workers}"
            )
        self.max_workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        self.retry_policy = retry_policy
        self.fault_injector = fault_injector
        self._pool: Optional[ProcessPoolExecutor] = None
        # Arenas owned by outstanding task handles (never an arena lent by
        # run_tasks, which releases its own); released when each handle
        # reaches a terminal state, and force-released by close() so no
        # shared-memory segment can outlive the executor.
        self._live_arenas: set = set()
        # Pool lineage for crash recovery: the generation counter increments
        # on every rebuild so concurrent holders of a broken pool's futures
        # trigger exactly one rebuild between them.
        self._generation = 0
        self._generation_kill_injected = False
        self._last_break_injected = False

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing as mp

            method = "fork" if "fork" in mp.get_all_start_methods() else None
            context = mp.get_context(method) if method else mp.get_context()
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=context
            )
        return self._pool

    def _ship_spec(self, spec: TaskSpec,
                   arena: ShipmentArena) -> Optional[ShippedTask]:
        """Ship one spec out-of-band, or account the reference path.

        Returns the :class:`ShippedTask` to submit when the spec opted into
        zero-copy shipping, ``None`` when ``zero_copy`` is off and the spec
        travels through the pool's own (copying) pickler.  Either way the
        spec is pickled here first and the shipped bytes are charged to
        ``repro_task_ship_bytes_total{phase,mode}``.

        Raises:
            ExecutorError: the spec does not pickle.  Only this coordinator-
                side pickling diagnoses an unpicklable spec, so an exception
                a task raises in its worker is never mistaken for one,
                whatever its message says.
        """
        phase = _spec_phase(spec)
        metrics = get_telemetry().metrics
        if getattr(spec, "zero_copy", True):
            try:
                shipped = arena.ship(spec)
            except Exception as error:
                raise ExecutorError(_UNPICKLABLE_SPEC_MESSAGE) from error
            if shipped.oob_bytes:
                metrics.inc("repro_task_ship_bytes_total",
                            float(shipped.oob_bytes),
                            phase=phase, mode=SHIP_MODE_OOB)
            metrics.inc("repro_task_ship_bytes_total",
                        float(shipped.inline_bytes),
                        phase=phase, mode=SHIP_MODE_PICKLED)
            return shipped
        try:
            reference_bytes = pickled_task_bytes(spec)
        except Exception as error:
            raise ExecutorError(_UNPICKLABLE_SPEC_MESSAGE) from error
        metrics.inc("repro_task_ship_bytes_total", float(reference_bytes),
                    phase=phase, mode=SHIP_MODE_PICKLED)
        return None

    def _recover_pool(self, generation: int) -> None:
        """Discard a broken pool (once per break) so the next submit rebuilds.

        Idempotent per break: the first caller that saw generation ``g`` die
        advances the lineage; later callers holding futures from the same
        dead pool are no-ops.  Remembers whether the break was caused by an
        injected kill so innocent in-flight tasks can be resubmitted without
        charging their retry budgets.
        """
        if generation != self._generation:
            return
        self._last_break_injected = self._generation_kill_injected
        self._generation_kill_injected = False
        self._generation += 1
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        telemetry = get_telemetry()
        telemetry.metrics.inc("repro_pool_rebuilds_total")
        telemetry.tracer.record("pool.rebuild", kind="faults",
                                generation=self._generation,
                                injected=self._last_break_injected)
        logger.warning("worker pool died; rebuilding (generation %d)",
                       self._generation)

    def run_tasks(self, specs: Sequence[TaskSpec], slots: int) -> List[TaskResult]:
        if len(specs) <= 1:
            # A single task gains nothing from a round-trip through the pool.
            return [self._run_inline(spec) for spec in specs]
        window = max(1, min(self.max_workers, slots))
        results: List[Optional[TaskResult]] = [None] * len(specs)
        # One shipment arena per phase, lent to every handle: a buffer shared
        # by several specs ships once, and retries resubmit the same shipped
        # payload (the segments outlive every attempt).
        arena = ShipmentArena()
        in_flight: Dict[TaskHandle, int] = {}
        submitted = 0
        try:
            while submitted < len(specs) or in_flight:
                while submitted < len(specs) and len(in_flight) < window:
                    handle = _PoolTaskHandle(self, specs[submitted], arena)
                    in_flight[handle] = submitted
                    submitted += 1
                for handle in self.wait_any(list(in_flight)):
                    results[in_flight.pop(handle)] = handle.result()
        except BaseException:
            # A task failed for good (or the caller was interrupted): don't
            # leave the rest of the phase running in the pool behind our back.
            for handle in in_flight:
                handle.cancel()
            wait([handle.future for handle in in_flight])
            raise
        finally:
            # The phase barrier is the end of every shipped buffer's life:
            # results came back through the pool (copies), so unlinking here
            # cannot invalidate anything the caller still holds.
            arena.release()
        return results  # type: ignore[return-value]

    def submit_task(self, spec: TaskSpec) -> TaskHandle:
        """Submit one task to the process pool without waiting for it."""
        return _PoolTaskHandle(self, spec)

    def wait_any(self, handles: Sequence[TaskHandle]) -> List[TaskHandle]:
        # completed() may transparently resubmit a retryable failure, so loop
        # until a handle is *finally* complete (success or permanent failure).
        while True:
            completed = [handle for handle in handles if handle.completed()]
            if completed or not handles:
                return completed
            futures = [handle.future for handle in handles
                       if isinstance(handle, _PoolTaskHandle)]
            if not futures:
                return completed
            wait(futures, return_when=FIRST_COMPLETED)

    def warm_up(self) -> None:
        """Start the worker processes eagerly (useful before timing a run)."""
        pool = self._ensure_pool()
        for future in [pool.submit(os.getpid) for _ in range(self.max_workers)]:
            future.result()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        # Any handle that never reached a terminal transition (an abandoned
        # scheduler handle, say) must not leak its segments past the executor.
        while self._live_arenas:
            self._live_arenas.pop().release()


EXECUTOR_NAMES = ("serial", "parallel")

_SHARED_EXECUTORS: Dict[Tuple[str, Optional[int], float, int], Executor] = {}


def create_executor(name: str, workers: Optional[int] = None,
                    retry_policy: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY,
                    fault_injector: Optional[FaultInjector] = None) -> Executor:
    """Build a fresh executor by name (``"serial"`` or ``"parallel"``)."""
    if name == "serial":
        return SerialExecutor(retry_policy=retry_policy,
                              fault_injector=fault_injector)
    if name == "parallel":
        return ParallelExecutor(max_workers=workers, retry_policy=retry_policy,
                                fault_injector=fault_injector)
    raise InvalidParameterError(
        f"unknown executor {name!r}; expected one of {EXECUTOR_NAMES}"
    )


def shared_executor(name: str, workers: Optional[int] = None,
                    fault_rate: float = 0.0, fault_seed: int = 0) -> Executor:
    """Return a process-wide shared executor for the given configuration.

    Sweeps that run many algorithm instances (the figure drivers, the CLI)
    reuse one pool instead of forking a fresh one per run.  A non-zero
    ``fault_rate`` keys a separate (injected) executor so chaos runs never
    leak synthetic faults into clean runs sharing the process.
    """
    key = (name, workers, fault_rate, fault_seed)
    if key not in _SHARED_EXECUTORS:
        injector = (FaultInjector(rate=fault_rate, seed=fault_seed)
                    if fault_rate > 0.0 else None)
        _SHARED_EXECUTORS[key] = create_executor(name, workers,
                                                 fault_injector=injector)
    return _SHARED_EXECUTORS[key]
