"""The simulated MapReduce execution engine.

:class:`JobRunner` executes a :class:`~repro.mapreduce.job.MapReduceJob`
through a pluggable :class:`~repro.mapreduce.executor.Executor` while
accounting for every record and byte that would have crossed a phase boundary
on a real cluster:

1. **Map** — one map task per input split, built as a self-contained
   :class:`~repro.mapreduce.executor.MapTaskSpec` (the split's records, the
   job's side channels, a private RNG seed and a private state overlay).  The
   record reader charges HDFS bytes read; every ``emit`` charges map-output
   records/bytes.
2. **Combine & spill** — if the job has a combiner it is applied *inside* each
   map task to that mapper's output grouped by key, as Hadoop does on the map
   side (with the simulator's single in-memory buffer this is equivalent to
   per-spill combining for the paper's associative combiners).  Spilled
   records are what actually leaves the machine.
3. **Shuffle** — the shuffle is *sharded*: each map task routes its own
   spilled output to reduce partitions inside the task (charging the paper's
   *communication* metric there), so at the map barrier the runtime only
   concatenates the per-partition streams in task order — no per-pair work
   remains in the parent process.  Sorting happens per-partition inside each
   reduce task (a chunked shuffle) rather than globally, so partitions sort
   concurrently under a parallel executor.
4. **Reduce** — one reduce task per partition.

**Data planes.**  Records move through a round on one of two planes, selected
by the runner's ``data_plane``: the default ``"batch"`` plane reads each split
as one int64 array, lets :class:`~repro.mapreduce.api.BatchMapper` subclasses
consume it in a single vectorised call, charges per-record counters in batched
form and ships uniform emission streams as columnar blocks; the ``"records"``
plane is the record-at-a-time reference implementation (also the automatic
fallback for mappers that are not batch-capable).  The two planes are
bit-identical in coefficients, counters and shuffle accounting — enforced by
``tests/test_batch_plane_equivalence.py``.

**Executors and determinism.**  The default :class:`SerialExecutor` runs tasks
inline in task order; :class:`~repro.mapreduce.executor.ParallelExecutor` runs
them in a process pool honouring the cluster's map/reduce slots.  Both invoke
the same task functions, and the runtime merges per-task
:class:`~repro.mapreduce.counters.Counters` and state writes at each phase
barrier in task order, so parallel runs are bit-identical to serial runs (see
:mod:`repro.mapreduce.executor` for the guarantee and its picklability
requirements).

Side-channel costs (Job Configuration broadcast, Distributed Cache
replication) are also charged, because the paper's H-WTopk uses them for
coordinator-to-mapper communication.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import InvalidParameterError, JobConfigurationError
from repro.mapreduce.cluster import ClusterSpec, paper_cluster
from repro.mapreduce.columnar import ColumnarBlock
from repro.mapreduce.counters import CounterNames, Counters
from repro.mapreduce.executor import (
    DATA_PLANE_NAMES,
    Executor,
    MapTaskSpec,
    ReduceTaskSpec,
    SerialExecutor,
    SplitRecords,
    TaskResult,
)
from repro.mapreduce.hdfs import HDFS, InputSplit
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.serialization import zero_copy_default
from repro.mapreduce.state import StateStore
from repro.telemetry import Telemetry, active_telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.profile import RuntimeProfile

__all__ = ["JobResult", "JobRunner", "RoundExecution"]

logger = logging.getLogger(__name__)

NUM_SPLITS_KEY = "mapred.map.tasks"


@dataclass
class JobResult:
    """Outcome of one simulated MapReduce round.

    Attributes:
        job_name: name of the executed job.
        output: final ``(key, value)`` pairs emitted by all reducers, in
            reducer order then emission order.
        counters: all counters accumulated during the round.
        splits: the input splits the job ran over.
        num_mappers: number of map tasks (== number of splits).
        num_reducers: number of reduce tasks.
        shuffle_bytes: convenience accessor for the paper's communication metric.
    """

    job_name: str
    output: List[Tuple[Any, Any]]
    counters: Counters
    splits: List[InputSplit] = field(default_factory=list)
    num_mappers: int = 0
    num_reducers: int = 1

    @property
    def shuffle_bytes(self) -> float:
        """Bytes shuffled from mappers to reducers during this round."""
        return self.counters.get(CounterNames.SHUFFLE_BYTES)

    @property
    def communication_bytes(self) -> float:
        """Total network traffic of the round: shuffle plus side channels."""
        return (
            self.counters.get(CounterNames.SHUFFLE_BYTES)
            + self.counters.get(CounterNames.DISTRIBUTED_CACHE_BYTES)
            + self.counters.get(CounterNames.JOB_CONFIGURATION_BYTES)
        )

    def output_dict(self) -> Dict[Any, Any]:
        """Return the reducer output as a mapping (last write wins on duplicate keys)."""
        return {key: value for key, value in self.output}


class JobRunner:
    """Executes MapReduce jobs against a simulated HDFS and cluster."""

    def __init__(
        self,
        hdfs: HDFS,
        cluster: Optional[ClusterSpec] = None,
        state_store: Optional[StateStore] = None,
        seed: int = 7,
        executor: Optional[Executor] = None,
        data_plane: str = "batch",
        telemetry: Optional[Telemetry] = None,
        zero_copy: Optional[bool] = None,
    ) -> None:
        if data_plane not in DATA_PLANE_NAMES:
            raise InvalidParameterError(
                f"data_plane must be one of {DATA_PLANE_NAMES}, got {data_plane!r}"
            )
        self._hdfs = hdfs
        self._cluster = cluster if cluster is not None else paper_cluster()
        self._state_store = state_store if state_store is not None else StateStore()
        self._seed = seed
        self._executor = executor if executor is not None else SerialExecutor()
        self._data_plane = data_plane
        self._telemetry = telemetry
        self._zero_copy = (zero_copy_default() if zero_copy is None
                           else bool(zero_copy))
        self._round_counter = 0

    @classmethod
    def from_profile(cls, hdfs: HDFS, profile: "RuntimeProfile",
                     state_store: Optional[StateStore] = None) -> "JobRunner":
        """A runner configured by a :class:`~repro.service.profile.RuntimeProfile`.

        The profile carries the cluster, seed, executor spec, data plane,
        shipping mode and telemetry.  Every build entry point
        (``HistogramAlgorithm.run``, ``run_algorithms``' scheduled batch and
        ``SynopsisService.build_many``) makes its runners here, so runner
        wiring cannot drift between them.  The runner gets a fresh
        :class:`StateStore` unless ``state_store`` is given.
        """
        return cls(
            hdfs,
            cluster=profile.resolved_cluster(),
            state_store=state_store,
            seed=profile.seed,
            executor=profile.build_executor(),
            data_plane=profile.data_plane,
            telemetry=profile.telemetry,
            zero_copy=profile.zero_copy,
        )

    @property
    def hdfs(self) -> HDFS:
        """The simulated file system the runner executes against."""
        return self._hdfs

    @property
    def cluster(self) -> ClusterSpec:
        """The cluster specification used for split sizing and cost modelling."""
        return self._cluster

    @property
    def state_store(self) -> StateStore:
        """The cross-round state store shared by all jobs run by this runner."""
        return self._state_store

    @property
    def executor(self) -> Executor:
        """The task executor phases are dispatched through."""
        return self._executor

    @property
    def data_plane(self) -> str:
        """The data plane records move through (``"batch"`` or ``"records"``)."""
        return self._data_plane

    @property
    def zero_copy(self) -> bool:
        """Whether task specs ship out-of-band (shared memory) to workers.

        ``False`` is the copying reference path.  Like every execution knob,
        this never changes results — only how bytes reach worker processes.
        """
        return self._zero_copy

    @property
    def telemetry(self) -> Telemetry:
        """The telemetry bundle rounds instrument into.

        Resolved at access time: an explicit bundle (usually from
        ``RuntimeProfile.telemetry``) wins, otherwise the process-global
        default — so a CLI session can install telemetry once without
        re-threading every constructor.
        """
        return active_telemetry(self._telemetry)

    @property
    def rounds_started(self) -> int:
        """How many rounds this runner has begun (the implicit round counter).

        Plan executors offset their explicit round numbers by this value, so
        two plans executed back to back on one runner keep drawing fresh
        ``(seed, round, task)`` RNG keys — the same behaviour as the implicit
        counter of repeated :meth:`run` calls.
        """
        return self._round_counter

    # ------------------------------------------------------------------ run
    def run(self, job: MapReduceJob, splits: Optional[List[InputSplit]] = None,
            round_number: Optional[int] = None) -> JobResult:
        """Execute one MapReduce round and return its result.

        The round is decomposed at its phase barriers: :meth:`begin_round`
        builds the map specs, the executor runs each phase, and the
        :class:`RoundExecution` merges results in task order at each barrier.
        The cluster scheduler drives the *same* three steps incrementally, so
        barrier semantics cannot drift between sequential and scheduled
        execution.

        Args:
            job: the job description.
            splits: optional explicit split list; when omitted the splits are
                derived from the input file and the cluster's split size.
                Passing the same list across rounds keeps split ids stable,
                which multi-round algorithms rely on.
            round_number: explicit round number for the per-task RNG seeds;
                when omitted the runner's own round counter advances (the
                sequential behaviour).  Plan executors pass the stage's
                declaration index so scheduled runs seed identically.
        """
        round_execution = self.begin_round(job, splits, round_number=round_number)
        map_results = self._executor.run_map_tasks(
            round_execution.map_specs, slots=self._cluster.total_map_slots
        )
        reduce_specs = round_execution.complete_map_phase(map_results)
        reduce_results = self._executor.run_reduce_tasks(
            reduce_specs, slots=self._cluster.total_reduce_slots
        )
        return round_execution.complete_reduce_phase(reduce_results)

    def begin_round(self, job: MapReduceJob,
                    splits: Optional[List[InputSplit]] = None,
                    round_number: Optional[int] = None) -> "RoundExecution":
        """Open one MapReduce round and return its incremental execution state.

        Charges the side channels, builds the map specs and hands back a
        :class:`RoundExecution` whose barrier methods the caller drives —
        either all at once (:meth:`run`) or task by task (the cluster
        scheduler).
        """
        if splits is None:
            splits = self._hdfs.splits(job.input_path, self._cluster.split_size_bytes)
        if not splits:
            raise JobConfigurationError(f"input {job.input_path!r} produced no splits")
        if round_number is None:
            self._round_counter += 1
            round_number = self._round_counter
        else:
            if round_number < 1:
                raise InvalidParameterError(
                    f"round_number must be >= 1, got {round_number}"
                )
            # Keep the implicit counter monotone so a later implicit round on
            # the same runner cannot reuse an explicit round's seeds.
            self._round_counter = max(self._round_counter, round_number)
        return RoundExecution(self, job, list(splits), round_number)

    # ----------------------------------------------------------- side channels
    def _charge_side_channels(self, job: MapReduceJob, counters: Counters,
                              num_mappers: int) -> None:
        """Charge Job Configuration broadcast and Distributed Cache replication."""
        conf_bytes = job.configuration.serialized_size_bytes(job.serialization)
        # The configuration is shipped to every task (mappers + reducers).
        counters.increment(
            CounterNames.JOB_CONFIGURATION_BYTES,
            conf_bytes * (num_mappers + job.num_reducers),
        )
        cache_bytes = job.distributed_cache.total_size_bytes()
        if cache_bytes:
            # The cache is replicated to every slave during job initialisation.
            counters.increment(
                CounterNames.DISTRIBUTED_CACHE_BYTES,
                cache_bytes * self._cluster.num_workers,
            )

    # ------------------------------------------------------------- task specs
    def _build_map_spec(self, job: MapReduceJob, split: InputSplit,
                        num_splits: int, round_number: int) -> MapTaskSpec:
        records: Optional[SplitRecords] = None
        if job.read_input:
            hdfs_file = self._hdfs.open(job.input_path)
            records = SplitRecords(
                keys=hdfs_file.read(split.start, split.length),
                start=split.start,
                record_size_bytes=hdfs_file.record_size_bytes,
            )
        snapshot = self._state_snapshot("split", split.split_id)
        return MapTaskSpec(
            split=split,
            mapper_class=job.mapper_class,
            configuration=job.configuration,
            distributed_cache=job.distributed_cache,
            serialization=job.serialization,
            input_format=job.input_format_class,
            read_input=job.read_input,
            combiner=job.combiner,
            records=records,
            state_snapshot=snapshot,
            seed_key=(self._seed, round_number, split.split_id),
            num_splits=num_splits,
            partitioner=job.partitioner,
            num_reducers=job.num_reducers,
            data_plane=self._data_plane,
            zero_copy=self._zero_copy,
        )

    def _build_reduce_spec(self, job: MapReduceJob, reducer_id: int,
                           pairs: List[Any], num_splits: int,
                           round_number: int) -> ReduceTaskSpec:
        snapshot = self._state_snapshot("reducer", reducer_id)
        return ReduceTaskSpec(
            reducer_id=reducer_id,
            reducer_class=job.reducer_class,
            configuration=job.configuration,
            distributed_cache=job.distributed_cache,
            serialization=job.serialization,
            pairs=pairs,
            state_snapshot=snapshot,
            seed_key=(self._seed, round_number, 10_000 + reducer_id),
            num_splits=num_splits,
            zero_copy=self._zero_copy,
        )

    def _state_snapshot(self, kind: str, identifier: int) -> Dict[Tuple[str, int], Any]:
        """The state blob one task may read, by reference (empty mapping when absent).

        No copy is made: payloads are immutable and their arrays were frozen
        when saved (see :mod:`repro.mapreduce.state`), so a serial task that
        writes into loaded state raises exactly as a parallel task does.
        """
        if not self._state_store.exists(kind, identifier):
            return {}
        return {(kind, identifier): self._state_store.peek(kind, identifier)}

    # ---------------------------------------------------------- phase barriers
    def _merge_task_results(self, results: List[TaskResult], counters: Counters) -> None:
        """Fold per-task counters, state writes and metric deltas into the job.

        Everything merges **in task order** — including the telemetry deltas,
        which ride the same barrier as the counters so a parallel run's
        registry is filled in the same order as a serial run's.
        """
        registry = self.telemetry.metrics
        for result in results:
            for name, value in result.counters:
                counters.increment(name, value)
            for kind, identifier, payload, size_bytes in result.state_saves:
                self._state_store.save(kind, identifier, payload,
                                       size_bytes=size_bytes)
            self._state_store.bytes_read += result.state_bytes_read
            if result.metrics is not None:
                registry.apply_delta(result.metrics)

    def _shuffle(self, job: MapReduceJob,
                 map_results: List[TaskResult]) -> List[List[Any]]:
        """Concatenate the tasks' pre-routed spill streams, in task order.

        The partition/route work (and the shuffle-byte accounting) already
        happened inside each map task — the sharded shuffle — so the only
        serial work left at the barrier is list concatenation.  On the
        zero-copy plane a partition whose stream is uniformly columnar is
        coalesced into one physically contiguous block
        (:meth:`~repro.mapreduce.columnar.ColumnarBlock.concat`: one
        preallocated output, one gather pass), so the reduce spec ships a
        single out-of-band buffer pair instead of one per mapper; with
        ``zero_copy`` off the per-mapper sub-blocks pass through untouched as
        the reference layout.  Either way the reduce task sees the same pairs
        in the same order — coalescing is invisible to results.
        """
        partitions: List[List[Any]] = [[] for _ in range(job.num_reducers)]
        for result in map_results:
            for reducer_index, items in enumerate(result.partitions or []):
                partitions[reducer_index].extend(items)
        if self._zero_copy:
            for reducer_index, items in enumerate(partitions):
                if (len(items) > 1
                        and all(isinstance(item, ColumnarBlock) for item in items)
                        and len({item.values.dtype for item in items}) == 1
                        and len({item.pair_size_bytes for item in items}) == 1):
                    partitions[reducer_index] = [ColumnarBlock.concat(items)]
        return partitions


class RoundExecution:
    """One MapReduce round, decomposed at its two phase barriers.

    Created by :meth:`JobRunner.begin_round` (which charges the side channels
    and builds the map specs).  The caller runs the map specs however it likes
    — a blocking phase via :meth:`Executor.run_map_tasks`, or task by task
    through the scheduler — and delivers the results **in task order** to
    :meth:`complete_map_phase`, which merges counters/state, shuffles, and
    returns the reduce specs; :meth:`complete_reduce_phase` closes the round.
    Because :meth:`JobRunner.run` and the cluster scheduler both drive this
    one object, the barrier semantics (merge order, state replay, shuffle
    concatenation) are shared by construction.
    """

    def __init__(self, runner: JobRunner, job: MapReduceJob,
                 splits: List[InputSplit], round_number: int) -> None:
        self._runner = runner
        self.job = job
        self.splits = splits
        self.round_number = round_number
        self.counters = Counters()
        job.configuration.set(NUM_SPLITS_KEY, len(splits))
        runner._charge_side_channels(job, self.counters, num_mappers=len(splits))
        self.map_specs: List[MapTaskSpec] = [
            runner._build_map_spec(job, split, len(splits), round_number)
            for split in splits
        ]
        self.reduce_specs: Optional[List[ReduceTaskSpec]] = None
        # Phase wall clocks: the map phase runs from here to the map barrier,
        # the reduce phase from the map barrier to the reduce barrier.
        self._round_started = time.perf_counter()
        self._phase_started = self._round_started
        logger.debug("round %d of job %r: %d map task(s), %d reducer(s)",
                     round_number, job.name, len(splits), job.num_reducers)

    @property
    def num_map_tasks(self) -> int:
        return len(self.map_specs)

    @property
    def num_reduce_tasks(self) -> int:
        return self.job.num_reducers

    def complete_map_phase(self, map_results: List[TaskResult]) -> List[ReduceTaskSpec]:
        """The map barrier: merge results (in task order), shuffle, build reduce specs.

        The reduce specs are built *after* the map results' state saves are
        replayed into the runner's store, so a reducer's state snapshot sees
        everything the round's mappers persisted — exactly as in a sequential
        run.
        """
        now = time.perf_counter()
        self._runner._merge_task_results(map_results, self.counters)
        partitions = self._runner._shuffle(self.job, map_results)
        self.reduce_specs = [
            self._runner._build_reduce_spec(self.job, reducer_id, pairs,
                                            len(self.splits), self.round_number)
            for reducer_id, pairs in enumerate(partitions)
        ]
        self._observe_phase("map", now - self._phase_started,
                            tasks=len(map_results))
        self._phase_started = now
        return self.reduce_specs

    def complete_reduce_phase(self, reduce_results: List[TaskResult]) -> JobResult:
        """The reduce barrier: merge results (in task order) and close the round."""
        now = time.perf_counter()
        self._runner._merge_task_results(reduce_results, self.counters)
        output: List[Tuple[Any, Any]] = []
        for result in reduce_results:
            output.extend((key, value) for key, value, _ in result.pairs)
        result = JobResult(
            job_name=self.job.name,
            output=output,
            counters=self.counters,
            splits=list(self.splits),
            num_mappers=len(self.splits),
            num_reducers=self.job.num_reducers,
        )
        self._observe_phase("reduce", now - self._phase_started,
                            tasks=len(reduce_results))
        telemetry = self._runner.telemetry
        telemetry.metrics.inc("repro_build_rounds_total")
        telemetry.metrics.inc("repro_build_shuffle_bytes_total",
                              result.shuffle_bytes)
        telemetry.tracer.record(
            "round", kind="build", duration_s=now - self._round_started,
            job=self.job.name, round=self.round_number,
            map_tasks=len(self.splits), reduce_tasks=self.job.num_reducers,
            shuffle_bytes=result.shuffle_bytes)
        logger.debug("round %d of job %r done: %.0f shuffle bytes in %.4fs",
                     self.round_number, self.job.name, result.shuffle_bytes,
                     now - self._round_started)
        return result

    def _observe_phase(self, phase: str, duration_s: float, tasks: int) -> None:
        """Record one phase's wall time as a histogram sample and a span."""
        telemetry = self._runner.telemetry
        telemetry.metrics.observe("repro_build_phase_seconds", duration_s,
                                  phase=phase)
        telemetry.tracer.record(
            f"phase:{phase}", kind="build", duration_s=duration_s,
            job=self.job.name, round=self.round_number, tasks=tasks)
