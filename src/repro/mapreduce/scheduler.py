"""The cluster scheduler: many job plans sharing one map/reduce slot pool.

The paper's experiments run on a shared Hadoop cluster where concurrent jobs
compete for the same task slots.  :class:`ClusterScheduler` reproduces that
regime for the simulated runtime: it admits many :class:`~repro.mapreduce.plan.JobPlan`
objects at once and dispatches *individual ready tasks* — from all admitted
plans — onto a shared pool of ``map_slots`` / ``reduce_slots`` through the
executor's non-blocking :meth:`~repro.mapreduce.executor.Executor.submit_task`
seam.  One job's single-reducer barrier no longer idles the cluster: while
job A reduces on one slot, jobs B and C map on the rest.

**Determinism.**  Scheduling changes *when* a task runs, never what it
computes or how it merges:

* every task is still the same pure function of its spec (private RNG seeded
  by ``(job seed, round, task id)``, private state overlay);
* stage *n* of a plan always runs as round ``n + 1`` of that plan's own
  :class:`~repro.mapreduce.runtime.JobRunner` (own seed, own state store), so
  seeds and state addressing match a sequential run exactly;
* each stage's barriers — :meth:`RoundExecution.complete_map_phase` /
  :meth:`complete_reduce_phase`, the *same* code the sequential path runs —
  merge results in task order, whatever order tasks finished in.

A concurrent run of N plans is therefore bit-identical (coefficients, counter
totals, shuffle bytes, outputs) to N sequential runs, for any executor, data
plane or slot count — enforced by ``tests/test_scheduler_equivalence.py``.

Dispatch order is deterministic too (admission order, then stage order, then
task id, FIFO per slot kind), so scheduling traces are reproducible, though no
result depends on them.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import InvalidParameterError, SchedulerError, TaskPermanentError
from repro.mapreduce.cluster import ClusterSpec
from repro.mapreduce.executor import Executor, TaskHandle
from repro.mapreduce.plan import JobPlan, PlanContext
from repro.mapreduce.runtime import JobRunner, RoundExecution, TaskResult
from repro.telemetry import Telemetry, active_telemetry

__all__ = ["ClusterScheduler", "SchedulerStats"]

logger = logging.getLogger(__name__)

MAP_PHASE = "map"
REDUCE_PHASE = "reduce"

# The slot-occupancy timeline is bounded so a huge batch cannot balloon the
# stats object; occupancy changes past the cap are simply not sampled.
_TIMELINE_LIMIT = 4096


@dataclass
class SchedulerStats:
    """What one :meth:`ClusterScheduler.run` call did (wall-clock-free).

    Attributes:
        jobs: plans executed.
        rounds: MapReduce rounds completed across all plans.
        map_tasks: map tasks dispatched.
        reduce_tasks: reduce tasks dispatched.
        peak_active_jobs: most plans simultaneously admitted.
        peak_map_slots_in_use: most map slots simultaneously occupied.
        peak_reduce_slots_in_use: most reduce slots simultaneously occupied.
        failed_jobs: plans that failed permanently (retries exhausted) and
            were isolated from the rest of the batch.
        job_errors: admission index -> error message, one entry per failed
            plan; sibling plans' outcomes are unaffected.
        slot_timeline: slot-occupancy samples ``(seconds since run start,
            map slots in use, reduce slots in use)``, one per occupancy
            change (dispatch or completion), capped at 4096 entries.  The
            one wall-clock-bearing field — everything else is clock-free.
    """

    jobs: int = 0
    rounds: int = 0
    map_tasks: int = 0
    reduce_tasks: int = 0
    peak_active_jobs: int = 0
    peak_map_slots_in_use: int = 0
    peak_reduce_slots_in_use: int = 0
    failed_jobs: int = 0
    job_errors: Dict[int, str] = field(default_factory=dict)
    slot_timeline: List[Tuple[float, int, int]] = field(default_factory=list)

    def describe(self) -> str:
        """One line for CLI reports: jobs, rounds, tasks and peak occupancy."""
        line = (f"jobs={self.jobs} rounds={self.rounds} "
                f"map-tasks={self.map_tasks} reduce-tasks={self.reduce_tasks} "
                f"peak-active-jobs={self.peak_active_jobs} "
                f"peak-slots={self.peak_map_slots_in_use}m/"
                f"{self.peak_reduce_slots_in_use}r")
        if self.failed_jobs:
            line += f" failed-jobs={self.failed_jobs}"
        return line


@dataclass
class _Task:
    """One schedulable unit: a map or reduce task of one stage of one plan."""

    job_index: int
    stage_index: int
    phase: str
    task_index: int
    spec: object
    # When the task entered its ready queue (perf_counter), for the
    # queue-wait histogram; observability only, never consulted for order.
    enqueued_s: float = 0.0


def _take(ready: List[_Task], count: int) -> List[_Task]:
    """Remove and return up to ``count`` tasks from the front of a FIFO queue."""
    taken = ready[:count]
    del ready[:count]
    return taken


class _JobState:
    """Per-plan bookkeeping: the DAG's frontier plus per-stage phase progress."""

    def __init__(self, index: int, plan: JobPlan, runner: JobRunner) -> None:
        self.index = index
        self.plan = plan
        self.runner: Optional[JobRunner] = runner
        # Offset explicit round numbers past any rounds the runner already
        # ran, exactly as execute_plan does, so RNG keys stay disjoint even
        # on a pre-used runner.
        self.round_base = runner.rounds_started
        self.context: PlanContext = plan.context(runner.hdfs, runner.cluster)
        # Running stages only: a stage's round and results are dropped at the
        # barrier that consumes them, so a batch never holds finished shuffles.
        self.rounds: Dict[int, RoundExecution] = {}
        self.started: set = set()
        self.finished_stages: set = set()
        # (stage_index, phase) -> {task_index: TaskResult}
        self.phase_results: Dict[Tuple[int, str], Dict[int, TaskResult]] = {}
        self.outcome = None
        self.done = False
        self.error: Optional[BaseException] = None

    def ready_stages(self) -> List[int]:
        """Unstarted stages whose dependencies have all completed, in order."""
        return [
            index
            for index in range(len(self.plan.stages))
            if index not in self.started
            and self.plan.stage_ready(index, self.context)
        ]


class ClusterScheduler:
    """Executes many job plans concurrently on a shared task-slot pool.

    Args:
        executor: the task-execution seam every dispatched task goes through
            (serial: tasks run inline at dispatch, which still interleaves
            jobs deterministically; parallel: tasks overlap for real).
        map_slots: cluster-wide concurrent map tasks (all jobs together).
        reduce_slots: cluster-wide concurrent reduce tasks.
        max_concurrent_jobs: admission bound — at most this many plans are
            active at once; further plans queue and are admitted in order as
            earlier ones finish.  ``None`` admits everything immediately.
    """

    def __init__(self, executor: Executor, map_slots: int, reduce_slots: int,
                 max_concurrent_jobs: Optional[int] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        if map_slots < 1 or reduce_slots < 1:
            raise InvalidParameterError(
                f"map_slots and reduce_slots must be >= 1, got "
                f"{map_slots}/{reduce_slots}"
            )
        if max_concurrent_jobs is not None and max_concurrent_jobs < 1:
            raise InvalidParameterError(
                f"max_concurrent_jobs must be >= 1 or None, got {max_concurrent_jobs}"
            )
        self.executor = executor
        self.map_slots = map_slots
        self.reduce_slots = reduce_slots
        self.max_concurrent_jobs = max_concurrent_jobs
        self._telemetry = telemetry
        self.last_stats = SchedulerStats()

    @classmethod
    def for_cluster(cls, cluster: ClusterSpec, executor: Executor,
                    max_concurrent_jobs: Optional[int] = None,
                    telemetry: Optional[Telemetry] = None) -> "ClusterScheduler":
        """A scheduler whose slot pool is the cluster's total map/reduce slots."""
        return cls(
            executor,
            map_slots=cluster.total_map_slots,
            reduce_slots=cluster.total_reduce_slots,
            max_concurrent_jobs=max_concurrent_jobs,
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------- run
    def run(self, entries: Iterable[Tuple[JobPlan, JobRunner]]) -> List:
        """Execute every ``(plan, runner)`` entry; outcomes in admission order.

        Each plan must come with its *own* runner (own state store and round
        numbering) — sharing a runner between plans would entangle their
        state and seeds.  A plan's runner is dropped as soon as the plan
        finishes, so a caller that passes ``entries`` as an iterator (and
        keeps no runner itself) frees each finished plan's state store before
        the batch ends.  Returns each plan's ``finish`` result
        (:class:`~repro.algorithms.base.ExecutionOutcome` for algorithm
        plans), in the order the entries were given.

        **Failure isolation.**  A plan whose task fails permanently
        (:class:`~repro.errors.TaskPermanentError`, i.e. retries exhausted)
        is cancelled and recorded in ``last_stats.job_errors``; its outcome
        slot holds ``None``.  Sibling plans keep their slots and run to
        completion with bit-identical results — their tasks, seeds and
        barriers never observe the failure.
        """
        jobs = [_JobState(index, plan, runner)
                for index, (plan, runner) in enumerate(entries)]
        if len({id(job.runner) for job in jobs}) != len(jobs):
            raise SchedulerError("every plan needs its own JobRunner instance")
        stats = SchedulerStats(jobs=len(jobs))
        self.last_stats = stats
        if not jobs:
            return []
        telemetry = active_telemetry(self._telemetry)
        run_started = time.perf_counter()
        logger.debug("scheduling %d plan(s) on %d map / %d reduce slot(s)",
                     len(jobs), self.map_slots, self.reduce_slots)

        admitted = 0
        active: List[int] = []
        map_ready: List[_Task] = []
        reduce_ready: List[_Task] = []
        inflight: Dict[TaskHandle, _Task] = {}
        map_in_use = 0
        reduce_in_use = 0
        remaining = len(jobs)

        def sample_occupancy() -> None:
            # One timeline point per occupancy change, capped; purely an
            # observability artefact, never consulted by the dispatch logic.
            if len(stats.slot_timeline) < _TIMELINE_LIMIT:
                stats.slot_timeline.append(
                    (time.perf_counter() - run_started, map_in_use, reduce_in_use))

        def observe_dispatch(task: _Task) -> None:
            telemetry.metrics.observe(
                "repro_scheduler_queue_wait_seconds",
                time.perf_counter() - task.enqueued_s, phase=task.phase)

        def admit_and_start() -> None:
            # Admission (in entry order), then DAG advancement: build every
            # ready stage of every active plan and enqueue its map tasks.
            nonlocal admitted
            while admitted < len(jobs) and (self.max_concurrent_jobs is None
                                            or len(active) < self.max_concurrent_jobs):
                active.append(admitted)
                admitted += 1
                stats.peak_active_jobs = max(stats.peak_active_jobs, len(active))
            for job_index in list(active):
                job = jobs[job_index]
                for stage_index in job.ready_stages():
                    self._start_stage(job, stage_index, map_ready)

        def finish_job_if_done(job: _JobState) -> None:
            nonlocal remaining
            if job.done or len(job.finished_stages) != len(job.plan.stages):
                return
            job.outcome = job.plan.finish(job.context)
            # The outcome is all that outlives a plan: drop its runner, and
            # with it the state store its rounds filled.
            job.runner = None
            job.done = True
            remaining -= 1
            active.remove(job.index)

        def fail_job(job: _JobState, error: BaseException) -> None:
            # Isolate one plan's permanent failure: strip its queued tasks,
            # cancel what it has in flight, record the error, and let every
            # sibling plan keep running untouched.
            nonlocal remaining, map_in_use, reduce_in_use
            job.error = error
            job.done = True
            remaining -= 1
            if job.index in active:
                active.remove(job.index)
            stats.failed_jobs += 1
            stats.job_errors[job.index] = str(error)
            for queue in (map_ready, reduce_ready):
                queue[:] = [t for t in queue if t.job_index != job.index]
            for handle, task in list(inflight.items()):
                if task.job_index == job.index and handle.cancel():
                    del inflight[handle]
                    if task.phase == MAP_PHASE:
                        map_in_use -= 1
                    else:
                        reduce_in_use -= 1
                    sample_occupancy()
            telemetry.metrics.inc("repro_scheduler_job_failures_total")
            telemetry.tracer.record("scheduler.job_failed", kind="faults",
                                    job=job.plan.name, error=str(error))
            logger.warning(
                "plan %r failed permanently; cancelling its remaining tasks "
                "and continuing the batch: %s", job.plan.name, error)

        try:
            while remaining:
                admit_and_start()
                # Fill free slots in FIFO order, one queue per slot kind.
                for task in _take(map_ready, self.map_slots - map_in_use):
                    observe_dispatch(task)
                    inflight[self.executor.submit_task(task.spec)] = task
                    map_in_use += 1
                    stats.map_tasks += 1
                    stats.peak_map_slots_in_use = max(
                        stats.peak_map_slots_in_use, map_in_use)
                    sample_occupancy()
                for task in _take(reduce_ready, self.reduce_slots - reduce_in_use):
                    observe_dispatch(task)
                    inflight[self.executor.submit_task(task.spec)] = task
                    reduce_in_use += 1
                    stats.reduce_tasks += 1
                    stats.peak_reduce_slots_in_use = max(
                        stats.peak_reduce_slots_in_use, reduce_in_use)
                    sample_occupancy()
                if not inflight:
                    if remaining:
                        names = ", ".join(jobs[i].plan.name for i in active)
                        raise SchedulerError(
                            "scheduler stalled with unfinished plans: "
                            f"{names or '(none active)'}"
                        )
                    break
                completed = self.executor.wait_any(list(inflight))
                if not completed:
                    raise SchedulerError("executor wait returned no completed tasks")
                for handle in completed:
                    task = inflight.pop(handle)
                    if task.phase == MAP_PHASE:
                        map_in_use -= 1
                    else:
                        reduce_in_use -= 1
                    sample_occupancy()
                    job = jobs[task.job_index]
                    if job.error is not None:
                        # A straggler of an already-failed plan: its slot is
                        # released above, its result is discarded unread.
                        continue
                    try:
                        result = handle.result()
                    except TaskPermanentError as error:
                        fail_job(job, error)
                        continue
                    self._record_task(job, task, result, reduce_ready, stats)
                    finish_job_if_done(job)
        except BaseException:
            # Don't leave the rest of the batch running behind our back:
            # cancel what never started and drain what is already running.
            for handle in inflight:
                handle.cancel()
            pending = [handle for handle in inflight if not handle.completed()]
            while pending:
                self.executor.wait_any(pending)
                pending = [handle for handle in pending if not handle.completed()]
            raise
        telemetry.tracer.record(
            "scheduler.run", kind="scheduler",
            duration_s=time.perf_counter() - run_started,
            jobs=stats.jobs, rounds=stats.rounds,
            map_tasks=stats.map_tasks, reduce_tasks=stats.reduce_tasks,
            peak_active_jobs=stats.peak_active_jobs,
            peak_map_slots_in_use=stats.peak_map_slots_in_use,
            peak_reduce_slots_in_use=stats.peak_reduce_slots_in_use)
        logger.debug("scheduler batch done: %s", stats.describe())
        return [job.outcome for job in jobs]

    # ------------------------------------------------------------- internals
    def _start_stage(self, job: _JobState, stage_index: int,
                     map_ready: List[_Task]) -> None:
        """Build a ready stage's round and enqueue its map tasks."""
        job.started.add(stage_index)
        stage = job.plan.stages[stage_index]
        mapreduce_job = stage.build(job.context)
        round_execution = job.runner.begin_round(
            mapreduce_job, splits=job.context.splits,
            round_number=job.round_base + stage_index + 1,
        )
        job.rounds[stage_index] = round_execution
        job.phase_results[(stage_index, MAP_PHASE)] = {}
        enqueued = time.perf_counter()
        for task_index, spec in enumerate(round_execution.map_specs):
            map_ready.append(_Task(job.index, stage_index, MAP_PHASE,
                                   task_index, spec, enqueued_s=enqueued))

    def _record_task(self, job: _JobState, task: _Task, result: TaskResult,
                     reduce_ready: List[_Task], stats: SchedulerStats) -> None:
        """Record one task result; cross a phase barrier when its phase is full."""
        round_execution = job.rounds[task.stage_index]
        phase = job.phase_results[(task.stage_index, task.phase)]
        phase[task.task_index] = result
        if task.phase == MAP_PHASE:
            if len(phase) == round_execution.num_map_tasks:
                # The map barrier consumes the map results; drop them with it.
                del job.phase_results[(task.stage_index, MAP_PHASE)]
                ordered = [phase[i] for i in range(round_execution.num_map_tasks)]
                reduce_specs = round_execution.complete_map_phase(ordered)
                job.phase_results[(task.stage_index, REDUCE_PHASE)] = {}
                enqueued = time.perf_counter()
                for task_index, spec in enumerate(reduce_specs):
                    reduce_ready.append(_Task(job.index, task.stage_index,
                                              REDUCE_PHASE, task_index, spec,
                                              enqueued_s=enqueued))
                if not reduce_specs:
                    # Map-only round: with zero reduce specs there is no
                    # reduce-task completion to cross the reduce barrier, so
                    # cross it eagerly here — exactly what the sequential
                    # runner does when it calls complete_reduce_phase([]).
                    self._finish_stage(job, task.stage_index, [], stats)
        else:
            if len(phase) == round_execution.num_reduce_tasks:
                ordered = [phase[i] for i in range(round_execution.num_reduce_tasks)]
                self._finish_stage(job, task.stage_index, ordered, stats)

    def _finish_stage(self, job: _JobState, stage_index: int,
                      ordered: List[TaskResult], stats: SchedulerStats) -> None:
        """Cross a stage's reduce barrier: merge, record the result, count the round.

        The stage's round (its specs) and reduce results are dropped here;
        only the :class:`JobResult` recorded in the plan context outlives it.
        """
        round_execution = job.rounds.pop(stage_index)
        job.phase_results.pop((stage_index, REDUCE_PHASE), None)
        job_result = round_execution.complete_reduce_phase(ordered)
        stage = job.plan.stages[stage_index]
        job.context.record(stage.name, job_result)
        job.finished_stages.add(stage_index)
        stats.rounds += 1
