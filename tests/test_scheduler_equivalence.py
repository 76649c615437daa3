"""Determinism suite: scheduled concurrent execution must be bit-identical to
sequential execution.

The cluster scheduler interleaves tasks from many job plans on one shared
map/reduce slot pool.  For every one of the seven algorithms, across both
executors and both data planes, a concurrently scheduled batch must reproduce
the sequential runs exactly: same histogram coefficients, same merged counter
totals, same per-round outputs and shuffle bytes.  Slot starvation (a cluster
with a single map slot and a single reduce slot) and admission throttling
(``max_concurrent_jobs``) must not change a bit either — they only reorder
*when* tasks run, never what they compute or how their results merge.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.algorithms import (
    BasicSampling,
    HWTopk,
    ImprovedSampling,
    SendCoef,
    SendSketch,
    SendV,
    TwoLevelSampling,
)
from repro.errors import SchedulerError
from repro.mapreduce.cluster import ClusterSpec, MachineSpec
from repro.mapreduce.executor import ParallelExecutor, SerialExecutor
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.plan import execute_plan
from repro.mapreduce.runtime import JobRunner
from repro.mapreduce.scheduler import ClusterScheduler
from repro.mapreduce.state import StateStore
from repro.experiments.runner import ExperimentMeasurement, run_algorithms
from repro.service import RuntimeProfile

U = 256
K = 10
EPSILON = 0.02
SEED = 7
INPUT = "/data/input"

# All seven algorithms: the whole suite is admitted as ONE scheduled batch and
# compared against seven sequential runs.
def seven_algorithms():
    return [
        SendV(U, K),
        SendCoef(U, K),
        HWTopk(U, K),
        SendSketch(U, K, bytes_per_level=1024),
        BasicSampling(U, K, epsilon=EPSILON),
        ImprovedSampling(U, K, epsilon=EPSILON),
        TwoLevelSampling(U, K, epsilon=EPSILON),
    ]


@pytest.fixture(scope="module")
def parallel_executor():
    executor = ParallelExecutor(max_workers=4)
    yield executor
    executor.close()


def _executor_for(name, parallel_executor):
    return parallel_executor if name == "parallel" else SerialExecutor()


def _sequential(dataset, cluster, executor, data_plane):
    hdfs = HDFS()
    dataset.to_hdfs(hdfs, INPUT)
    profile = RuntimeProfile(cluster=cluster, seed=SEED, executor=executor,
                             data_plane=data_plane)
    return [algorithm.run(hdfs, INPUT, profile=profile)
            for algorithm in seven_algorithms()]


def _scheduled(dataset, cluster, executor, data_plane,
               max_concurrent_jobs=None):
    hdfs = HDFS()
    dataset.to_hdfs(hdfs, INPUT)
    profile = RuntimeProfile(cluster=cluster, seed=SEED, executor=executor,
                             data_plane=data_plane)
    algorithms = seven_algorithms()
    entries = []
    for algorithm in algorithms:
        runner = JobRunner(hdfs, cluster=cluster, state_store=StateStore(),
                           seed=SEED, executor=executor, data_plane=data_plane)
        entries.append((algorithm.create_plan(INPUT), runner))
    scheduler = ClusterScheduler.for_cluster(
        cluster, executor, max_concurrent_jobs=max_concurrent_jobs)
    outcomes = scheduler.run(entries)
    results = [algorithm.assemble_result(outcome, profile)
               for algorithm, outcome in zip(algorithms, outcomes)]
    return results, scheduler.last_stats


def _assert_batch_identical(sequential, scheduled):
    assert len(sequential) == len(scheduled)
    for expected, actual in zip(sequential, scheduled):
        assert expected.algorithm == actual.algorithm
        # The histogram: same coefficient indices and exactly equal values.
        assert expected.histogram.coefficients == actual.histogram.coefficients
        # Every counter total, exactly (float equality is intentional: phase
        # barriers merge in task order under both execution modes).
        assert expected.counters.as_dict() == actual.counters.as_dict()
        # Per-round results: outputs in the same order, same communication.
        assert expected.num_rounds == actual.num_rounds
        for expected_round, actual_round in zip(expected.rounds, actual.rounds):
            assert expected_round.output == actual_round.output
            assert expected_round.shuffle_bytes == actual_round.shuffle_bytes
            assert expected_round.counters.as_dict() == actual_round.counters.as_dict()
        assert expected.communication_bytes == actual.communication_bytes
        assert expected.simulated_time_s == actual.simulated_time_s


@pytest.mark.parametrize("executor_name", ["serial", "parallel"])
@pytest.mark.parametrize("data_plane", ["batch", "records"])
def test_scheduled_batch_matches_sequential_bit_for_bit(
        executor_name, data_plane, small_dataset, small_cluster,
        parallel_executor):
    """All seven algorithms, interleaved as one batch == seven sequential runs."""
    executor = _executor_for(executor_name, parallel_executor)
    sequential = _sequential(small_dataset, small_cluster, executor, data_plane)
    scheduled, stats = _scheduled(small_dataset, small_cluster, executor,
                                  data_plane)
    _assert_batch_identical(sequential, scheduled)
    # The batch genuinely interleaved: all seven plans were active at once.
    assert stats.jobs == 7
    assert stats.peak_active_jobs == 7
    assert stats.rounds == sum(result.num_rounds for result in sequential)


@pytest.mark.parametrize("slots", [(1, 1), (1, 4), (4, 1)])
def test_slot_starvation_does_not_change_results(slots, small_dataset):
    """A cluster with one map slot and/or one reduce slot schedules every
    task through a single-slot bottleneck — results must not move a bit."""
    map_slots, reduce_slots = slots
    cluster = ClusterSpec(
        machines=[MachineSpec(name="only", map_slots=map_slots,
                              reduce_slots=reduce_slots)],
        split_size_bytes=max(4, small_dataset.size_bytes // 6),
    )
    executor = SerialExecutor()
    sequential = _sequential(small_dataset, cluster, executor, "batch")
    scheduled, stats = _scheduled(small_dataset, cluster, executor, "batch")
    _assert_batch_identical(sequential, scheduled)
    assert stats.peak_map_slots_in_use <= map_slots
    assert stats.peak_reduce_slots_in_use <= reduce_slots


def test_admission_bound_limits_active_jobs(small_dataset, small_cluster):
    sequential = _sequential(small_dataset, small_cluster, SerialExecutor(),
                             "batch")
    scheduled, stats = _scheduled(small_dataset, small_cluster,
                                  SerialExecutor(), "batch",
                                  max_concurrent_jobs=2)
    _assert_batch_identical(sequential, scheduled)
    assert stats.peak_active_jobs <= 2


def test_run_algorithms_concurrent_matches_sequential(small_dataset,
                                                      small_cluster):
    """The harness-level entry point: one scheduled batch, admitting one plan
    at a time or all seven at once, == an ``algorithm.run`` loop, for the
    full seven-algorithm suite."""
    reference = small_dataset.frequency_vector()
    profile = RuntimeProfile(cluster=small_cluster, seed=SEED)
    hdfs = HDFS(datanodes=[machine.name for machine in small_cluster.machines])
    small_dataset.to_hdfs(hdfs, INPUT)
    sequential = [
        ExperimentMeasurement.from_result(
            algorithm.run(hdfs, INPUT, profile=profile), reference)
        for algorithm in seven_algorithms()
    ]
    for concurrent_jobs in (1, 7):
        scheduled = run_algorithms(
            small_dataset, seven_algorithms(), reference=reference,
            profile=profile.with_overrides(concurrent_jobs=concurrent_jobs))
        assert len(sequential) == len(scheduled)
        for expected, actual in zip(sequential, scheduled):
            assert expected.algorithm == actual.algorithm
            assert expected.communication_bytes == actual.communication_bytes
            assert expected.simulated_time_s == actual.simulated_time_s
            assert expected.sse == actual.sse
            assert expected.num_rounds == actual.num_rounds
            assert (f"peak-active-jobs={concurrent_jobs} "
                    in actual.details["scheduler_stats"])


def test_profile_concurrent_jobs_drives_the_batch(small_dataset, small_cluster):
    """concurrent_jobs on the profile (e.g. from --profile parsing) is enough."""
    reference = small_dataset.frequency_vector()
    base = RuntimeProfile(cluster=small_cluster, seed=SEED)
    sequential = run_algorithms(small_dataset, [SendV(U, K), HWTopk(U, K)],
                                reference=reference, profile=base)
    concurrent = run_algorithms(small_dataset, [SendV(U, K), HWTopk(U, K)],
                                reference=reference,
                                profile=base.with_overrides(concurrent_jobs=2))
    for expected, actual in zip(sequential, concurrent):
        assert expected.communication_bytes == actual.communication_bytes
        assert expected.sse == actual.sse
        assert "peak-active-jobs=1 " in expected.details["scheduler_stats"]
        assert "peak-active-jobs=2 " in actual.details["scheduler_stats"]


class _RoundTrackingRunner(JobRunner):
    """A runner that records, whenever a stage begins, which of the objects
    in ``round_refs`` (weak references to its earlier rounds) are alive."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.round_refs = []
        self.alive_at_begin = []

    def begin_round(self, job, splits=None, round_number=None):
        gc.collect()
        self.alive_at_begin.append([ref() is not None for ref in self.round_refs])
        round_execution = super().begin_round(job, splits,
                                              round_number=round_number)
        self.round_refs.append(weakref.ref(round_execution))
        return round_execution


@pytest.mark.parametrize("path", ["execute_plan", "scheduler"])
def test_finished_rounds_are_released_before_the_next_stage(path, small_dataset,
                                                            small_cluster):
    """A finished stage's round (its specs and shuffle) is dropped at its
    reduce barrier on both paths, so a batch never holds earlier rounds."""
    hdfs = HDFS()
    small_dataset.to_hdfs(hdfs, INPUT)
    runner = _RoundTrackingRunner(hdfs, cluster=small_cluster,
                                  state_store=StateStore(), seed=SEED)
    plan = HWTopk(U, K).create_plan(INPUT)
    if path == "execute_plan":
        execute_plan(plan, runner)
    else:
        ClusterScheduler.for_cluster(small_cluster, SerialExecutor()).run(
            [(plan, runner)])
    assert runner.alive_at_begin == [[], [False], [False, False]]


def test_a_finished_plan_releases_its_runner(small_dataset, small_cluster):
    """A finished plan's runner, with the state store its rounds filled, is
    freed when the plan finishes, not when the batch ends."""
    hdfs = HDFS()
    small_dataset.to_hdfs(hdfs, INPUT)
    second = _RoundTrackingRunner(hdfs, cluster=small_cluster,
                                  state_store=StateStore(), seed=SEED)

    def entries():
        first = JobRunner(hdfs, cluster=small_cluster,
                          state_store=StateStore(), seed=SEED)
        # Watched by the second runner, as if it were one of its rounds.
        second.round_refs.append(weakref.ref(first))
        yield HWTopk(U, K).create_plan(INPUT), first
        del first
        yield SendV(U, K).create_plan(INPUT), second

    ClusterScheduler.for_cluster(small_cluster, SerialExecutor(),
                                 max_concurrent_jobs=1).run(entries())
    # Send-V's only round began after H-WTopk had finished.
    assert second.alive_at_begin == [[False]]


def test_scheduler_rejects_shared_runners(small_dataset, small_cluster):
    hdfs = HDFS()
    small_dataset.to_hdfs(hdfs, INPUT)
    runner = JobRunner(hdfs, cluster=small_cluster, state_store=StateStore())
    entries = [(SendV(U, K).create_plan(INPUT), runner),
               (SendCoef(U, K).create_plan(INPUT), runner)]
    scheduler = ClusterScheduler.for_cluster(small_cluster, SerialExecutor())
    with pytest.raises(SchedulerError, match="own JobRunner"):
        scheduler.run(entries)


def test_scheduler_empty_batch_is_a_noop(small_cluster):
    scheduler = ClusterScheduler.for_cluster(small_cluster, SerialExecutor())
    assert scheduler.run([]) == []
    assert scheduler.last_stats.jobs == 0


def test_task_failures_propagate_and_cancel(small_dataset, small_cluster,
                                            parallel_executor):
    """A failing job in the batch propagates its error; the executor survives."""
    from repro.errors import ReproError

    hdfs = HDFS()
    small_dataset.to_hdfs(hdfs, INPUT)
    # Domain 16 is smaller than the dataset's keys: mappers raise.
    bad = SendV(4, 2)
    entries = []
    for algorithm in (SendV(U, K), bad):
        runner = JobRunner(hdfs, cluster=small_cluster, state_store=StateStore(),
                           seed=SEED, executor=parallel_executor)
        entries.append((algorithm.create_plan(INPUT), runner))
    scheduler = ClusterScheduler.for_cluster(small_cluster, parallel_executor)
    with pytest.raises(ReproError):
        scheduler.run(entries)
    # The pool is still usable afterwards.
    assert parallel_executor.run_tasks([], slots=2) == []
