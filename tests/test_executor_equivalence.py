"""Determinism suite: the parallel executor must be bit-identical to serial.

For every one of the seven algorithms, running on ``small_dataset`` with a
fixed seed, the parallel executor must reproduce the serial executor exactly:
same histogram coefficients, same merged counter totals, same per-round
outputs and shuffle bytes.  This is the guarantee that makes the parallel
engine safe to use for every figure and benchmark — any scheduling- or
merge-order-dependence in the runtime shows up here as a float or ordering
diff.
"""

from __future__ import annotations

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
from repro.mapreduce.api import Mapper, Reducer
from repro.mapreduce.cluster import ClusterSpec, MachineSpec, paper_cluster
from repro.mapreduce.executor import (
    ParallelExecutor,
    SerialExecutor,
    create_executor,
    shared_executor,
)
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.plan import JobPlan, PlanStage
from repro.mapreduce.runtime import JobRunner
from repro.mapreduce.scheduler import ClusterScheduler
from repro.service import RuntimeProfile

U = 256
K = 10
EPSILON = 0.02
SEED = 7

ALGORITHM_FACTORIES = {
    "Send-V": lambda: SendV(U, K),
    "Send-V+combine": lambda: SendV(U, K, use_combiner=True),
    "Send-Coef": lambda: SendCoef(U, K),
    "H-WTopk": lambda: HWTopk(U, K),
    "Send-Sketch": lambda: SendSketch(U, K, bytes_per_level=1024),
    "Basic-S": lambda: BasicSampling(U, K, epsilon=EPSILON),
    "Improved-S": lambda: ImprovedSampling(U, K, epsilon=EPSILON),
    "TwoLevel-S": lambda: TwoLevelSampling(U, K, epsilon=EPSILON),
}


@pytest.fixture(scope="module")
def parallel_executor():
    """One process pool shared by the whole module (start-up amortised)."""
    executor = ParallelExecutor(max_workers=4)
    yield executor
    executor.close()


def _run_job(runner, job):
    return runner.run(job)


def _schedule_job(runner, job):
    """Run one job as a one-stage plan, alone in a scheduler batch."""
    plan = JobPlan(name=job.name, input_path=job.input_path,
                   stages=(PlanStage("only", lambda context: job),),
                   finish=lambda context: context.result("only"))
    scheduler = ClusterScheduler.for_cluster(runner.cluster, runner.executor)
    return scheduler.run([(plan, runner)])[0]


# The two ways a job's tasks reach an executor: a whole phase at a time
# (run_tasks) or task by task (submit_task / wait_any).
JOB_PATHS = {"runner.run": _run_job, "scheduler": _schedule_job}


class _GeneratorErrorMapper(Mapper):
    """Fails with a message that looks like a pickling error but is not one."""

    def map(self, record, context):
        raise TypeError("cannot pickle 'generator' object")


class _SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, sum(values))


def _run(algorithm_factory, dataset, cluster, executor):
    hdfs = HDFS(datanodes=[machine.name for machine in cluster.machines])
    dataset.to_hdfs(hdfs, "/data/input")
    profile = RuntimeProfile(cluster=cluster, seed=SEED, executor=executor)
    return algorithm_factory().run(hdfs, "/data/input", profile=profile)


@pytest.mark.parametrize("name", sorted(ALGORITHM_FACTORIES))
def test_parallel_matches_serial_bit_for_bit(name, small_dataset, small_cluster,
                                             parallel_executor):
    factory = ALGORITHM_FACTORIES[name]
    serial = _run(factory, small_dataset, small_cluster, SerialExecutor())
    parallel = _run(factory, small_dataset, small_cluster, parallel_executor)

    # The histogram: same coefficient indices and exactly equal values.
    assert serial.histogram.coefficients == parallel.histogram.coefficients

    # Every counter total, exactly (float equality is intentional: the merge
    # order at phase barriers is pinned to task order in both executors).
    assert serial.counters.as_dict() == parallel.counters.as_dict()

    # Per-round results: outputs in the same order, same communication.
    assert serial.num_rounds == parallel.num_rounds
    for serial_round, parallel_round in zip(serial.rounds, parallel.rounds):
        assert serial_round.output == parallel_round.output
        assert serial_round.shuffle_bytes == parallel_round.shuffle_bytes
        assert serial_round.counters.as_dict() == parallel_round.counters.as_dict()

    assert serial.communication_bytes == parallel.communication_bytes
    assert serial.simulated_time_s == parallel.simulated_time_s


def test_parallel_executor_bounded_by_slots(small_dataset, parallel_executor):
    """A cluster with one map slot still executes correctly (window of 1)."""
    one_slot = ClusterSpec(
        machines=[MachineSpec(name="only", map_slots=1, reduce_slots=1)],
        split_size_bytes=max(4, small_dataset.size_bytes // 4),
    )
    serial = _run(ALGORITHM_FACTORIES["Send-V"], small_dataset, one_slot,
                  SerialExecutor())
    parallel = _run(ALGORITHM_FACTORIES["Send-V"], small_dataset, one_slot,
                    parallel_executor)
    assert serial.histogram.coefficients == parallel.histogram.coefficients
    assert serial.counters.as_dict() == parallel.counters.as_dict()


def test_unpicklable_job_code_raises_executor_error(parallel_executor):
    """Local classes and lambda partitioners fail with a diagnosis, not a raw
    pickling traceback, whether the job runs by phase or through the
    scheduler, and the pool stays usable afterwards."""
    import numpy as np

    from repro.algorithms.base import CONF_DOMAIN, CONF_K
    from repro.algorithms.send_v import SendVMapper, SendVReducer
    from repro.errors import ExecutorError
    from repro.mapreduce.job import JobConfiguration

    class LocalMapper(Mapper):
        def map(self, record, context):
            context.emit(record, 1)

    class LocalReducer(Reducer):
        def reduce(self, key, values, context):
            context.emit(key, sum(values))

    hdfs = HDFS()
    hdfs.create_file("/input", np.arange(1, 2001))
    hdfs2 = HDFS()
    hdfs2.create_file("/input", np.arange(1, 2001) % 200 + 1)
    for run_job in JOB_PATHS.values():
        runner = JobRunner(hdfs, cluster=paper_cluster(split_size_bytes=1000),
                           executor=parallel_executor)
        with pytest.raises(ExecutorError, match="partitioner"):
            run_job(runner, MapReduceJob(name="bad", input_path="/input",
                                         mapper_class=LocalMapper,
                                         reducer_class=LocalReducer))

        # The sharded shuffle ships the partitioner to workers: a lambda
        # partitioner on an otherwise-picklable job fails the same way.
        runner2 = JobRunner(hdfs2, cluster=paper_cluster(split_size_bytes=1000),
                            executor=parallel_executor)
        with pytest.raises(ExecutorError):
            run_job(runner2, MapReduceJob(
                name="bad-partitioner", input_path="/input",
                mapper_class=SendVMapper, reducer_class=SendVReducer,
                partitioner=lambda key, r: key % r,
                configuration=JobConfiguration({CONF_DOMAIN: 256, CONF_K: 5}),
            ))

        # The executor survives both failures.
        assert len(parallel_executor.run_tasks([], slots=4)) == 0


def _assert_task_error_reaches_the_caller(path, executor):
    import numpy as np

    hdfs = HDFS()
    hdfs.create_file("/input", np.arange(1, 2001))
    runner = JobRunner(hdfs, cluster=paper_cluster(split_size_bytes=1000),
                       executor=executor)
    with pytest.raises(TypeError, match="cannot pickle 'generator' object"):
        JOB_PATHS[path](runner, MapReduceJob(
            name="raises", input_path="/input",
            mapper_class=_GeneratorErrorMapper, reducer_class=_SumReducer))


@pytest.mark.parametrize("path", sorted(JOB_PATHS))
def test_serial_task_error_reaches_the_caller_unchanged(path):
    """Nothing is pickled on the serial executor, so a task's own TypeError
    is never diagnosed as an unpicklable spec, on either path."""
    _assert_task_error_reaches_the_caller(path, SerialExecutor())


@pytest.mark.parametrize("path", sorted(JOB_PATHS))
def test_parallel_task_error_reaches_the_caller_unchanged(path, parallel_executor):
    """The spec pickles, so a worker's own TypeError — whatever its message
    says about pickling — reaches the caller as itself, not as an
    unpicklable-spec diagnosis, on either path."""
    _assert_task_error_reaches_the_caller(path, parallel_executor)


def test_create_executor_names():
    assert create_executor("serial").name == "serial"
    parallel = create_executor("parallel", workers=2)
    assert parallel.name == "parallel" and parallel.max_workers == 2
    parallel.close()
    with pytest.raises(Exception):
        create_executor("threaded")


def test_shared_executor_is_cached():
    first = shared_executor("serial")
    assert shared_executor("serial") is first
    assert shared_executor("serial", None) is first
