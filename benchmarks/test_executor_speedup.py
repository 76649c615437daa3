"""Executor speedup benchmark at the Figure-10 anchor workload.

Runs Send-V and H-WTopk over the fig10-scale default dataset (n = 640k,
u = 2^15, 64 splits) with the serial executor and with the process-parallel
executor, and reports the wall-clock speedup.  Two assertions:

* the parallel results are bit-identical to serial (always enforced);
* parallel is >= 2x faster than serial — wall-clock is load- and
  machine-dependent, so this assertion is opt-in: set
  ``REPRO_ASSERT_SPEEDUP=1`` (as a dedicated perf gate does) on a machine with
  at least 4 idle CPUs.  Every run prints the measured ratio regardless
  (``-s`` shows it); nothing is written to disk.
"""

from __future__ import annotations

import os
import time

from repro.algorithms import HWTopk, SendV
from repro.experiments.config import ExperimentConfig
from repro.mapreduce.executor import ParallelExecutor, SerialExecutor
from repro.mapreduce.hdfs import HDFS
from repro.service import RuntimeProfile


WORKERS = 4


def _timed_run(algorithms, dataset, cluster, executor):
    hdfs = HDFS(datanodes=[machine.name for machine in cluster.machines])
    dataset.to_hdfs(hdfs, "/data/input")
    started = time.perf_counter()
    results = [
        algorithm.run(hdfs, "/data/input",
                      profile=RuntimeProfile(cluster=cluster, seed=7, executor=executor))
        for algorithm in algorithms
    ]
    return time.perf_counter() - started, results


def test_parallel_executor_speedup_fig10_scale():
    config = ExperimentConfig(target_splits=64)
    dataset = config.build_dataset(name="fig10-anchor")
    cluster = config.unscaled_cluster(dataset)

    def algorithms():
        return [SendV(config.u, config.k), HWTopk(config.u, config.k)]

    serial_s, serial_results = _timed_run(
        algorithms(), dataset, cluster, SerialExecutor()
    )
    parallel = ParallelExecutor(max_workers=WORKERS)
    try:
        # Warm the worker pool so process start-up is not billed to the run,
        # mirroring how a resident cluster amortises daemon start-up.
        parallel.warm_up()
        parallel_s, parallel_results = _timed_run(
            algorithms(), dataset, cluster, parallel
        )
    finally:
        parallel.close()

    for serial_result, parallel_result in zip(serial_results, parallel_results):
        assert (serial_result.histogram.coefficients
                == parallel_result.histogram.coefficients)
        assert serial_result.counters.as_dict() == parallel_result.counters.as_dict()

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    cpus = os.cpu_count() or 1
    lines = [
        "executor speedup @ fig10 anchor (Send-V + H-WTopk, "
        f"n={dataset.n}, {config.target_splits} splits, {WORKERS} workers, "
        f"{cpus} cpus)",
        f"serial_s   {serial_s:10.3f}",
        f"parallel_s {parallel_s:10.3f}",
        f"speedup    {speedup:10.2f}x",
    ]
    text = "\n".join(lines)
    print("\n" + text)

    if os.environ.get("REPRO_ASSERT_SPEEDUP") == "1":
        assert speedup >= 2.0, (
            f"parallel executor only {speedup:.2f}x faster than serial "
            f"on {cpus} CPUs; expected >= 2x"
        )
