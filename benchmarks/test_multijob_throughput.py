"""Multi-job throughput: the cluster scheduler versus sequential builds.

This is the PR-5 acceptance benchmark.  The full seven-algorithm suite is
built twice over the fig10-anchor dataset (n = 640k Zipfian records,
u = 2^15, ~64 splits) on the process-parallel executor:

* **sequential** — the scheduler admitting one plan at a time
  (``concurrent_jobs=1``), so each algorithm runs behind its own phase
  barriers and a single-reducer round idles every other worker;
* **concurrent** — all seven :class:`~repro.mapreduce.plan.JobPlan` objects
  admitted to one :class:`~repro.mapreduce.scheduler.ClusterScheduler`, their
  tasks interleaving on the cluster's shared map/reduce slot pool, so one
  job's barrier no longer idles the pool.

The benchmark first re-verifies the determinism contract — the concurrent
measurements are bit-identical to the sequential ones — then prints both
wall-clocks (``-s`` shows them; nothing is written to disk).  On a machine
with at least 4 CPUs the concurrent batch must beat sequential by
``REQUIRED_SPEEDUP`` (the win comes from overlapping the serial tail of each
job — single-reducer rounds, H-WTopk's tiny rounds 2/3 — with other jobs'
map work).

Setting ``REPRO_BENCH_SCALE=quick`` (the CI smoke job) shrinks the workload
to the quick configuration and skips the wall-clock assertion — at tiny scale
scheduling overhead dominates and only the equivalence contract is
meaningful.
"""

from __future__ import annotations

import os
import time

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_algorithms, standard_algorithms
from repro.mapreduce.executor import ParallelExecutor
from repro.service import RuntimeProfile

REQUIRED_SPEEDUP = 1.1
WORKERS = 4


def _suite(config):
    """The five standard competitors plus the two extra baselines (7 jobs)."""
    from repro.algorithms.registry import make_algorithm

    return standard_algorithms(config) + [
        make_algorithm("send-coef", u=config.u, k=config.k),
        make_algorithm("basic-s", u=config.u, k=config.k, epsilon=config.epsilon),
    ]


def test_multijob_throughput():
    quick_scale = os.environ.get("REPRO_BENCH_SCALE") == "quick"
    config = (ExperimentConfig.quick() if quick_scale
              else ExperimentConfig(target_splits=64))
    dataset = config.build_dataset(name="multijob-anchor")
    cluster = config.unscaled_cluster(dataset)
    reference = dataset.frequency_vector()

    executor = ParallelExecutor(max_workers=WORKERS)
    try:
        # Warm the pool so process start-up is not billed to either mode.
        executor.warm_up()
        profile = RuntimeProfile(cluster=cluster, seed=config.seed,
                                 executor=executor)

        started = time.perf_counter()
        sequential = run_algorithms(dataset, _suite(config),
                                    reference=reference, profile=profile)
        sequential_s = time.perf_counter() - started

        started = time.perf_counter()
        concurrent = run_algorithms(dataset, _suite(config), reference=reference,
                                    profile=profile.with_overrides(concurrent_jobs=7))
        concurrent_s = time.perf_counter() - started
    finally:
        executor.close()

    # Determinism first: the scheduled batch must report exactly the
    # sequential measurements before the wall-clocks are comparable.
    assert len(sequential) == len(concurrent) == 7
    for expected, actual in zip(sequential, concurrent):
        assert expected.algorithm == actual.algorithm
        assert expected.communication_bytes == actual.communication_bytes
        assert expected.simulated_time_s == actual.simulated_time_s
        assert expected.sse == actual.sse
        assert expected.num_rounds == actual.num_rounds

    speedup = sequential_s / concurrent_s if concurrent_s > 0 else float("inf")
    cpus = os.cpu_count() or 1
    workload_name = "quick smoke" if quick_scale else "fig10 anchor"
    lines = [
        f"multi-job throughput @ {workload_name} (7-algorithm suite, "
        f"n={dataset.n}, u=2^{config.u.bit_length() - 1}, "
        f"~{config.target_splits} splits, {WORKERS} workers, {cpus} cpus)",
        "bit-identical measurements (comm/time/SSE/rounds) verified",
        f"{'mode':<22} {'seconds':>10} {'speedup':>9}",
        f"{'sequential':<22} {sequential_s:>10.3f} {1.0:>9.2f}x",
        f"{'concurrent (7 jobs)':<22} {concurrent_s:>10.3f} {speedup:>9.2f}x",
    ]
    if cpus < 4:
        lines.append(
            f"note: only {cpus} cpu(s) — jobs cannot physically overlap, so "
            f"scheduling is pure overhead here; the >= {REQUIRED_SPEEDUP:.2f}x "
            f"win assertion applies on >= 4-CPU machines"
        )
    text = "\n".join(lines)
    print("\n" + text)

    if not quick_scale and cpus >= 4:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"concurrent scheduling is only {speedup:.2f}x over sequential "
            f"on {cpus} CPUs (required: {REQUIRED_SPEEDUP:.2f}x)"
        )
