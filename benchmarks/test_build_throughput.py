"""Build throughput: the columnar batch data plane versus the records plane.

This is the PR-3 acceptance benchmark: at the fig10 anchor workload (the
scaled default — n = 640k Zipfian records, u = 2^15, k = 30, ~128 splits)
building the Send-V histogram on the ``"batch"`` data plane (vectorised
whole-split mappers, columnar spill blocks, sharded shuffle, vectorised
reduce-side grouping) must be at least **5x faster** end to end than the seed
record-at-a-time path — while producing *bit-identical* coefficients, counter
totals and per-round outputs, which this benchmark re-verifies on every run.

Both planes run through the same profile (serial by default; pass
``--profile parallel`` to re-measure the ratio under the process pool — the
planes are orthogonal to the executor seam).

Printed series (``-s`` shows them): wall-clock seconds and records/second
per plane, plus the observed speedup.  Nothing is written to disk; perfbench
keeps the committed wall-clock record.

Setting ``REPRO_BENCH_SCALE=quick`` (the CI smoke job) shrinks the workload to
the quick configuration and skips the 5x assertion — at tiny scale fixed
per-task overheads dominate and only the equivalence contract is meaningful.
"""

from __future__ import annotations

import os
import time

from repro.algorithms import SendV
from repro.experiments.config import ExperimentConfig
from repro.mapreduce.hdfs import HDFS

REQUIRED_SPEEDUP = 5.0
INPUT_PATH = "/data/build-throughput"


def test_build_throughput(experiment_config):
    quick_scale = os.environ.get("REPRO_BENCH_SCALE") == "quick"
    config = (ExperimentConfig.quick().with_overrides(profile=experiment_config.profile)
              if quick_scale else experiment_config)
    dataset = config.build_dataset()
    cluster = config.build_cluster(dataset)
    profile = config.build_profile(cluster)
    hdfs = HDFS(datanodes=[machine.name for machine in cluster.machines])
    dataset.to_hdfs(hdfs, INPUT_PATH)

    def build(data_plane):
        start = time.perf_counter()
        result = SendV(config.u, config.k).run(
            hdfs, INPUT_PATH, profile=profile.with_overrides(data_plane=data_plane),
        )
        return result, time.perf_counter() - start

    build("batch")  # warm numpy dispatch and imports outside the timed runs
    batch_result, batch_seconds = build("batch")
    records_result, records_seconds = build("records")

    # The planes must agree bit for bit before their times are comparable.
    assert batch_result.histogram.coefficients == records_result.histogram.coefficients
    assert batch_result.counters.as_dict() == records_result.counters.as_dict()
    for batch_round, records_round in zip(batch_result.rounds, records_result.rounds):
        assert batch_round.output == records_round.output
        assert batch_round.shuffle_bytes == records_round.shuffle_bytes

    speedup = records_seconds / batch_seconds
    workload_name = ("quick smoke" if quick_scale else "fig10 anchor")
    lines = [
        f"workload: Send-V build over the {workload_name} dataset "
        f"(n={dataset.n}, u=2^{config.u.bit_length() - 1}, k={config.k}, "
        f"~{config.target_splits} splits, {profile.describe()})",
        "bit-identical coefficients, counters and round outputs verified",
        f"{'data plane':<12} {'seconds':>10} {'records/s':>14} {'speedup':>9}",
        f"{'records':<12} {records_seconds:>10.3f} "
        f"{dataset.n / records_seconds:>14,.0f} {1.0:>9.1f}",
        f"{'batch':<12} {batch_seconds:>10.3f} "
        f"{dataset.n / batch_seconds:>14,.0f} {speedup:>9.1f}",
    ]
    text = "\n".join(lines)
    print("\n" + text)

    if not quick_scale:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"batch data plane is only {speedup:.1f}x faster than the "
            f"record-at-a-time plane (required: {REQUIRED_SPEEDUP:.0f}x)"
        )
