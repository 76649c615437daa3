"""Zero-copy shipping benchmark: bytes copied across the task seam.

Builds Send-V at the Figure-10 anchor workload (n = 640k, u = 2^15, 64
splits) on the batch data plane with the process-parallel executor, once
with the zero-copy data plane enabled and once on the reference in-band
pickle path, and compares what each run *copied* per task:

* ``zero-copy on`` — only the protocol-5 pickle residue (spec scaffolding)
  crosses the worker pipe; the split arrays travel out-of-band through
  shared memory, mapped (not copied) by every worker;
* ``zero-copy off`` — the whole spec, arrays included, is pickled per task.

The assertion is pure byte accounting (the
``repro_task_ship_bytes_total{phase,mode}`` counters), so it is
machine-independent and holds on a single idle CPU: the copied bytes of the
reference path must be at least **5x** the zero-copy path's.  Results are
bit-identical between the two runs (always enforced), per-worker peak RSS is
printed for both modes (``-s`` shows the table; nothing is written to
disk), and the run must leave no live shared-memory segments behind.
"""

from __future__ import annotations

from repro.algorithms import SendV
from repro.experiments.config import ExperimentConfig
from repro.mapreduce.executor import FunctionTaskSpec, ParallelExecutor
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.serialization import (
    SHIP_MODE_OOB,
    SHIP_MODE_PICKLED,
    live_shipment_segments,
)
from repro.service import RuntimeProfile
from repro.telemetry import get_telemetry


WORKERS = 2
PHASES = ("map", "reduce", "function")
MIN_REDUCTION = 5.0


def _worker_rss_kb(_payload):
    """Current worker's resident set size in kB (module-level: picklable)."""
    with open("/proc/self/status", "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0


def _ship_bytes():
    """Cumulative shipped bytes by mode, summed over all phases."""
    metrics = get_telemetry().metrics
    return {
        mode: sum(
            metrics.counter_value("repro_task_ship_bytes_total",
                                  phase=phase, mode=mode)
            for phase in PHASES
        )
        for mode in (SHIP_MODE_PICKLED, SHIP_MODE_OOB)
    }


def _build(config, dataset, cluster, zero_copy):
    hdfs = HDFS(datanodes=[machine.name for machine in cluster.machines])
    dataset.to_hdfs(hdfs, "/data/input")
    executor = ParallelExecutor(max_workers=WORKERS)
    try:
        executor.warm_up()
        before = _ship_bytes()
        profile = RuntimeProfile(cluster=cluster, seed=7, executor=executor,
                                 zero_copy=zero_copy)
        result = SendV(config.u, config.k).run(hdfs, "/data/input",
                                               profile=profile)
        after = _ship_bytes()
        rss_specs = [
            FunctionTaskSpec(task_id=index, function=_worker_rss_kb,
                             payload=None)
            for index in range(WORKERS)
        ]
        rss_kb = max(task.pairs[0][1]
                     for task in executor.run_tasks(rss_specs, slots=WORKERS))
    finally:
        executor.close()
    shipped = {mode: after[mode] - before[mode] for mode in after}
    return result, shipped, rss_kb


def test_zero_copy_shipping_reduction_fig10_scale():
    config = ExperimentConfig(target_splits=64)
    dataset = config.build_dataset(name="fig10-anchor")
    cluster = config.unscaled_cluster(dataset)

    on_result, on_bytes, on_rss = _build(config, dataset, cluster, True)
    off_result, off_bytes, off_rss = _build(config, dataset, cluster, False)

    # Shipping never changes what a task computes.
    assert (on_result.histogram.coefficients
            == off_result.histogram.coefficients)
    assert on_result.counters.as_dict() == off_result.counters.as_dict()

    # The reference path ships nothing out-of-band, and nothing leaks.
    assert off_bytes[SHIP_MODE_OOB] == 0
    assert live_shipment_segments() == ()

    copied_on = on_bytes[SHIP_MODE_PICKLED]
    copied_off = off_bytes[SHIP_MODE_PICKLED]
    assert copied_on > 0 and copied_off > 0
    reduction = copied_off / copied_on

    lines = [
        "zero-copy shipping @ fig10 anchor (Send-V batch build, "
        f"n={dataset.n}, {config.target_splits} splits, {WORKERS} workers)",
        "mode           copied(pickled) B   out-of-band B   worker RSS kB",
        f"zero-copy on   {copied_on:17,.0f}   "
        f"{on_bytes[SHIP_MODE_OOB]:13,.0f}   {on_rss:13,d}",
        f"zero-copy off  {copied_off:17,.0f}   "
        f"{off_bytes[SHIP_MODE_OOB]:13,.0f}   {off_rss:13,d}",
        f"copied-bytes reduction {reduction:7.1f}x   "
        f"(threshold >= {MIN_REDUCTION:.0f}x)",
    ]
    text = "\n".join(lines)
    print("\n" + text)

    assert reduction >= MIN_REDUCTION, (
        f"zero-copy shipping only cut copied bytes by {reduction:.1f}x "
        f"({copied_off:,.0f} B -> {copied_on:,.0f} B); expected >= "
        f"{MIN_REDUCTION:.0f}x"
    )
