"""The build workload: the paper's seven algorithms at the fig10 anchor.

``build-suite`` builds them one after another through
``SynopsisService.build`` on the serial executor; an operation is one build.
A traced run also submits the seven builds once as one
``SynopsisService.build_many`` batch on a two-worker ``ParallelExecutor``, for
the scheduler, pool-dispatch and task-shipping layers.  Every stored synopsis
is read back and checked against the oracles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from perfbench import oracles
from perfbench.common import (
    MB,
    SHAPE_SEED,
    RunContext,
    counter_total,
    geomean,
    histogram_totals,
    median,
    peak_rss_mb,
    repeated_setup,
)
from repro.data.dataset import Dataset
from repro.data.generators import zipf_probabilities
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.counters import CounterNames
from repro.mapreduce.executor import ParallelExecutor
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.runtime import JobRunner
from repro.mapreduce.state import StateStore
from repro.service import AlgorithmSpec, BuildRequest, RuntimeProfile, SynopsisService
from repro.service.facade import SERVICE_INPUT_PATH

SLUGS = ("send-v", "h-wtopk", "send-sketch", "improved-s", "twolevel-s",
         "send-coef", "basic-s")
EXACT = ("send-v", "h-wtopk", "send-coef")
# SSE limits of the approximate algorithms, as multiples of the optimal
# k-term SSE (measured at the anchor: sampling about 1.02x, Send-Sketch about
# 4.5x with the 8 KiB-per-level sketch).
SSE_FACTOR = {"send-sketch": 8.0, "improved-s": 1.25, "twolevel-s": 1.25,
              "basic-s": 1.25}
# Send-Sketch's group-testing search reports only the coefficients it can
# tell from sketch noise, so it may return fewer than k; the samplers return k.
MIN_COEFFICIENTS = {"send-sketch": 1}
# Untraced passes build each fast algorithm several times in a row, so that
# its median passes over the occasional slow build (single builds of these
# took two to three times their usual time now and then); a traced pass
# builds each once, so its per-pass layer figures stay those of one suite.
REPEATS = {"send-v": 5, "improved-s": 5, "twolevel-s": 5, "basic-s": 5}
QUEUE_WORKERS = 2


@dataclass(frozen=True)
class Scale:
    n: int
    u: int
    k: int
    splits: int
    epsilon: float
    sketch_bytes: int

    def specs(self) -> List[Tuple[str, AlgorithmSpec]]:
        def parameters(slug: str) -> Dict[str, Any]:
            if slug == "send-sketch":
                return {"bytes_per_level": self.sketch_bytes}
            if slug in ("improved-s", "twolevel-s", "basic-s"):
                return {"epsilon": self.epsilon}
            return {}
        return [(slug, AlgorithmSpec(slug, k=self.k, parameters=parameters(slug)))
                for slug in SLUGS]

    def dataset(self, seed: int, name: str) -> Dataset:
        """Zipf(1.1) records: fixed rank draws, seeded rank-to-key map and order."""
        ranks = np.random.default_rng(SHAPE_SEED).choice(
            self.u, size=self.n, p=zipf_probabilities(self.u, 1.1))
        rng = np.random.default_rng((seed, 1))
        keys = rng.permutation(self.u)[ranks] + 1
        rng.shuffle(keys)
        return Dataset(name=name, keys=keys, u=self.u, record_size_bytes=4)

    def cluster(self, dataset):
        return paper_cluster(available_bandwidth_fraction=0.5,
                             split_size_bytes=-(-dataset.size_bytes // self.splits))


# The fig10 anchor of the executor-speedup, multijob and zero-copy benchmarks.
ANCHOR = Scale(640_000, 2 ** 15, 30, 64, 0.003, 8 * 1024)
# Set-up warms every code path on a small input with few splits.
WARM_UP = Scale(20_000, 2 ** 15, 30, 4, 0.003, 8 * 1024)
TINY = Scale(20_000, 2 ** 10, 10, 8, 0.02, 1024)
TINY_WARM_UP = Scale(2_000, 2 ** 10, 10, 2, 0.02, 1024)


class Outputs:
    """Everything the run's builds produced, and the checks over it."""

    def __init__(self, ctx: RunContext, dataset, k: int) -> None:
        self.ctx = ctx
        self.k = k
        self.v = oracles.counts(dataset.keys, dataset.u)
        self.w = oracles.haar(self.v)
        self.checksums: Dict[str, str] = {}
        self.cost: Dict[str, Tuple[float, float]] = {}
        self.ratios: Dict[str, float] = {}

    def check(self, store, slug: str, result, metadata) -> None:
        """Check one build's stored synopsis against the oracles."""
        ctx = self.ctx
        handle = store.load(slug, metadata.version)
        if handle.metadata.checksum_sha256 != metadata.checksum_sha256:
            ctx.fail(f"{slug} v{metadata.version}: store returned another checksum")
        indices, values = handle.coefficient_arrays()
        kind = "exact" if slug in EXACT else "approximate"
        values = ctx.tamper(kind, values)
        coefficients = dict(zip(indices.tolist(), values.tolist()))
        if slug in EXACT:
            reason = oracles.exact_topk_error(self.w, self.k, coefficients)
        else:
            reason, ratio = oracles.approximate_error(
                self.v, self.w, self.k, coefficients, SSE_FACTOR[slug],
                MIN_COEFFICIENTS.get(slug, self.k))
            self.ratios[slug] = ratio
        if reason:
            ctx.fail(f"{slug}: {reason}")
        # Builds are deterministic: every pass, traced or not, must store the
        # same bytes and report the same cost-model figures.
        cost = (result.communication_bytes, result.simulated_time_s)
        first = self.checksums.setdefault(slug, metadata.checksum_sha256)
        if first != metadata.checksum_sha256:
            ctx.fail(f"{slug}: checksum {metadata.checksum_sha256[:12]} differs "
                     f"from the first pass's {first[:12]}")
        if self.cost.setdefault(slug, cost) != cost:
            ctx.fail(f"{slug}: cost model {cost} differs from {self.cost[slug]}")

    def comm_mb(self) -> float:
        return sum(comm for comm, _ in self.cost.values()) / MB

    def sim_s(self) -> float:
        return sum(sim for _, sim in self.cost.values())


def traced_build(ctx: RunContext, algorithm_spec: AlgorithmSpec, dataset,
                 profile: RuntimeProfile, store, name: str):
    """``SynopsisService.build``, stepped through call by call under spans.

    Does what ``build`` -> ``HistogramAlgorithm.run`` -> ``execute_plan``
    does, in the same order with the same arguments, so it stores the same
    bytes; the spans time each layer the build passes through.
    """
    algorithm = algorithm_spec.create(default_u=dataset.u)
    hdfs = HDFS()
    with ctx.span("hdfs.load"):
        dataset.to_hdfs(hdfs, SERVICE_INPUT_PATH)
    runner = JobRunner(hdfs, cluster=profile.resolved_cluster(),
                       state_store=StateStore(), seed=profile.seed,
                       executor=profile.build_executor(),
                       data_plane=profile.data_plane, zero_copy=profile.zero_copy,
                       telemetry=profile.telemetry)
    plan = algorithm.create_plan(SERVICE_INPUT_PATH)
    context = plan.context(runner.hdfs, runner.cluster)
    base = runner.rounds_started
    executor = runner.executor
    counts = {"rounds": 0, "map_tasks": 0, "shuffle_bytes": 0.0}
    for index, stage in enumerate(plan.stages):
        with ctx.span("plan.stage_build"):
            job = stage.build(context)
        with ctx.span("mapreduce.round_begin"):
            execution = runner.begin_round(job, splits=context.splits,
                                           round_number=base + index + 1)
        with ctx.span("mapreduce.map_phase"):
            map_results = executor.run_map_tasks(
                execution.map_specs, slots=runner.cluster.total_map_slots)
        with ctx.span("mapreduce.map_barrier"):
            reduce_specs = execution.complete_map_phase(map_results)
        with ctx.span("mapreduce.reduce_phase"):
            reduce_results = executor.run_reduce_tasks(
                reduce_specs, slots=runner.cluster.total_reduce_slots)
        with ctx.span("mapreduce.reduce_barrier"):
            round_result = execution.complete_reduce_phase(reduce_results)
        context.record(stage.name, round_result)
        counts["rounds"] += 1
        counts["map_tasks"] += len(execution.map_specs)
        counts["shuffle_bytes"] += round_result.shuffle_bytes
    with ctx.span("plan.finish"):
        outcome = plan.finish(context)
    with ctx.span("cost.assemble"):
        result = algorithm.assemble_result(outcome, profile)
    metadata = result.publish(store, name=name, seed=profile.seed,
                              extra_build={"dataset": dataset.name})
    counts["state_bytes"] = (runner.state_store.bytes_written
                             + runner.state_store.bytes_read)
    counts.update(work_counts(result))
    return result, metadata, counts


def work_counts(result) -> Dict[str, float]:
    """The cost model's CPU-work counters of one build."""
    return {"transform_ops": result.counters.get(CounterNames.WAVELET_TRANSFORM_OPS),
            "sketch_ops": result.counters.get(CounterNames.SKETCH_UPDATE_OPS)}


def run_suite(ctx: RunContext) -> Tuple[Dict[str, float], Dict[str, float]]:
    """build-suite: seven builds one after another, serial executor."""
    scale, warm = (TINY, TINY_WARM_UP) if ctx.tiny else (ANCHOR, WARM_UP)
    dataset = scale.dataset(ctx.seed, f"zipf-seed{ctx.seed}")
    warm_dataset = warm.dataset(ctx.seed + 1, "warm-up")
    outputs = Outputs(ctx, dataset, scale.k)
    specs = scale.specs()

    def set_up():
        service = SynopsisService(ctx.store("suite"), profile=profile)
        scratch = SynopsisService(profile=warm_profile)
        for slug, algorithm_spec in warm.specs():
            scratch.build(algorithm_spec, warm_dataset, warm_profile, name=slug)
        return service

    with ctx.scoped() as bundle:
        profile = RuntimeProfile(cluster=scale.cluster(dataset), seed=ctx.seed,
                                 telemetry=bundle)
        warm_profile = profile.with_overrides(cluster=warm.cluster(warm_dataset))
        setup_s, service = repeated_setup(set_up)

    build_times: Dict[str, List[float]] = {slug: [] for slug in SLUGS}
    traced_times: Dict[str, List[float]] = {slug: [] for slug in SLUGS}
    pass_times: List[float] = []
    layer_counts: List[Dict[str, float]] = []

    def one_pass(index: int, traced: bool) -> None:
        pass_started = time.perf_counter()
        totals = dict.fromkeys(("rounds", "map_tasks", "shuffle_bytes", "state_bytes",
                                "transform_ops", "sketch_ops"), 0.0)
        for slug, algorithm_spec in specs:
            for _ in range(1 if traced else REPEATS.get(slug, 1)):
                ctx.new_request()
                started = time.perf_counter()
                if traced:
                    with ctx.span("build", algorithm=slug):
                        built = ctx.attempt(lambda: traced_build(
                            ctx, algorithm_spec, dataset, run_profile, service.store, slug))
                else:
                    built = ctx.attempt(lambda: service.build(
                        algorithm_spec, dataset, run_profile, name=slug))
                elapsed = time.perf_counter() - started
                if built is None:
                    continue
                (traced_times if traced else build_times)[slug].append(elapsed)
                if traced:
                    result, metadata, counts = built
                    for key, value in counts.items():
                        totals[key] += value
                else:
                    result, metadata = built.result, built.metadata
                outputs.check(service.store, slug, result, metadata)
        if traced:
            layer_counts.append(totals)
        else:
            pass_times.append(time.perf_counter() - pass_started)

    with ctx.scoped() as bundle:
        run_profile = profile.with_overrides(telemetry=bundle)
        service.profile = run_profile
        ctx.rounds(one_pass)
        rss = peak_rss_mb()

    per_algorithm = [median(build_times[slug]) * 1e3 for slug in SLUGS
                     if build_times[slug]]
    end_to_end = {
        "op_ms_p50": geomean(per_algorithm),
        "cost_mb": outputs.comm_mb(),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    per_layer = {}
    if ctx.trace:
        per_layer = _build_layers(ctx, outputs, traced_times, build_times, layer_counts)
        per_layer.update(_queue_layers(ctx, scale, warm, dataset, warm_dataset,
                                       outputs, profile))
    _note_ratios(outputs)
    ctx.notes["round_s"] = [round(t, 4) for t in pass_times]
    ctx.notes["build_s"] = {slug: [round(t, 4) for t in build_times[slug]] for slug in SLUGS}
    return end_to_end, per_layer


def _build_layers(ctx, outputs, traced_times, untraced_times, layer_counts):
    spans = ctx.timeline()
    passes = max(1, len(layer_counts))

    def per_pass(name):
        return sum(spans.self_times(name)) / passes

    layers = {f"algorithms.{slug}_s": median(traced_times[slug]) for slug in SLUGS}
    layers.update({
        "plan.stage_build_s": per_pass("plan.stage_build"),
        "plan.finish_s": per_pass("plan.finish"),
        "mapreduce.round_begin_s": per_pass("mapreduce.round_begin"),
        "mapreduce.map_phase_s": per_pass("mapreduce.map_phase"),
        "mapreduce.map_barrier_s": per_pass("mapreduce.map_barrier"),
        "mapreduce.reduce_phase_s": per_pass("mapreduce.reduce_phase"),
        "mapreduce.reduce_barrier_s": per_pass("mapreduce.reduce_barrier"),
        "mapreduce.rounds": median([c["rounds"] for c in layer_counts]),
        "mapreduce.map_tasks": median([c["map_tasks"] for c in layer_counts]),
        "mapreduce.shuffle_mb": median([c["shuffle_bytes"] for c in layer_counts]) / MB,
        "mapreduce.state_mb": median([c["state_bytes"] for c in layer_counts]) / MB,
        "cost.assemble_s": per_pass("cost.assemble"),
        "cost.sim_s": outputs.sim_s(),
        "core.transform_ops": median([c["transform_ops"] for c in layer_counts]),
        "sketches.update_ops": median([c["sketch_ops"] for c in layer_counts]),
        "store.save_ms": median(spans.durations("store.save")) * 1e3,
    })
    ratios = [median(traced_times[s]) / median(untraced_times[s]) for s in SLUGS
              if traced_times[s] and untraced_times[s]]
    layers["trace.overhead_pct"] = (geomean(ratios) - 1) * 100 if ratios else 0.0
    return layers


def _note_ratios(outputs: Outputs) -> None:
    if outputs.ratios:
        outputs.ctx.notes["sse_over_optimum"] = {
            slug: round(ratio, 4) for slug, ratio in sorted(outputs.ratios.items())}


def _queue_layers(ctx: RunContext, scale: Scale, warm: Scale, dataset, warm_dataset,
                  outputs: Outputs, profile: RuntimeProfile) -> Dict[str, float]:
    """One ``build_many`` batch of the seven builds on a two-worker process pool.

    Traced build-suite runs make it after their timed rounds, for the layers
    only this path goes through: ``ClusterScheduler``, the pool dispatch of
    ``ParallelExecutor`` and out-of-band task shipping.  Its batch time is
    not an end-to-end metric: with three processes on two vCPUs it moved by
    three tenths of its median between runs of the same code.  Every job is
    admitted at once, the pool is warmed with a small batch first, and the
    batch's synopses pass the same checks as the suite's (the same bytes).
    """
    requests = [BuildRequest(spec, dataset, name=slug) for slug, spec in scale.specs()]
    warm_requests = [BuildRequest(spec, warm_dataset, name=slug)
                     for slug, spec in warm.specs()]
    executor = ParallelExecutor(max_workers=QUEUE_WORKERS)
    try:
        with ctx.scoped() as bundle:
            executor.warm_up()
            warm_profile = profile.with_overrides(
                executor=executor, concurrent_jobs=len(SLUGS),
                cluster=warm.cluster(warm_dataset), telemetry=bundle)
            for report in SynopsisService(profile=warm_profile).build_many(
                    warm_requests, warm_profile):
                if not report.ok:
                    raise RuntimeError(f"warm-up build failed: {report.error}")
        with ctx.scoped() as bundle:
            queue_profile = profile.with_overrides(
                executor=executor, concurrent_jobs=len(SLUGS), telemetry=bundle)
            service = SynopsisService(ctx.store("queue"), profile=queue_profile)
            ctx.new_request()
            reports = ctx.attempt(lambda: service.build_many(requests, queue_profile))
    finally:
        executor.close()
        _stop_resource_tracker()
    if reports is None:
        return {}
    for slug, report in zip(SLUGS, reports):
        if report.ok:
            outputs.check(service.store, slug, report.result, report.metadata)
        else:
            ctx.fail(f"{slug}: build failed in the batch: {report.error}")
    waits, wait_s = histogram_totals(bundle, "repro_scheduler_queue_wait_seconds")
    return {
        "scheduler.queue_wait_ms": wait_s / max(1, waits) * 1e3,
        "scheduler.map_slots_busy": _mean_busy(reports[0].scheduler_stats.slot_timeline),
        **{f"serialization.{key}_mb": counter_total(
            bundle, "repro_task_ship_bytes_total", mode=mode) / MB
           for key, mode in (("pickled", "pickled"), ("oob", "out-of-band"))},
    }


def _mean_busy(timeline) -> float:
    """Time-weighted mean of map slots in use over a scheduler slot timeline."""
    if len(timeline) < 2:
        return 0.0
    busy = sum((later[0] - earlier[0]) * earlier[1]
               for earlier, later in zip(timeline, timeline[1:]))
    return busy / (timeline[-1][0] - timeline[0][0])


def _stop_resource_tracker() -> None:
    """Stop the helper process multiprocessing starts for shared memory, and wait."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()
