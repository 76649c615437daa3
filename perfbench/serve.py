"""serve-catalog: read-only traffic over a catalog larger than the engine table.

The directory store holds three times more k = 30 synopses than the server
keeps materialised (``max_synopses``, 64 by default), so requests fault
payloads in (read, mmap, sha256, engine build) and evict others.  One
closed-loop client sends requests; each asks one synopsis, picked by zipf
popularity over the names, a batch of ``mixed`` ranges through
``QueryServer.range_sums``, and one request in eight fans its batch across
four synopses through ``SynopsisService.query``.  A round replays the same
sequence of names with fresh ranges, so after the warm-up round in set-up
every round faults the same payloads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import oracles
from perfbench.common import (
    MB,
    SHAPE_SEED,
    RunContext,
    counter_total,
    histogram_totals,
    mean,
    median,
    peak_rss_mb,
    repeated_setup,
    tail,
)
from repro.core.histogram import WaveletHistogram
from repro.service import RuntimeProfile, SynopsisService
from repro.serving.workload import WorkloadGenerator

POPULARITY_ALPHA = 1.1
# Request-latency tail, printed in the notes line (not gated: its spread
# between runs on a shared host is far wider than any bound).
TAIL_PERCENTILE = 99.0


@dataclass(frozen=True)
class Scale:
    u: int
    k: int
    names: int
    max_synopses: Optional[int]  # None: the server's shipped default
    requests: int
    batch: int
    fanout_every: int
    fanout_width: int


FULL = Scale(u=2 ** 15, k=30, names=192, max_synopses=None, requests=256,
             batch=256, fanout_every=8, fanout_width=4)
TINY = Scale(u=2 ** 10, k=10, names=24, max_synopses=8, requests=32, batch=32,
             fanout_every=8, fanout_width=3)


def make_catalog(scale: Scale, seed: int) -> Dict[str, Dict[int, float]]:
    """The k-term synopses of seeded Zipf frequency vectors, one per name."""
    rng = np.random.default_rng((seed, 3))
    ranks = np.arange(1, scale.u + 1, dtype=np.float64)
    catalog = {}
    for index in range(scale.names):
        weights = ranks ** -rng.uniform(0.8, 1.4)
        records = int(rng.integers(50_000, 500_000))
        counts = np.floor(records * weights / weights.sum())[rng.permutation(scale.u)]
        top = oracles.top_k(oracles.haar(counts), scale.k)
        catalog[f"attr-{index:03d}"] = {i: w for i, w in top.items() if w != 0.0}
    return catalog


def make_plan(scale: Scale, names: List[str], seed: int) -> List[Tuple[str, ...]]:
    """The names each request of a round asks, in order (the same every round).

    The popularity ranks requested are the same for every seed; the seed
    decides which name holds which rank.
    """
    by_rank = [names[i] for i in np.random.default_rng((seed, 4)).permutation(len(names))]
    popularity = 1.0 / np.arange(1, len(names) + 1) ** POPULARITY_ALPHA
    popularity /= popularity.sum()
    shape = np.random.default_rng(SHAPE_SEED)

    def pick() -> str:
        return by_rank[int(shape.choice(len(names), p=popularity))]

    plan = []
    for request in range(scale.requests):
        group = [pick()]
        if request % scale.fanout_every == scale.fanout_every - 1:
            while len(group) < scale.fanout_width:
                name = pick()
                if name not in group:
                    group.append(name)
        plan.append(tuple(group))
    return plan


def run(ctx: RunContext) -> Tuple[Dict[str, float], Dict[str, float]]:
    scale = TINY if ctx.tiny else FULL
    catalog = make_catalog(scale, ctx.seed)
    answers_for = {name: oracles.RangeOracle(coefficients, scale.u)
                   for name, coefficients in catalog.items()}
    histograms = {name: WaveletHistogram.from_coefficients(coefficients, scale.u, k=scale.k)
                  for name, coefficients in catalog.items()}
    plan = make_plan(scale, list(catalog), ctx.seed)

    def ranges(round_index: int):
        workload = WorkloadGenerator(scale.u, seed=ctx.seed * 7919 + 1 + round_index).generate(
            scale.requests * scale.batch, "mixed")
        shape = (scale.requests, scale.batch)
        return workload.los.reshape(shape), workload.his.reshape(shape)

    def check(group, answers, los, his) -> None:
        if len(group) == 1:
            answers = {group[0]: answers}
        kind = "fanout" if len(group) > 1 else "answer"
        for name in group:
            served = ctx.tamper(kind, answers[name])
            if not oracles.answers_match(served, answers_for[name].sums(los, his)):
                ctx.fail(f"request for {name} over {group}: answers differ from the "
                         f"oracle range sums of the stored coefficients")

    def serve(group, los, his):
        service = live["service"]
        if len(group) > 1:
            return service.query(list(group), los, his)
        return service.server.range_sums(group[0], los, his)

    def traced_serve(group, los, his):
        service = live["service"]
        if len(group) > 1:
            with ctx.span("service.fanout"):
                return service.query(list(group), los, his)
        registry = ctx.telemetry.metrics
        loads = registry.counter_value("repro_store_load_bytes_total")
        with ctx.span("server.engine") as span:
            engine = service.server.engine(group[0])
            span.set(fault=registry.counter_value("repro_store_load_bytes_total") != loads)
        with ctx.span("engine.eval"):
            return engine.range_sum_many(los, his)

    def replay_round(round_index: int, traced: bool, latencies: List[float]) -> None:
        los_all, his_all = ranges(round_index)
        for group, los, his in zip(plan, los_all, his_all):
            ctx.new_request()
            started = time.perf_counter()
            with ctx.span("request", names=len(group)):
                answers = ctx.attempt(lambda: (traced_serve if traced else serve)(
                    group, los, his))
            latencies.append(time.perf_counter() - started)
            if answers is not None:
                check(group, answers, los, his)

    def set_up():
        store = ctx.store("catalog")
        with ctx.tracing(ctx.trace):
            for name, histogram in histograms.items():
                ctx.new_request()
                store.save(name, histogram, algorithm="catalog", seed=ctx.seed)
        options = {} if scale.max_synopses is None else {"max_synopses": scale.max_synopses}
        live["service"] = SynopsisService(store, profile=profile, **options)
        los_all, his_all = ranges(-1)
        for group, los, his in zip(plan, los_all, his_all):
            check(group, serve(group, los, his), los, his)
        return live["service"]

    live: Dict[str, SynopsisService] = {}
    rounds: List[Dict[str, float]] = []
    untraced: List[float] = []
    traced_latencies: List[float] = []

    def one_round(index: int, traced: bool) -> None:
        faults = histogram_totals(ctx.telemetry, "repro_store_load_seconds")[0]
        loaded = counter_total(ctx.telemetry, "repro_store_load_bytes_total")
        hits = counter_total(ctx.telemetry, "repro_serving_cache_hits_total")
        misses = counter_total(ctx.telemetry, "repro_serving_cache_misses_total")
        latencies: List[float] = []
        replay_round(index, traced, latencies)
        (traced_latencies if traced else untraced).extend(latencies)
        rounds.append({
            "traced": traced,
            "seconds": sum(latencies),
            "faulted_mb": (counter_total(ctx.telemetry, "repro_store_load_bytes_total")
                           - loaded) / MB,
            "faults": histogram_totals(ctx.telemetry, "repro_store_load_seconds")[0] - faults,
            "hits": counter_total(ctx.telemetry, "repro_serving_cache_hits_total") - hits,
            "misses": counter_total(ctx.telemetry, "repro_serving_cache_misses_total") - misses,
        })

    with ctx.scoped() as bundle:
        profile = RuntimeProfile(seed=ctx.seed, telemetry=bundle)
        setup_s, service = repeated_setup(set_up)
    with ctx.scoped() as bundle:
        service.profile = profile.with_overrides(telemetry=bundle)
        ctx.rounds(one_round)
        rss = peak_rss_mb()

    plain = [r for r in rounds if not r["traced"]]
    end_to_end = {
        "op_ms_p50": median(untraced) * 1e3,
        "cost_mb": median([r["faulted_mb"] for r in plain]),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    per_layer = {}
    if ctx.trace:
        spans = ctx.timeline()
        traced_rounds = [r for r in rounds if r["traced"]]

        def typical(key):
            return median([r[key] for r in traced_rounds])

        per_layer = {
            "store.save_ms": mean(spans.durations("store.save")) * 1e3,
            "store.load_ms": median(spans.durations("store.load", kind="store")) * 1e3,
            "server.engine_hit_ms": median(spans.durations("server.engine", fault=False)) * 1e3,
            "server.engine_fault_ms": median(spans.durations("server.engine", fault=True)) * 1e3,
            "server.fault_pct": typical("faults") / len(plan) * 100,
            "engine.eval_ms": median(spans.durations("engine.eval")) * 1e3,
            "engine.cache_hits": typical("hits"),
            "engine.cache_misses": typical("misses"),
            "service.fanout_ms": median(spans.durations("service.fanout")) * 1e3,
            "trace.overhead_pct": (median(traced_latencies) / median(untraced) - 1) * 100,
        }
    ctx.notes["round_s"] = [round(r["seconds"], 4) for r in plain]
    ctx.notes[f"op_ms_p{TAIL_PERCENTILE:g}"] = tail(untraced, TAIL_PERCENTILE) * 1e3
    ctx.notes["faulted_mb_per_round"] = sorted({round(r["faulted_mb"], 6) for r in rounds})
    return end_to_end, per_layer
