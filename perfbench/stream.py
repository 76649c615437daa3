"""stream-publish: an insert/delete stream maintained and read while it grows.

A round replays the same seeded stream (20% deletes, u = 2^15) through
``SynopsisService.ingest`` into a fresh in-memory store, publishing every
``cadence`` batches, because publish cost depends on how many versions
already exist.  The store is in memory because the latency of a directory
store's file operations drifts with the host's other tenants, independently
of its CPU speed: over four minutes in one process the median freshness of a
directory-store replay moved between 11 and 26 ms (quartile spread 0.28),
that of an in-memory replay run alternately with it between 4.4 and 7.0 ms
(0.13).  After every batch a reader sends a ``zipfian`` query batch to
the newest published version; the first answer from a new version closes its
freshness interval, which starts when the batch that closes the cycle is
submitted.  Every published version, its state checkpoint and every answer
is checked against a replay of the stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from perfbench import oracles
from perfbench.common import (
    MB,
    SHAPE_SEED,
    RunContext,
    counter_total,
    median,
    peak_rss_mb,
    repeated_setup,
    tail,
)
from repro.service import RuntimeProfile, SynopsisService
from repro.streaming.ingest import StreamIngestor

NAME = "events"
DELETE_FRACTION = 0.2
# Inserted keys and reader ranges follow the rank law of the program's
# update-stream and zipfian query generators (numpy zipf, exponent 1 + 1.1).
ZIPF_EXPONENT = 2.1
# Freshness tail, printed in the notes line (not gated; two replays give
# 240 publishes, so ten or more lie beyond it).
TAIL_PERCENTILE = 95.0


@dataclass(frozen=True)
class Scale:
    u: int
    k: int
    batch: int
    batches: int
    cadence: int
    reader_batch: int
    warm_batches: int


FULL = Scale(u=2 ** 15, k=30, batch=1000, batches=480, cadence=4,
             reader_batch=256, warm_batches=192)
TINY = Scale(u=2 ** 10, k=10, batch=100, batches=16, cadence=4,
             reader_batch=32, warm_batches=4)


def update_stream(scale: Scale, key_of_rank: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``(inserts, deletes)`` batches; deletes remove live records only.

    The stream is drawn over popularity ranks with a fixed seed and mapped to
    keys through the run's seeded permutation of the domain.
    """
    rng = np.random.default_rng(SHAPE_SEED)
    live = np.zeros(scale.u, dtype=np.int64)  # per rank
    removals = int(round(scale.batch * DELETE_FRACTION))
    batches = []
    for _ in range(scale.batches):
        ranks = np.minimum(rng.zipf(ZIPF_EXPONENT, size=scale.batch - removals), scale.u) - 1
        np.add.at(live, ranks, 1)
        positions = rng.choice(int(live.sum()), size=removals, replace=False)
        removed = np.searchsorted(np.cumsum(live), positions, side="right")
        np.subtract.at(live, removed, 1)
        batches.append((key_of_rank[ranks], np.sort(key_of_rank[removed])))
    return batches


def reader_ranges(scale: Scale, key_of_rank: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``zipfian`` range batches: small ranges around popular keys.

    The shape of the program's ``zipfian`` mix (zipf ranks, geometric
    half-widths), with ranks and widths drawn with a fixed seed and centred
    on the keys the run's permutation gives those ranks.
    """
    rng = np.random.default_rng((SHAPE_SEED, 1))
    count = scale.batches * scale.reader_batch
    ranks = np.minimum(rng.zipf(ZIPF_EXPONENT, size=count), scale.u) - 1
    half_widths = np.minimum(rng.geometric(0.25, size=count), scale.u // 2)
    centres = key_of_rank[ranks]
    shape = (scale.batches, scale.reader_batch)
    return (np.maximum(1, centres - half_widths).reshape(shape),
            np.minimum(scale.u, centres + half_widths).reshape(shape))


def run(ctx: RunContext) -> Tuple[Dict[str, float], Dict[str, float]]:
    scale = TINY if ctx.tiny else FULL
    key_of_rank = np.random.default_rng((ctx.seed, 5)).permutation(scale.u).astype(np.int64) + 1
    stream = update_stream(scale, key_of_rank)
    read_los, read_his = reader_ranges(scale, key_of_rank)

    def ingest(service, batch):
        inserts, deletes = batch
        return service.ingest(NAME, inserts, deletes, u=scale.u, k=scale.k,
                              cadence=scale.cadence)

    def replay(service, batches, traced: bool, attempt=ctx.attempt) -> Dict[str, object]:
        """Feed ``batches`` in, reading after each; returns what happened.

        ``attempt`` runs each ingest and read; set-up passes a plain call,
        so its warm-up is not counted as operations of the run.
        """
        ingestor = None
        publishes: List[Tuple[int, object]] = []
        served: List[Tuple[int, int, np.ndarray]] = []
        freshness: List[float] = []
        started = time.perf_counter()
        for index, batch in enumerate(batches):
            ctx.new_request()
            submitted = time.perf_counter()
            if traced:
                if ingestor is None:
                    maintainer = service.maintainer(NAME, u=scale.u, k=scale.k,
                                                    cadence=scale.cadence)
                    ingestor = StreamIngestor(
                        maintainer.u, partition=NAME,
                        executor=service.profile.build_executor(),
                        shard_size=service.shard_size)
                with ctx.span("ingest"):
                    metadata = attempt(lambda: _traced_ingest(
                        ctx, service, maintainer, ingestor, batch,
                        closes=(index + 1) % scale.cadence == 0))
            else:
                metadata = attempt(lambda: ingest(service, batch))
            if metadata is not None:
                publishes.append((index, metadata))
            if not publishes:
                continue
            los, his = read_los[index], read_his[index]
            if traced:
                with ctx.span("read"):
                    answers = attempt(lambda: _traced_read(
                        ctx, service, los, his, refresh=metadata is not None))
            else:
                answers = attempt(lambda: service.server.range_sums(NAME, los, his))
            if metadata is not None:
                freshness.append(time.perf_counter() - submitted)
            if answers is not None:
                served.append((index, publishes[-1][1].version, answers))
        return {"seconds": time.perf_counter() - started, "publishes": publishes,
                "served": served, "freshness": freshness}

    def set_up():
        # A fresh service over an empty store, and a replay of the first
        # batches that warms the ingest, fold, publish and read paths.
        service = SynopsisService(ctx.store("stream", in_memory=True), profile=profile)
        replay(service, stream[:scale.warm_batches], False, attempt=lambda call: call())
        return service

    checksums: List[List[str]] = []
    replays: List[Dict[str, object]] = []

    def one_replay(index: int, traced: bool) -> None:
        store = ctx.store("stream", in_memory=True)
        service = SynopsisService(store, profile=run_profile)
        written = counter_total(ctx.telemetry, "repro_store_save_bytes_total")
        hits = counter_total(ctx.telemetry, "repro_serving_cache_hits_total")
        misses = counter_total(ctx.telemetry, "repro_serving_cache_misses_total")
        outcome = replay(service, stream, traced)
        outcome.update(
            traced=traced,
            written_bytes=counter_total(ctx.telemetry, "repro_store_save_bytes_total") - written,
            hits=counter_total(ctx.telemetry, "repro_serving_cache_hits_total") - hits,
            misses=counter_total(ctx.telemetry, "repro_serving_cache_misses_total") - misses)
        replays.append(outcome)
        checksums.append(_check(ctx, scale, stream, store, outcome, read_los, read_his))
        # Checked answers are dropped, so that memory does not grow with the
        # number of replays a run fits in (peak_rss_mb is a metric).
        del outcome["served"], outcome["publishes"]
        if checksums[-1] != checksums[0]:
            ctx.fail(f"replay {index} published other checksums than the first replay")

    with ctx.scoped() as bundle:
        profile = RuntimeProfile(seed=ctx.seed, telemetry=bundle)
        setup_s, _ = repeated_setup(set_up)
    with ctx.scoped() as bundle:
        run_profile = profile.with_overrides(telemetry=bundle)
        ctx.rounds(one_replay)
        rss = peak_rss_mb()

    updates = sum(inserts.size + deletes.size for inserts, deletes in stream)
    plain = [r for r in replays if not r["traced"]]
    freshness = [f for r in plain for f in r["freshness"]]
    end_to_end = {
        "op_ms_p50": median(freshness) * 1e3,
        "cost_mb": median([r["written_bytes"] for r in plain]) / MB,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    per_layer = {}
    if ctx.trace:
        per_layer = _layers(ctx, replays, updates)
    ctx.notes["round_s"] = [round(r["seconds"], 4) for r in plain]
    ctx.notes[f"op_ms_p{TAIL_PERCENTILE:g}"] = tail(freshness, TAIL_PERCENTILE) * 1e3
    return end_to_end, per_layer


def _traced_ingest(ctx, service, maintainer, ingestor, batch, closes: bool):
    """``SynopsisService.ingest``, stepped through under spans."""
    with ctx.span("ingest.count"):
        partial = ingestor.batch(*batch)
    with ctx.span("maintain.ingest", closes=closes):
        metadata = maintainer.ingest(partial)
    if metadata is not None:
        service.server.refresh()
    return metadata


def _traced_read(ctx, service, los, his, refresh: bool):
    """``QueryServer.range_sums``, stepped through under spans."""
    with ctx.span("server.engine", refresh=refresh):
        engine = service.server.engine(NAME)
    with ctx.span("engine.eval"):
        return engine.range_sum_many(los, his)


def _check(ctx, scale, stream, store, outcome, read_los, read_his) -> List[str]:
    """Check every version, checkpoint and answer of one replay; returns its checksums."""
    publishes = dict(outcome["publishes"])
    oracles_by_version: Dict[int, oracles.RangeOracle] = {}
    checksums = []
    for index, net in enumerate(oracles.replay(stream, scale.u)):
        if (index + 1) % scale.cadence:
            continue
        metadata = publishes.get(index)
        if metadata is None:
            ctx.fail(f"no version published after batch {index + 1}")
            continue
        checksums.append(metadata.checksum_sha256)
        indices, values = store.load(NAME, metadata.version).coefficient_arrays()
        values = ctx.tamper("version", values)
        coefficients = dict(zip(indices.tolist(), values.tolist()))
        reason = oracles.exact_topk_error(oracles.haar(net), scale.k, coefficients)
        if reason:
            ctx.fail(f"{NAME} v{metadata.version} after batch {index + 1}: {reason}")
        oracles_by_version[metadata.version] = oracles.RangeOracle(coefficients, scale.u)
        state = store.load(NAME + ".state", metadata.version)
        if state.metadata.build.get("applied_batches") != index + 1:
            ctx.fail(f"checkpoint v{metadata.version} is not the state after batch {index + 1}")
        keys, stored = state.coefficient_arrays()
        stored = ctx.tamper("checkpoint", stored)
        live = np.flatnonzero(net)
        if not (np.array_equal(keys, live + 1) and np.array_equal(stored, net[live])):
            ctx.fail(f"checkpoint v{metadata.version} differs from the net counts "
                     f"after batch {index + 1}")
    for index, version, answers in outcome["served"]:
        answers = ctx.tamper("reader", answers)
        oracle = oracles_by_version.get(version)
        if oracle is None or not oracles.answers_match(
                answers, oracle.sums(read_los[index], read_his[index])):
            ctx.fail(f"reader answers after batch {index + 1} differ from v{version}'s")
    return checksums


def _layers(ctx, replays, updates) -> Dict[str, float]:
    spans = ctx.timeline()
    traced = [r for r in replays if r["traced"]]
    plain = [r for r in replays if not r["traced"]]
    publish_ms = [d * 1e3 for d in spans.durations("store.save_delta")]
    per_replay = max(1, len(publish_ms) // max(1, len(traced)))
    firsts, lasts = [], []
    for start in range(0, len(publish_ms), per_replay):
        chunk = publish_ms[start:start + per_replay]
        tenth = max(1, len(chunk) // 10)
        firsts.extend(chunk[:tenth])
        lasts.extend(chunk[-tenth:])
    return {
        "store.save_ms": median(spans.durations("store.save")) * 1e3,
        "store.load_ms": median(spans.durations("store.load", kind="store")) * 1e3,
        "store.checkpoint_ms": median(spans.durations("store.save", checkpoint=True)) * 1e3,
        "store.publish_ms": median(publish_ms),
        "store.publish_ms_first": median(firsts),
        "store.publish_ms_last": median(lasts),
        "store.write_bytes_per_update": median([r["written_bytes"] for r in traced]) / updates,
        "server.refresh_fault_ms": median(spans.durations("server.engine", refresh=True)) * 1e3,
        "engine.eval_ms": median(spans.durations("engine.eval")) * 1e3,
        "engine.cache_hits": median([r["hits"] for r in traced]),
        "engine.cache_misses": median([r["misses"] for r in traced]),
        "ingest.count_ms": median(spans.durations("ingest.count")) * 1e3,
        "maintain.fold_ms": median(spans.self_times("maintain.ingest", closes=True)) * 1e3,
        "trace.overhead_pct": (median([r["seconds"] for r in traced])
                               / median([r["seconds"] for r in plain]) - 1) * 100,
    }
