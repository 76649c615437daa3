"""API guide: the three-object service flow — profile → registry → service.

The public API separates three orthogonal concerns:

1. **How to run** — :class:`repro.RuntimeProfile`: cluster, cost parameters,
   seed, executor spec (serial / parallel process pool) and data plane
   (columnar batch / record-at-a-time), as one frozen, reusable value.
   Execution fields never change results, only wall-clock time.
2. **What to build** — the algorithm registry: every one of the paper's seven
   algorithms is resolvable by name (``make_algorithm(name, u=, k=,
   **params)``), or declaratively via :class:`repro.AlgorithmSpec`.
3. **Where it lives & how it serves** — :class:`repro.SynopsisService` over a
   :class:`repro.SynopsisStore` with pluggable backends (directory on disk, or
   in-memory): ``build`` publishes checksummed versions, ``query`` fans one
   workload across many stored synopses with deterministic answers.

Run with:  python examples/api_guide.py
"""

from __future__ import annotations

import pathlib
import tempfile

import numpy as np

from repro import (
    AlgorithmSpec,
    BuildRequest,
    QueryServer,
    RuntimeProfile,
    SynopsisService,
    SynopsisStore,
    Telemetry,
    UpdateStreamGenerator,
    WorkloadGenerator,
    ZipfDatasetGenerator,
    algorithm_names,
    make_algorithm,
    paper_cluster,
    registry_to_prometheus,
    set_telemetry,
)


def main() -> None:
    # ------------------------------------------------------------- 1. profile
    # One value describes *how* every build in this session should execute.
    # Swap executor="parallel" (optionally workers=N) for a process pool, or
    # data_plane="records" for the reference path — results are bit-identical
    # either way, so profiles are purely a performance dial.
    profile = RuntimeProfile(seed=7, executor="serial", data_plane="batch")
    print(f"profile: {profile.describe()}")

    # The CLI spells the same value as a string: --profile "parallel:4" or
    # --profile "executor=parallel,workers=4,data-plane=records,seed=7".
    assert RuntimeProfile.parse("serial").executor_name == "serial"

    # ------------------------------------------------------------ 2. registry
    # Every algorithm is constructible by name; parameters pass through.
    print(f"registered algorithms: {', '.join(algorithm_names())}")
    sketch = make_algorithm("send-sketch", u=2 ** 12, k=30, bytes_per_level=4096)
    print(f"made {sketch.name} with {sketch.bytes_per_level} B/level by name")

    # ------------------------------------------------------------- 3. service
    # The service owns the store (in-memory here — pass
    # store=SynopsisStore("/some/dir") for the on-disk catalog) and unifies
    # the lifecycle: build -> stored version -> multi-synopsis serving.
    service = SynopsisService(profile=profile)

    # Model two attributes of one table, summarised by different builders.
    web = ZipfDatasetGenerator(u=2 ** 12, alpha=1.1, seed=1).generate(
        120_000, name="web-hits")
    orders = ZipfDatasetGenerator(u=2 ** 12, alpha=0.9, seed=2).generate(
        90_000, name="order-prices")

    exact = service.build(AlgorithmSpec("send-v", k=40), web, name="web")
    sampled = service.build(
        AlgorithmSpec("twolevel-s", k=40, parameters={"epsilon": 0.01}),
        orders, name="orders")
    for report in (exact, sampled):
        print(f"built {report.name} v{report.version} with "
              f"{report.metadata.algorithm}: "
              f"{report.result.communication_bytes:,.0f} bytes communicated, "
              f"sha256 {report.checksum_sha256[:12]}...")

    # Multi-synopsis fan-out: ONE workload, answered across BOTH stored
    # attributes in a single call.  Each synopsis' resident engine answers the
    # whole batch in-process, in name order, so the answer vectors are
    # identical whatever the executor or store backend.
    workload = WorkloadGenerator(2 ** 12, seed=5).generate(10_000, "mixed")
    answers = service.query_workload(["web", "orders"], workload)
    for name, estimates in answers.items():
        print(f"{name}: served {estimates.size} range queries, "
              f"mean estimate {float(np.mean(estimates)):,.1f}")

    # Determinism check — the same fan-out twice is bit-identical.
    again = service.query_workload(["web", "orders"], workload)
    assert all(np.array_equal(answers[name], again[name]) for name in answers)
    print(f"service stats: {service.stats()['fanout_queries']} fan-out queries "
          f"in {service.stats()['fanout_batches']} batches — deterministic")

    # -------------------------------------------------- 4. concurrent builds
    # build_many is the build-side analogue of the fan-out: every request's
    # JobPlan joins ONE ClusterScheduler batch, so the builds' map and reduce
    # tasks interleave on the cluster's shared map/reduce slot pool (up to
    # concurrent_jobs builds in flight).  Scheduling never changes results:
    # each stored payload — and therefore its checksum — is bit-identical to
    # a sequential service.build of the same request, and versions publish in
    # request order.  Swap executor="parallel" on the profile for a real
    # wall-clock win; here we prove the determinism contract instead.
    batch_profile = profile.with_overrides(concurrent_jobs=3)
    clicks = ZipfDatasetGenerator(u=2 ** 12, alpha=1.2, seed=3).generate(
        60_000, name="click-counts")
    reports = service.build_many(
        [
            BuildRequest(AlgorithmSpec("send-v", k=40), web, name="web"),
            BuildRequest(AlgorithmSpec("twolevel-s", k=40,
                                       parameters={"epsilon": 0.01}),
                         orders, name="orders"),
            BuildRequest(AlgorithmSpec("h-wtopk", k=40), clicks, name="clicks"),
        ],
        profile=batch_profile,
    )
    for report in reports:
        print(f"batched build: {report.name} v{report.version} "
              f"({report.metadata.algorithm}), sha256 "
              f"{report.checksum_sha256[:12]}...")
    # The re-built synopses are byte-identical to the sequential builds above
    # (same dataset + profile => same checksum, one version later).
    assert reports[0].checksum_sha256 == exact.checksum_sha256
    assert reports[1].checksum_sha256 == sampled.checksum_sha256
    print("concurrent build queue: checksums match sequential builds — "
          "scheduling is result-free")

    # --------------------------------------------------- 5. streaming ingest
    # Synopses don't have to be rebuilt from scratch when data keeps arriving:
    # service.ingest streams sequenced insert/delete batches into a named
    # stream, and the maintainer folds them into the store on a cadence —
    # each publish is a *delta* version recording its parent_version and the
    # update counts it applied.  The invariant (enforced by the hypothesis
    # suite in tests/test_streaming_equivalence.py): the streamed synopsis is
    # byte-identical to a from-scratch batch build of the surviving multiset.
    stream = UpdateStreamGenerator(u=2 ** 12, seed=9, delete_fraction=0.2)
    live_total = 0
    for batch in stream.batches(5_000, 4):
        live_total += batch.inserts.size - batch.deletes.size
        published = service.ingest("live-hits", batch.inserts, batch.deletes,
                                   u=2 ** 12, k=40, cadence=2)
        if published is not None:
            parent = (f"v{published.parent_version}"
                      if published.parent_version else "scratch")
            print(f"ingest published live-hits v{published.version} "
                  f"(delta over {parent}, "
                  f"{published.build['applied_batches']} batches applied)")
    service.maintain("live-hits")  # flush anything below the cadence

    # The maintained stream serves like any other synopsis, and its estimated
    # total tracks the net insert-minus-delete count exactly.
    answers = service.query(["live-hits"], [1], [2 ** 12])
    print(f"live-hits estimated total after ingest: "
          f"{float(answers['live-hits'][0]):,.1f} (fed {live_total:,} net)")
    assert float(answers["live-hits"][0]) == float(live_total)

    # -------------------------------------------------------- 6. telemetry
    # Every layer reports into one seam: repro.telemetry.  A Telemetry bundle
    # pairs a MetricsRegistry (labeled counters / gauges / fixed-bucket
    # histograms) with a Tracer (structured spans).  Installed as the
    # process-global default, it captures whatever runs next — and the hard
    # invariant is that it NEVER changes results: span ids are monotonic ints
    # (no RNG), and parallel tasks record metric deltas that replay at the
    # phase barrier in task order, exactly like Counters.
    telemetry = Telemetry.enabled()  # tracer on; Telemetry() leaves it off
    previous = set_telemetry(telemetry)
    try:
        traced_profile = profile.with_overrides(telemetry=telemetry)
        traced = SynopsisService(profile=traced_profile)
        traced.build(AlgorithmSpec("send-v", k=40), web, name="web")
        traced.query_workload(["web"], workload)
    finally:
        set_telemetry(previous)

    # The registry now holds per-phase build timings and the serving latency
    # histogram serve-bench reads its p50/p99 from...
    registry = telemetry.metrics
    map_seconds = registry.histogram("repro_build_phase_seconds", phase="map")
    batch_seconds = registry.histogram("repro_serving_batch_seconds",
                                       op="range_sum")
    print(f"telemetry: {map_seconds.count} map phase(s), "
          f"{batch_seconds.count} query batch(es), "
          f"batch p99 {batch_seconds.quantile(0.99) * 1e3:.3f} ms")

    # ...and exposes it in two machine formats: a JSON snapshot and the
    # Prometheus text format (scrape-ready # TYPE / _bucket{le=...} series).
    prometheus = registry_to_prometheus(registry)
    assert "# TYPE repro_serving_batch_seconds histogram" in prometheus
    print(f"prometheus exposition: {len(prometheus.splitlines())} lines")

    # Spans round-trip through JSONL — the CLI equivalent is
    # `repro build --trace trace.jsonl` then `repro telemetry trace.jsonl`.
    spans = telemetry.tracer.events()
    kinds = sorted({event.kind for event in spans})
    print(f"trace: {len(spans)} spans across layers {', '.join(kinds)}")

    # --------------------------------------------------- 7. fault tolerance
    # The executors retry transient task failures under a RetryPolicy, and a
    # deterministic FaultInjector makes chaos testing reproducible: injection
    # decisions are drawn from (fault_seed, round, task_id, attempt) — never
    # from the task's own RNG, whose key never includes the attempt number.
    # A retried attempt therefore re-runs the *identical* computation, so a
    # faulty run is bit-identical to a clean one.  The profile carries the
    # chaos dial; the CLI spells it --fault-rate 0.4 --fault-seed 11 (or
    # profile keys fault-rate= / fault-seed=).
    chaos = Telemetry()
    previous = set_telemetry(chaos)
    try:
        chaos_profile = profile.with_overrides(fault_rate=0.4, fault_seed=3)
        chaos_service = SynopsisService(profile=chaos_profile)
        survived = chaos_service.build(AlgorithmSpec("send-v", k=40), web,
                                       name="web")
    finally:
        set_telemetry(previous)
    retries = sum(
        chaos.metrics.counter_value("repro_task_retries_total",
                                    phase=phase, reason="transient")
        for phase in ("map", "reduce"))
    assert retries >= 1  # this (rate, seed) injects faults into this build
    assert survived.checksum_sha256 == exact.checksum_sha256
    print(f"chaos build: {retries:.0f} task attempt(s) retried, checksum "
          f"identical to the fault-free build — faults never change results")

    # The serving side degrades gracefully instead of failing: a corrupt
    # stored payload (checksum mismatch on load) is quarantined and the
    # server falls back to the newest intact ancestor version, reporting the
    # degradation in stats() until refresh() or a repaired store clears it.
    with tempfile.TemporaryDirectory() as root:
        disk_store = SynopsisStore(root)
        disk = SynopsisService(store=disk_store, profile=profile)
        disk.build(AlgorithmSpec("send-v", k=40), web, name="web")
        disk.build(AlgorithmSpec("send-v", k=40), clicks, name="web")  # v2
        payload = pathlib.Path(root) / "web" / "v00002" / "synopsis.bin"
        blob = bytearray(payload.read_bytes())
        blob[16:20] = b"\xde\xad\xbe\xef"  # bit-rot the v2 payload
        payload.write_bytes(bytes(blob))

        server = QueryServer(disk_store)
        answer = server.range_sums("web", [1], [2 ** 12])
        info = server.stats()["degraded"]["web"]
        print(f"degraded serving: v{info['requested_version']} corrupt, "
              f"served v{info['serving_version']} instead "
              f"(quarantined: {disk_store.quarantined_versions('web')}); "
              f"answer {float(answer[0]):,.1f}")

    # ------------------------------------------------ 8. zero-copy data plane
    # Task specs ship to parallel workers out-of-band: pickle protocol 5
    # sidelines every large array into a shared-memory segment, so N workers
    # map ONE physical copy of each input split instead of unpickling N
    # private copies; only the spec scaffolding is pickled per task.  The
    # profile carries the dial — zero_copy=False (CLI profile key
    # zero-copy=off) keeps the plain in-band pickle path as the bit-identical
    # reference; turn it off when chasing a suspected aliasing bug or on a
    # platform without usable shared memory (where the arena also degrades by
    # itself).  The repro_task_ship_bytes_total{phase,mode} counters account
    # both paths in directly comparable bytes.
    shipping = Telemetry()
    previous = set_telemetry(shipping)
    try:
        # Small splits so this dataset actually fans out across workers (the
        # paper-scale default would hold all 120k records in one split).
        fast_profile = RuntimeProfile(
            seed=7, executor="parallel", workers=2,
            cluster=paper_cluster(split_size_bytes=web.size_bytes // 8))
        fast = SynopsisService(profile=fast_profile)
        shipped = fast.build(AlgorithmSpec("send-v", k=40), web, name="web")
    finally:
        set_telemetry(previous)
    phases = ("map", "reduce", "function")
    mapped_bytes = sum(
        shipping.metrics.counter_value("repro_task_ship_bytes_total",
                                       phase=phase, mode="out-of-band")
        for phase in phases)
    copied_bytes = sum(
        shipping.metrics.counter_value("repro_task_ship_bytes_total",
                                       phase=phase, mode="pickled")
        for phase in phases)
    assert shipped.checksum_sha256 == exact.checksum_sha256
    print(f"zero-copy shipping: {mapped_bytes:,.0f} B shared via one mapped "
          f"copy, only {copied_bytes:,.0f} B pickled; checksum identical to "
          f"the serial (and to the zero-copy=off) build")

    # The serving side is zero-copy too: DirectoryBackend memory-maps stored
    # WHSYN001 payloads, and engines adopt read-only views over the mapped
    # pages instead of materialising heap copies — the
    # repro_payload_bytes_resident gauge splits resident payload bytes by
    # kind (mapped vs heap), and release() gives them back on eviction.
    with tempfile.TemporaryDirectory() as root:
        mapped_store = SynopsisStore(root)
        SynopsisService(store=mapped_store, profile=profile).build(
            AlgorithmSpec("send-v", k=40), web, name="web")
        serving = Telemetry()
        previous = set_telemetry(serving)
        try:
            loaded = mapped_store.load("web")
            engine = loaded.engine()
            indices, _ = loaded.coefficient_arrays()
            assert np.shares_memory(engine.coefficient_arrays()[0], indices)
            mapped_loads = serving.metrics.counter_value(
                "repro_payload_mmap_total")
            resident = serving.metrics.gauge_value(
                "repro_payload_bytes_resident", kind="mapped")
            freed = loaded.release()
        finally:
            set_telemetry(previous)
        print(f"mmap'd serving: {mapped_loads:.0f} payload load(s) mapped, "
              f"{resident:,.0f} B resident as read-only views "
              f"(engine shares, never copies); release() freed {freed:,} B")


if __name__ == "__main__":
    main()
