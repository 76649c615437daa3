"""Command-line interface: build, evaluate, *serve* and *stream* wavelet histograms.

Ten sub-commands are provided::

    python -m repro compare   [--quick] [--k 30] [--epsilon 0.003]
        Run the paper's five algorithms over the (scaled) default workload and
        print the communication / time / SSE comparison table.

    python -m repro figure NAME [--quick]
        Regenerate one figure of the evaluation (e.g. ``vary_k``,
        ``worldcup_costs``) and print its table.  ``list-figures`` shows the
        available names.

    python -m repro list-figures
        List the figure drivers and the paper figures they correspond to.

    python -m repro build --store DIR [--name NAME] [--algorithm twolevel-s]
        Build a histogram over the configured workload (any registered
        algorithm, resolved through ``repro.algorithms.registry``) and persist
        it to a synopsis store as a new checksummed version.

    python -m repro query --store DIR --name NAME [--range LO HI ... | --count N]
        Load a stored synopsis (latest or ``--version``) and answer range-sum
        queries — explicit ``--range`` pairs or a generated workload.

    python -m repro serve catalog --store DIR
    python -m repro serve query --store DIR --name A --name B [--count N]
        The multi-synopsis serving verbs: list a store's catalog, or fan one
        generated workload out across several stored synopses through the
        :class:`~repro.service.facade.SynopsisService` (each synopsis answers
        in-process, in name order, so the answers never depend on the
        executor).

    python -m repro serve-bench [--quick] [--count N] [--mix mixed]
        Measure serving throughput: the vectorized batch engine versus the
        scalar per-query loop, verifying on the way that both agree to within
        1e-9.

    python -m repro ingest --store DIR --name NAME [--u 4096] [--batches 8]
        Stream generated insert/delete batches into a stored synopsis: each
        batch is counted into a mergeable partial through the columnar plane
        and folded on a cadence, publishing every new version as a *delta*
        over its parent (recorded in metadata) — never a rebuild.  ``--window
        W`` maintains a sliding window over the last W batches instead.

    python -m repro maintain --store DIR --name NAME [--force]
        Fold a stream's pending state into a published version now — the
        recovery verb: it completes a serving publish a crashed process left
        behind (serving lagging the durable ``.state`` checkpoint).

    python -m repro telemetry TRACE [--metrics FILE]
        Render a span-trace summary (per-span wall times, per-layer rollup)
        from a JSONL trace written by ``--trace``, plus an optional metrics
        snapshot summary.

``compare``, ``figure`` and ``build`` accept ``--executor {serial,parallel}``,
``--workers N``, ``--data-plane {batch,records}``, ``--concurrent-jobs N``
(schedule up to N algorithm builds at once on the cluster's shared slot
pool) and the chaos-testing pair ``--fault-rate P`` / ``--fault-seed S``
(deterministically inject transient task faults that are retried), or the
combined ``--profile`` specification (e.g. ``--profile parallel:4`` or
``--profile executor=parallel,data-plane=records,concurrent-jobs=7``) which
overrides the individual flags; all reported numbers are bit-identical across
executors, data planes, concurrency levels and fault injection, only the
wall-clock time changes.

Expected failures (any :class:`~repro.errors.ReproError` subclass — invalid
parameters, a task retry budget exhausting, a quarantined synopsis with no
intact ancestor) exit with code 2 and a one-line message on stderr; the
global ``--traceback`` flag restores the full stack trace for debugging.

``build``, ``query``, ``serve-bench``, ``ingest`` and ``maintain`` also
accept ``--trace FILE`` (export the run's span events as JSONL) and
``--metrics FILE`` (write the metrics-registry snapshot as JSON; use a
``.prom`` suffix for Prometheus text exposition); telemetry never changes
results, only records them.  The global ``--log-level`` flag turns on
stdlib-logging diagnostics for every command.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.algorithms.registry import algorithm_class, algorithm_names, make_algorithm
from repro.core.histogram import WaveletHistogram
from repro.errors import ReproError, SchedulerError, ServingError
from repro.experiments import figures
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_algorithms, standard_algorithms
from repro.mapreduce.executor import DATA_PLANE_NAMES, EXECUTOR_NAMES
from repro.service import RuntimeProfile, SynopsisService
from repro.serving.bench import measure_serving_throughput
from repro.serving.server import QueryServer
from repro.serving.store import SynopsisStore
from repro.serving.workload import MIX_NAMES, UpdateStreamGenerator, WorkloadGenerator
from repro.telemetry import (
    Telemetry,
    Tracer,
    registry_to_json,
    registry_to_prometheus,
    render_metrics_summary,
    render_trace_summary,
    set_telemetry,
)

__all__ = ["main", "build_parser", "FIGURE_DRIVERS", "ALGORITHM_SLUGS"]

logger = logging.getLogger(__name__)

LOG_LEVELS = ("debug", "info", "warning", "error")

# CLI slugs for the ``build`` command: every algorithm in the registry — the
# same factory ``compare``, the figures and the service façade resolve
# builders through, so the surfaces cannot drift in how they wire
# configuration into builders.
ALGORITHM_SLUGS = algorithm_names()


def _algorithm_parameters(slug: str, config: ExperimentConfig) -> Dict[str, object]:
    """Configuration-derived constructor parameters for a registered algorithm.

    Driven by the builder's own signature rather than a per-slug table, so
    any registered algorithm — including out-of-tree ones — picks up the
    configuration values its constructor actually accepts.
    """
    import inspect

    accepted = inspect.signature(algorithm_class(slug).__init__).parameters
    configured = {
        "epsilon": config.epsilon,
        "bytes_per_level": config.sketch_bytes_per_level,
    }
    return {key: value for key, value in configured.items() if key in accepted}


def _build_algorithm(slug: str, config: ExperimentConfig):
    return make_algorithm(slug, u=config.u, k=config.k,
                          **_algorithm_parameters(slug, config))

# Figure name -> (driver, description) used by the ``figure`` sub-command.
FIGURE_DRIVERS: Dict[str, Callable[[ExperimentConfig], object]] = {
    "vary_k": figures.vary_k,
    "vary_epsilon": figures.vary_epsilon,
    "sse_tradeoff": figures.sse_tradeoff,
    "vary_n": figures.vary_n,
    "vary_record_size": figures.vary_record_size,
    "vary_domain": figures.vary_domain,
    "vary_split_size": figures.vary_split_size,
    "vary_skew": figures.vary_skew,
    "vary_bandwidth": figures.vary_bandwidth,
    "worldcup_costs": figures.worldcup_costs,
    "worldcup_tradeoff": figures.worldcup_tradeoff,
    "analysis_bounds": lambda config: figures.analysis_communication_bounds(),
    "ablation_combiner": figures.ablation_combiner,
    "ablation_hwtopk_rounds": figures.ablation_hwtopk_rounds,
    "ablation_twolevel_threshold": figures.ablation_twolevel_threshold,
}

FIGURE_DESCRIPTIONS: Dict[str, str] = {
    "vary_k": "Figures 5(a), 5(b), 6 — vary the histogram size k",
    "vary_epsilon": "Figures 7, 8(a), 8(b) — vary the sampling parameter eps",
    "sse_tradeoff": "Figure 9 — SSE versus communication/time",
    "vary_n": "Figure 10 — vary the dataset size n",
    "vary_record_size": "Figure 11 — vary the record size",
    "vary_domain": "Figure 12 — vary the domain size u (includes Send-Coef)",
    "vary_split_size": "Figure 13 — vary the split size beta",
    "vary_skew": "Figures 14, 15 — vary the Zipf skew alpha",
    "vary_bandwidth": "Figure 16 — vary the available bandwidth B",
    "worldcup_costs": "Figures 17, 18 — the WorldCup-like dataset",
    "worldcup_tradeoff": "Figure 19 — WorldCup SSE trade-off",
    "analysis_bounds": "Section 4 — analytic communication bounds",
    "ablation_combiner": "Ablation — per-split aggregation / Combine",
    "ablation_hwtopk_rounds": "Ablation — H-WTopk per-round communication",
    "ablation_twolevel_threshold": "Ablation — the 1/(eps*sqrt(m)) threshold",
}


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Building Wavelet Histograms on Large Data in MapReduce'",
    )
    parser.add_argument(
        "--log-level", dest="log_level", choices=list(LOG_LEVELS), default=None,
        help="enable stdlib-logging diagnostics at this level (default: off)",
    )
    parser.add_argument(
        "--traceback", action="store_true",
        help="print full tracebacks for expected failures instead of the "
             "one-line error summary",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compare = subparsers.add_parser(
        "compare", help="run the five algorithms on the default workload"
    )
    compare.add_argument("--quick", action="store_true", help="use the small test workload")
    compare.add_argument("--k", type=int, default=None, help="histogram size (default: 30)")
    compare.add_argument("--epsilon", type=float, default=None,
                         help="sampling parameter (default: configuration value)")
    _add_executor_arguments(compare)

    figure = subparsers.add_parser("figure", help="regenerate one figure of the evaluation")
    figure.add_argument("name", choices=sorted(FIGURE_DRIVERS), help="figure driver name")
    figure.add_argument("--quick", action="store_true", help="use the small test workload")
    _add_executor_arguments(figure)

    subparsers.add_parser("list-figures", help="list available figure drivers")

    build = subparsers.add_parser(
        "build", help="build a histogram and persist it to a synopsis store"
    )
    build.add_argument("--store", required=True, metavar="DIR",
                       help="root directory of the synopsis store")
    build.add_argument("--name", default=None,
                       help="catalog name to store under (default: the algorithm name)")
    build.add_argument("--algorithm", choices=sorted(ALGORITHM_SLUGS),
                       default="twolevel-s", help="builder to run (default: twolevel-s)")
    build.add_argument("--quick", action="store_true", help="use the small test workload")
    build.add_argument("--k", type=int, default=None, help="histogram size (default: 30)")
    build.add_argument("--epsilon", type=float, default=None,
                       help="sampling parameter (default: configuration value)")
    _add_executor_arguments(build)
    _add_telemetry_arguments(build)

    query = subparsers.add_parser(
        "query", help="answer range-sum queries from a stored synopsis"
    )
    query.add_argument("--store", required=True, metavar="DIR",
                       help="root directory of the synopsis store")
    query.add_argument("--name", required=True, help="catalog name of the synopsis")
    query.add_argument("--version", type=int, default=None,
                       help="version to serve (default: latest)")
    query.add_argument("--range", dest="ranges", nargs=2, type=int, metavar=("LO", "HI"),
                       action="append", default=None,
                       help="an explicit range query; repeatable")
    query.add_argument("--count", type=int, default=1000,
                       help="generated queries when no --range is given (default: 1000)")
    query.add_argument("--mix", choices=list(MIX_NAMES), default="mixed",
                       help="generated workload mix (default: mixed)")
    query.add_argument("--seed", type=int, default=7, help="workload seed (default: 7)")
    query.add_argument("--show", type=int, default=10,
                       help="how many individual answers to print (default: 10)")
    _add_telemetry_arguments(query)

    bench = subparsers.add_parser(
        "serve-bench",
        help="measure batch-engine query throughput against the scalar loop",
    )
    bench.add_argument("--quick", action="store_true", help="use the small test workload")
    bench.add_argument("--count", type=int, default=None,
                       help="queries to serve (default: configuration num_queries)")
    bench.add_argument("--mix", choices=list(MIX_NAMES), default=None,
                       help="workload mix (default: configuration query_mix)")
    bench.add_argument("--store", default=None, metavar="DIR",
                       help="persist/reload the synopsis through this store "
                            "(default: a temporary store)")
    _add_telemetry_arguments(bench)

    serve = subparsers.add_parser(
        "serve", help="serve stored synopses: catalog listing and "
                      "multi-synopsis fan-out queries"
    )
    serve_commands = serve.add_subparsers(dest="serve_command", required=True)

    catalog = serve_commands.add_parser(
        "catalog", help="list every stored synopsis (latest versions)"
    )
    catalog.add_argument("--store", required=True, metavar="DIR",
                         help="root directory of the synopsis store")

    fanout = serve_commands.add_parser(
        "query", help="fan one workload out across several stored synopses"
    )
    fanout.add_argument("--store", required=True, metavar="DIR",
                        help="root directory of the synopsis store")
    fanout.add_argument("--name", dest="names", action="append", required=True,
                        metavar="NAME",
                        help="a stored synopsis to query; repeatable")
    fanout.add_argument("--count", type=int, default=1000,
                        help="generated queries per synopsis (default: 1000)")
    fanout.add_argument("--mix", choices=list(MIX_NAMES), default="mixed",
                        help="generated workload mix (default: mixed)")
    fanout.add_argument("--seed", type=int, default=7,
                        help="workload seed (default: 7)")
    fanout.add_argument("--profile", default=None, metavar="SPEC",
                        help="runtime profile of the service, e.g. "
                             "'parallel:4' (default: serial); queries are "
                             "answered in-process whatever its executor")

    ingest = subparsers.add_parser(
        "ingest", help="stream generated update batches into a synopsis "
                       "(incremental maintenance: delta publishes, no rebuilds)"
    )
    ingest.add_argument("--store", required=True, metavar="DIR",
                        help="root directory of the synopsis store")
    ingest.add_argument("--name", required=True,
                        help="stream/synopsis name to maintain")
    ingest.add_argument("--u", type=int, default=4096,
                        help="key domain for a NEW stream (power of two; an "
                             "existing stream recovers its own, and a "
                             "conflicting value fails; default: 4096)")
    ingest.add_argument("--k", type=int, default=30,
                        help="coefficient budget for a NEW stream (default: 30)")
    ingest.add_argument("--batches", type=int, default=8,
                        help="update batches to generate (default: 8)")
    ingest.add_argument("--batch-size", dest="batch_size", type=int, default=2000,
                        help="updates per batch (default: 2000)")
    ingest.add_argument("--delete-fraction", dest="delete_fraction", type=float,
                        default=0.0,
                        help="fraction of each batch that deletes live records "
                             "(default: 0.0)")
    ingest.add_argument("--seed", type=int, default=7,
                        help="update-stream seed (default: 7)")
    ingest.add_argument("--cadence", type=int, default=2,
                        help="publish every N applied batches (default: 2)")
    ingest.add_argument("--window", type=int, default=None, metavar="W",
                        help="maintain a sliding window over the last W "
                             "batches instead of the full stream")
    ingest.add_argument("--profile", default=None, metavar="SPEC",
                        help="runtime profile for the ingest executor, e.g. "
                             "'parallel:4' (default: serial)")
    _add_telemetry_arguments(ingest)

    maintain = subparsers.add_parser(
        "maintain", help="fold a stream's pending state into a published "
                         "version (recovery: completes a crashed publish)"
    )
    maintain.add_argument("--store", required=True, metavar="DIR",
                          help="root directory of the synopsis store")
    maintain.add_argument("--name", required=True,
                          help="stream/synopsis name to maintain")
    maintain.add_argument("--force", action="store_true",
                          help="republish from the durable state even when "
                               "the serving synopsis is up to date")
    _add_telemetry_arguments(maintain)

    telemetry = subparsers.add_parser(
        "telemetry", help="render a span-trace summary from a --trace JSONL "
                          "export (plus an optional --metrics snapshot)"
    )
    telemetry.add_argument("trace_file", metavar="TRACE",
                           help="JSONL span trace written by --trace")
    telemetry.add_argument("--metrics", dest="metrics_file", default=None,
                           metavar="FILE",
                           help="also summarise this JSON metrics snapshot")
    return parser


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record span events for this run and export them as JSONL "
             "(render with 'repro telemetry FILE')",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write the metrics-registry snapshot after the run: JSON, or "
             "Prometheus text exposition when FILE ends in .prom",
    )


def _add_executor_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--executor", choices=list(EXECUTOR_NAMES), default="serial",
        help="task executor for the MapReduce phases; 'parallel' runs map tasks "
             "and reduce partitions in a process pool with bit-identical results",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for --executor parallel (default: CPU count)",
    )
    parser.add_argument(
        "--data-plane", dest="data_plane", choices=list(DATA_PLANE_NAMES),
        default="batch",
        help="how records move through the build runtime: 'batch' is the "
             "columnar fast path, 'records' the record-at-a-time reference "
             "path; results are bit-identical either way",
    )
    parser.add_argument(
        "--concurrent-jobs", dest="concurrent_jobs", type=int, default=None,
        metavar="N",
        help="build up to N algorithms concurrently on the cluster's shared "
             "map/reduce slot pool (default: 1, strictly sequential); "
             "results are bit-identical for every N",
    )
    parser.add_argument(
        "--fault-rate", dest="fault_rate", type=float, default=None,
        metavar="P",
        help="chaos testing: inject transient task faults with probability P "
             "per attempt (deterministic given --fault-seed); retried runs "
             "stay bit-identical to fault-free runs",
    )
    parser.add_argument(
        "--fault-seed", dest="fault_seed", type=int, default=None, metavar="S",
        help="seed of the injected-fault stream (default: 0); independent of "
             "the build seed, so injection never perturbs task RNGs",
    )
    parser.add_argument(
        "--profile", default=None, metavar="SPEC",
        help="combined runtime-profile specification overriding the flags "
             "above: an executor shorthand ('serial', 'parallel', "
             "'parallel:8') or key=value pairs over executor/workers/"
             "seed/data-plane/concurrent-jobs/fault-rate/fault-seed, e.g. "
             "'executor=parallel,data-plane=records' or "
             "'parallel:4,concurrent-jobs=5'",
    )


def _configuration(quick: bool, k: Optional[int] = None,
                   epsilon: Optional[float] = None,
                   executor: str = "serial",
                   workers: Optional[int] = None,
                   data_plane: str = "batch",
                   concurrent_jobs: Optional[int] = None,
                   fault_rate: Optional[float] = None,
                   fault_seed: Optional[int] = None,
                   profile: Optional[str] = None) -> ExperimentConfig:
    config = ExperimentConfig.quick() if quick else ExperimentConfig()
    overrides = {"executor": executor, "workers": workers, "data_plane": data_plane}
    if k is not None:
        overrides["k"] = k
    if epsilon is not None:
        overrides["epsilon"] = epsilon
    if concurrent_jobs is not None:
        overrides["concurrent_jobs"] = concurrent_jobs
    if fault_rate is not None:
        overrides["fault_rate"] = fault_rate
    if fault_seed is not None:
        overrides["fault_seed"] = fault_seed
    if profile is not None:
        # The combined --profile spec wins over the individual flags; only the
        # keys actually present in the spec are applied.
        overrides.update(RuntimeProfile.parse_overrides(profile))
    return config.with_overrides(**overrides)


def _run_compare(arguments: argparse.Namespace) -> List[str]:
    config = _configuration(arguments.quick, arguments.k, arguments.epsilon,
                            executor=arguments.executor, workers=arguments.workers,
                            data_plane=arguments.data_plane,
                            concurrent_jobs=arguments.concurrent_jobs,
                            fault_rate=arguments.fault_rate,
                            fault_seed=arguments.fault_seed,
                            profile=arguments.profile)
    dataset = config.build_dataset()
    cluster = config.build_cluster(dataset)
    reference = dataset.frequency_vector()
    ideal_sse = WaveletHistogram.from_frequency_vector(reference, config.k).sse(reference)
    measurements = run_algorithms(dataset, standard_algorithms(config),
                                  reference=reference,
                                  profile=config.build_profile(cluster))
    lines = [
        f"workload: n={dataset.n} u=2^{config.u.bit_length() - 1} alpha={config.alpha} "
        f"k={config.k} eps={config.epsilon} (~{config.target_splits} splits, "
        f"executor={config.executor}, data-plane={config.data_plane})",
        f"{'algorithm':<12} {'rounds':>6} {'comm (bytes)':>14} {'time (s)':>12} {'SSE/ideal':>10}",
    ]
    for measurement in measurements:
        lines.append(
            f"{measurement.algorithm:<12} {measurement.num_rounds:>6} "
            f"{measurement.communication_bytes:>14,.0f} {measurement.simulated_time_s:>12.1f} "
            f"{measurement.sse / ideal_sse:>10.2f}"
        )
    return lines


def _run_figure(arguments: argparse.Namespace) -> List[str]:
    config = _configuration(arguments.quick, executor=arguments.executor,
                            workers=arguments.workers,
                            data_plane=arguments.data_plane,
                            concurrent_jobs=arguments.concurrent_jobs,
                            fault_rate=arguments.fault_rate,
                            fault_seed=arguments.fault_seed,
                            profile=arguments.profile)
    table = FIGURE_DRIVERS[arguments.name](config)
    return [table.format()]


def _list_figures() -> List[str]:
    width = max(len(name) for name in FIGURE_DRIVERS)
    return [f"{name.ljust(width)}  {FIGURE_DESCRIPTIONS[name]}"
            for name in sorted(FIGURE_DRIVERS)]


def _run_build(arguments: argparse.Namespace) -> List[str]:
    config = _configuration(arguments.quick, arguments.k, arguments.epsilon,
                            executor=arguments.executor, workers=arguments.workers,
                            data_plane=arguments.data_plane,
                            concurrent_jobs=arguments.concurrent_jobs,
                            fault_rate=arguments.fault_rate,
                            fault_seed=arguments.fault_seed,
                            profile=arguments.profile
                            ).with_overrides(store_path=arguments.store)
    dataset = config.build_dataset()
    algorithm = _build_algorithm(arguments.algorithm, config)
    profile = config.build_profile(config.build_cluster(dataset))
    service = SynopsisService(store=config.build_store(), profile=profile)
    if profile.concurrent_jobs > 1:
        # Route the single build through the scheduler batch so the slot
        # pool statistics are observable (results are bit-identical).
        report = service.build_many([(algorithm, dataset, arguments.name)])[0]
        if not report.ok:
            raise SchedulerError(f"build of {arguments.algorithm!r} failed: "
                                 f"{report.error}")
    else:
        report = service.build(algorithm, dataset, name=arguments.name)
    result = report.result
    lines = [
        f"built {result.algorithm} over n={dataset.n} u=2^{config.u.bit_length() - 1} "
        f"in {result.num_rounds} round(s), "
        f"{result.communication_bytes:,.0f} bytes communicated",
        f"stored {report.name} v{report.version} "
        f"({len(result.histogram)} coefficients, "
        f"sha256 {report.checksum_sha256[:12]}...) in {arguments.store}",
    ]
    if report.scheduler_stats is not None:
        lines.append(f"scheduler: {report.scheduler_stats.describe()}")
    return lines


def _run_query(arguments: argparse.Namespace) -> List[str]:
    store = SynopsisStore(arguments.store)
    server = QueryServer(store)
    synopsis = server.synopsis(arguments.name, arguments.version)
    metadata = synopsis.metadata
    if arguments.ranges:
        los = np.array([lo for lo, _ in arguments.ranges], dtype=np.int64)
        his = np.array([hi for _, hi in arguments.ranges], dtype=np.int64)
        source = f"{los.size} explicit range(s)"
    else:
        workload = WorkloadGenerator(metadata.u, seed=arguments.seed).generate(
            arguments.count, arguments.mix)
        los, his = workload.los, workload.his
        source = f"{los.size} generated {arguments.mix} queries (seed {arguments.seed})"
    estimates = server.range_sums(arguments.name, los, his, version=arguments.version)
    engine = server.engine(arguments.name, arguments.version)
    total = engine.estimated_total()
    lines = [
        f"synopsis {metadata.name} v{metadata.version}: algorithm={metadata.algorithm} "
        f"u=2^{metadata.u.bit_length() - 1} coefficients={metadata.coefficient_count} "
        f"estimated total={total:,.0f}",
        f"answered {source}",
        f"{'lo':>10} {'hi':>10} {'estimate':>16} {'selectivity':>12}",
    ]
    shown = min(max(arguments.show, 0), estimates.size)
    for lo, hi, estimate in zip(los[:shown], his[:shown], estimates[:shown]):
        selectivity = estimate / total if total else 0.0
        lines.append(f"{lo:>10} {hi:>10} {estimate:>16,.1f} {selectivity:>12.5f}")
    if estimates.size > shown:
        lines.append(f"... {estimates.size - shown} more")
    lines.append(
        f"batch mean estimate {float(np.mean(estimates)):,.1f}, "
        f"min {float(np.min(estimates)):,.1f}, max {float(np.max(estimates)):,.1f}"
    )
    return lines


def _run_serve_catalog(arguments: argparse.Namespace) -> List[str]:
    service = SynopsisService(store=SynopsisStore(arguments.store))
    entries = service.catalog()
    if not entries:
        return [f"store {arguments.store} holds no synopses"]
    lines = [
        f"store {arguments.store}: {len(entries)} synopsis(es)",
        f"{'name':<24} {'latest':>6} {'algorithm':<12} {'u':>10} {'k':>5} {'coeffs':>7}",
    ]
    for metadata in entries:
        lines.append(
            f"{metadata.name:<24} {metadata.version:>6} {metadata.algorithm:<12} "
            f"{metadata.u:>10} {metadata.k if metadata.k is not None else '-':>5} "
            f"{metadata.coefficient_count:>7}"
        )
    return lines


def _run_serve_query(arguments: argparse.Namespace) -> List[str]:
    profile = (RuntimeProfile.parse(arguments.profile)
               if arguments.profile is not None else RuntimeProfile())
    service = SynopsisService(store=SynopsisStore(arguments.store), profile=profile)
    names = list(arguments.names)
    # One workload over the smallest domain among the targets, so every
    # query is valid against every synopsis it fans out to.
    domain = min(service.store.load(name).metadata.u for name in names)
    workload = WorkloadGenerator(domain, seed=arguments.seed).generate(
        arguments.count, arguments.mix)
    answers = service.query_workload(names, workload)
    lines = [
        f"fanned {arguments.count} {arguments.mix} queries (seed {arguments.seed}, "
        f"domain 2^{domain.bit_length() - 1}) across {len(names)} synopsis(es) "
        f"[{profile.describe()}]",
        f"{'name':<24} {'mean':>14} {'min':>14} {'max':>14}",
    ]
    for name in names:
        estimates = answers[name]
        lines.append(
            f"{name:<24} {float(np.mean(estimates)):>14,.1f} "
            f"{float(np.min(estimates)):>14,.1f} {float(np.max(estimates)):>14,.1f}"
        )
    return lines


def _run_serve_bench(arguments: argparse.Namespace) -> List[str]:
    config = _configuration(arguments.quick)
    count = arguments.count if arguments.count is not None else config.num_queries
    mix = arguments.mix if arguments.mix is not None else config.query_mix

    dataset = config.build_dataset()
    reference = dataset.frequency_vector()
    histogram = WaveletHistogram.from_frequency_vector(reference, config.k)

    # Round-trip through a store so the benchmark serves what a server would.
    if arguments.store is not None:
        store = SynopsisStore(arguments.store)
    else:
        import tempfile

        store = SynopsisStore(tempfile.mkdtemp(prefix="repro-serve-bench-"))
    metadata = store.save("serve-bench", histogram, algorithm="exact-topk",
                          seed=config.seed)
    served = store.load("serve-bench", metadata.version)
    workload = config.build_workload(count=count, mix=mix)

    report = measure_serving_throughput(served, workload)

    # The synopsis was built exact, so its served total must match the data.
    total = served.engine().estimated_total()
    if abs(total - dataset.n) > 1e-6 * max(1.0, dataset.n):
        raise ServingError(
            f"estimated total {total} deviates from the dataset size {dataset.n}"
        )

    header = (
        f"serve-bench: {count} {mix} queries over {metadata.name} "
        f"v{metadata.version} (u=2^{metadata.u.bit_length() - 1}, "
        f"{metadata.coefficient_count} coefficients)"
    )
    return [header] + report.table_lines()


def _run_ingest(arguments: argparse.Namespace) -> List[str]:
    profile = (RuntimeProfile.parse(arguments.profile)
               if arguments.profile is not None else RuntimeProfile())
    service = SynopsisService(store=SynopsisStore(arguments.store), profile=profile)
    generator = UpdateStreamGenerator(
        arguments.u, seed=arguments.seed,
        delete_fraction=arguments.delete_fraction,
    )
    batches = generator.batches(arguments.batch_size, arguments.batches)
    published = []
    inserts = deletes = 0
    for batch in batches:
        metadata = service.ingest(
            arguments.name, batch.inserts, batch.deletes,
            u=arguments.u, k=arguments.k, cadence=arguments.cadence,
            window=arguments.window,
        )
        inserts += int(batch.inserts.size)
        deletes += int(batch.deletes.size)
        if metadata is not None:
            published.append(metadata)
    # Flush any tail below the cadence (a no-op for windowed streams, which
    # publish per epoch).
    metadata = service.maintain(arguments.name)
    if metadata is not None:
        published.append(metadata)
    mode = (f"sliding window of {arguments.window}" if arguments.window
            else f"cadence {arguments.cadence}")
    lines = [
        f"ingested {len(batches)} batch(es) into {arguments.name!r} "
        f"({inserts:,} insertions, {deletes:,} deletions, {mode}) "
        f"[{profile.describe()}]",
    ]
    for metadata in published:
        parent = f"v{metadata.parent_version}" if metadata.parent_version else "scratch"
        lines.append(
            f"published v{metadata.version} (delta over {parent}, "
            f"{metadata.build.get('applied_batches')} batch(es) applied, "
            f"sha256 {metadata.checksum_sha256[:12]}...)"
        )
    if not published:
        lines.append("nothing published (all batches below the cadence?)")
    return lines


def _run_maintain(arguments: argparse.Namespace) -> List[str]:
    service = SynopsisService(store=SynopsisStore(arguments.store))
    metadata = service.maintain(arguments.name, force=arguments.force)
    if metadata is None:
        return [f"stream {arguments.name!r} is up to date (nothing pending)"]
    parent = f"v{metadata.parent_version}" if metadata.parent_version else "scratch"
    return [
        f"published {metadata.name} v{metadata.version} (delta over {parent}, "
        f"{metadata.build.get('applied_batches')} batch(es) applied, "
        f"sha256 {metadata.checksum_sha256[:12]}...)"
    ]


def _run_telemetry(arguments: argparse.Namespace) -> List[str]:
    events = Tracer.load_jsonl(arguments.trace_file)
    lines = [f"trace {arguments.trace_file}:"]
    lines.extend(render_trace_summary(events))
    if arguments.metrics_file:
        import json

        with open(arguments.metrics_file, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        lines.append("")
        lines.append(f"metrics {arguments.metrics_file}:")
        lines.extend(render_metrics_summary(snapshot))
    return lines


def _export_telemetry(telemetry: Telemetry, trace_path: Optional[str],
                      metrics_path: Optional[str]) -> List[str]:
    """Write the session's trace/metrics files; returns report lines."""
    lines = []
    if trace_path:
        count = telemetry.tracer.export_jsonl(trace_path)
        lines.append(f"trace: {count} span(s) -> {trace_path}")
    if metrics_path:
        if metrics_path.endswith(".prom"):
            text = registry_to_prometheus(telemetry.metrics)
        else:
            text = registry_to_json(telemetry.metrics)
        with open(metrics_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        lines.append(f"metrics: snapshot -> {metrics_path}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.log_level:
        logging.basicConfig(
            level=getattr(logging, arguments.log_level.upper()),
            format="%(levelname)s %(name)s: %(message)s",
        )
    trace_path = getattr(arguments, "trace", None)
    metrics_path = getattr(arguments, "metrics", None)
    telemetry = None
    if trace_path or metrics_path:
        # A session-scoped bundle: spans are recorded only when --trace asked
        # for them; the metrics registry is cheap and always on.
        telemetry = Telemetry(tracer=Tracer(enabled=bool(trace_path)))
        set_telemetry(telemetry)
    try:
        if arguments.command == "compare":
            lines = _run_compare(arguments)
        elif arguments.command == "figure":
            lines = _run_figure(arguments)
        elif arguments.command == "build":
            lines = _run_build(arguments)
        elif arguments.command == "query":
            lines = _run_query(arguments)
        elif arguments.command == "serve":
            if arguments.serve_command == "catalog":
                lines = _run_serve_catalog(arguments)
            else:
                lines = _run_serve_query(arguments)
        elif arguments.command == "serve-bench":
            lines = _run_serve_bench(arguments)
        elif arguments.command == "ingest":
            lines = _run_ingest(arguments)
        elif arguments.command == "maintain":
            lines = _run_maintain(arguments)
        elif arguments.command == "telemetry":
            lines = _run_telemetry(arguments)
        else:
            lines = _list_figures()
    except ReproError as error:
        # Expected failure modes (bad parameters, exhausted retries,
        # quarantined synopses, ...) exit with a one-line diagnosis, not a
        # traceback; --traceback opts back into the full stack.
        if arguments.traceback:
            raise
        print(f"repro {arguments.command}: error: "
              f"{type(error).__name__}: {error}", file=sys.stderr)
        return 2
    if telemetry is not None:
        lines.extend(_export_telemetry(telemetry, trace_path, metrics_path))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
