"""Per-figure experiment drivers (paper Section 5, Figures 5-19).

Every public function reproduces one figure (or one pair of sub-figures that
share the same sweep): it generates the workload, runs the relevant
algorithms through the simulated cluster and returns a
:class:`~repro.experiments.reporting.FigureTable` whose rows are the series
the paper plots — communication in bytes, simulated running time in seconds
and SSE, per algorithm and per x-axis value.

The sweeps default to the scaled-down grid described in
:mod:`repro.experiments.config`; pass an explicit :class:`ExperimentConfig`
or sweep values to change the scale.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.algorithms import (
    BasicSampling,
    HWTopk,
    ImprovedSampling,
    SendCoef,
    SendSketch,
    SendV,
    TwoLevelSampling,
)
from repro.data.dataset import Dataset
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import FigureTable
from repro.experiments.runner import ExperimentMeasurement, run_algorithms, standard_algorithms
from repro.mapreduce.counters import CounterNames
from repro.sampling.estimators import (
    basic_sampling_communication_bound,
    improved_sampling_communication_bound,
    two_level_communication_bound,
)

__all__ = [
    "vary_k",
    "vary_epsilon",
    "sse_tradeoff",
    "vary_n",
    "vary_record_size",
    "vary_domain",
    "vary_split_size",
    "vary_skew",
    "vary_bandwidth",
    "worldcup_costs",
    "worldcup_tradeoff",
    "analysis_communication_bounds",
    "ablation_combiner",
    "ablation_hwtopk_rounds",
    "ablation_twolevel_threshold",
]

COST_COLUMNS = ["x", "algorithm", "communication_bytes", "time_s", "sse", "rounds"]


def _config(config: Optional[ExperimentConfig]) -> ExperimentConfig:
    return config if config is not None else ExperimentConfig()


def _add_measurements(table: FigureTable, x_value, measurements: Iterable[ExperimentMeasurement]) -> None:
    for measurement in measurements:
        table.add_row(
            x=x_value,
            algorithm=measurement.algorithm,
            communication_bytes=measurement.communication_bytes,
            time_s=measurement.simulated_time_s,
            sse=measurement.sse,
            rounds=measurement.num_rounds,
        )


def _scale_note(config: ExperimentConfig, dataset: Dataset) -> str:
    return (
        f"scaled workload: n={dataset.n}, u={config.u}, alpha={config.alpha}, "
        f"record={dataset.record_size_bytes}B, ~{config.target_splits} splits; "
        f"times mapped to the paper's 50GB/16-node regime "
        f"(scale factor {config.scale_factor(dataset):.0f}x)"
    )


# --------------------------------------------------------------------- Fig 5/6
def vary_k(config: Optional[ExperimentConfig] = None,
           ks: Sequence[int] = (10, 20, 30, 40, 50)) -> FigureTable:
    """Figures 5(a), 5(b) and 6: communication, running time and SSE versus k."""
    config = _config(config)
    dataset = config.build_dataset()
    reference = dataset.frequency_vector()
    table = FigureTable(
        figure="Figures 5-6",
        title="vary k: communication (bytes), running time (s) and SSE",
        columns=COST_COLUMNS,
        notes=[_scale_note(config, dataset)],
    )
    for k in ks:
        cluster = config.build_cluster(dataset)
        measurements = run_algorithms(
            dataset, standard_algorithms(config, k=k), reference=reference,
            profile=config.build_profile(cluster)
        )
        _add_measurements(table, k, measurements)
    return table


# --------------------------------------------------------------------- Fig 7/8
def vary_epsilon(config: Optional[ExperimentConfig] = None,
                 epsilons: Sequence[float] = (0.02, 0.01, 0.005, 0.003, 0.002)) -> FigureTable:
    """Figures 7, 8(a) and 8(b): SSE, communication and time of the sampling methods versus eps.

    H-WTopk is run once as the exact/ideal SSE reference, as in Figure 7.
    """
    config = _config(config)
    dataset = config.build_dataset()
    reference = dataset.frequency_vector()
    profile = config.build_profile(config.build_cluster(dataset))
    table = FigureTable(
        figure="Figures 7-8",
        title="vary eps: SSE, communication and running time of the sampling methods",
        columns=COST_COLUMNS,
        notes=[_scale_note(config, dataset)],
    )
    ideal = run_algorithms(dataset, [HWTopk(config.u, config.k)],
                           reference=reference, profile=profile)
    _add_measurements(table, "exact", ideal)
    for epsilon in epsilons:
        algorithms = [
            ImprovedSampling(config.u, config.k, epsilon=epsilon),
            TwoLevelSampling(config.u, config.k, epsilon=epsilon),
        ]
        measurements = run_algorithms(dataset, algorithms,
                                      reference=reference, profile=profile)
        _add_measurements(table, epsilon, measurements)
    return table


# ----------------------------------------------------------------------- Fig 9
def sse_tradeoff(config: Optional[ExperimentConfig] = None,
                 epsilons: Sequence[float] = (0.02, 0.01, 0.005, 0.003, 0.002),
                 sketch_bytes: Sequence[int] = (4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024),
                 dataset: Optional[Dataset] = None,
                 figure: str = "Figure 9") -> FigureTable:
    """Figure 9 (and 19 for WorldCup): communication/time needed to reach a given SSE.

    Sampling methods trade accuracy for cost through ``eps``; Send-Sketch
    through its per-level space budget.  Each row is one (algorithm, setting)
    point with its SSE, communication and time.
    """
    config = _config(config)
    data = dataset if dataset is not None else config.build_dataset()
    reference = data.frequency_vector()
    profile = config.build_profile(config.build_cluster(data))
    table = FigureTable(
        figure=figure,
        title="SSE versus communication and running time (approximation methods)",
        columns=["algorithm", "setting", "sse", "communication_bytes", "time_s"],
        notes=[_scale_note(config, data)],
    )
    for epsilon in epsilons:
        algorithms = [
            ImprovedSampling(data.u, config.k, epsilon=epsilon),
            TwoLevelSampling(data.u, config.k, epsilon=epsilon),
        ]
        for measurement in run_algorithms(data, algorithms,
                                          reference=reference, profile=profile):
            table.add_row(algorithm=measurement.algorithm, setting=f"eps={epsilon}",
                          sse=measurement.sse,
                          communication_bytes=measurement.communication_bytes,
                          time_s=measurement.simulated_time_s)
    for budget in sketch_bytes:
        algorithm = SendSketch(data.u, config.k, bytes_per_level=budget)
        for measurement in run_algorithms(data, [algorithm],
                                          reference=reference, profile=profile):
            table.add_row(algorithm=measurement.algorithm, setting=f"sketch={budget}B/level",
                          sse=measurement.sse,
                          communication_bytes=measurement.communication_bytes,
                          time_s=measurement.simulated_time_s)
    return table


# ---------------------------------------------------------------------- Fig 10
def vary_n(config: Optional[ExperimentConfig] = None,
           ns: Sequence[int] = (160_000, 320_000, 640_000, 1_280_000)) -> FigureTable:
    """Figures 10(a) and 10(b): communication and running time versus dataset size n.

    As in the paper the split size is held fixed, so the number of splits m
    grows with n.
    """
    config = _config(config)
    base_dataset = config.build_dataset()
    fixed_split_size = config.split_size_bytes(base_dataset)
    # All points of the sweep are priced against the same (anchor) cluster so
    # the trend with n reflects the extra work, not a changing time scale.
    anchor_scale = config.scale_factor(base_dataset)
    table = FigureTable(
        figure="Figure 10",
        title="vary dataset size n (fixed split size, m grows with n)",
        columns=COST_COLUMNS,
        notes=[_scale_note(config, base_dataset),
               f"fixed split size {fixed_split_size} bytes"],
    )
    for n in ns:
        sweep_config = config.with_overrides(n=n)
        dataset = sweep_config.build_dataset()
        reference = dataset.frequency_vector()
        cluster = sweep_config.build_cluster(dataset, scale=anchor_scale)
        cluster = cluster.with_split_size(fixed_split_size)
        measurements = run_algorithms(dataset, standard_algorithms(sweep_config),
                                      reference=reference, profile=config.build_profile(cluster))
        _add_measurements(table, n, measurements)
    return table


# ---------------------------------------------------------------------- Fig 11
def vary_record_size(config: Optional[ExperimentConfig] = None,
                     record_sizes: Sequence[int] = (4, 64, 512, 4096),
                     num_records: int = 65_536) -> FigureTable:
    """Figures 11(a) and 11(b): communication and time versus record size (fixed record count).

    As in the paper the split size (in bytes) is held fixed across the sweep,
    so larger records mean a larger file and therefore more splits — from a
    single split at the smallest record size up to ``target_splits`` at the
    largest, mirroring the paper's 1-to-1600 split range.
    """
    config = _config(config)
    table = FigureTable(
        figure="Figure 11",
        title=f"vary record size with {num_records} records (file size grows with record size)",
        columns=COST_COLUMNS,
    )
    # Fixed split size: the largest file divides into ~target_splits splits.
    largest_bytes = num_records * max(record_sizes)
    fixed_split_size = max(max(record_sizes), -(-largest_bytes // config.target_splits))
    # Anchor the time scale at the largest file of the sweep (the paper's
    # 400 GB end point); the smaller files are then overhead-dominated, as in
    # Figure 11 where the 16 MB file takes a near-constant baseline time.
    anchor_config = config.with_overrides(n=num_records, record_size_bytes=max(record_sizes))
    anchor_scale = anchor_config.scale_factor(anchor_config.build_dataset())
    for record_size in record_sizes:
        sweep_config = config.with_overrides(n=num_records, record_size_bytes=record_size)
        dataset = sweep_config.build_dataset()
        reference = dataset.frequency_vector()
        cluster = sweep_config.build_cluster(dataset, scale=anchor_scale)
        cluster = cluster.with_split_size(fixed_split_size)
        measurements = run_algorithms(dataset, standard_algorithms(sweep_config),
                                      reference=reference, profile=config.build_profile(cluster))
        _add_measurements(table, record_size, measurements)
    if not table.notes:
        table.notes.append(
            "paper: 4,194,304 records, 4B-100kB, 1-1600 splits; "
            f"scaled to {num_records} records, {min(record_sizes)}B-{max(record_sizes)}B, "
            "fixed split size"
        )
    return table


# ---------------------------------------------------------------------- Fig 12
def vary_domain(config: Optional[ExperimentConfig] = None,
                log2_us: Sequence[int] = (8, 10, 12, 14, 16)) -> FigureTable:
    """Figures 12(a) and 12(b): communication and time versus domain size u (includes Send-Coef)."""
    config = _config(config)
    table = FigureTable(
        figure="Figure 12",
        title="vary domain size u (Send-Coef included, as in the paper)",
        columns=COST_COLUMNS,
        notes=["paper sweeps u = 2^8 .. 2^32; scaled sweep 2^8 .. 2^16"],
    )
    for log2_u in log2_us:
        u = 2 ** log2_u
        sweep_config = config.with_overrides(u=u)
        dataset = sweep_config.build_dataset()
        reference = dataset.frequency_vector()
        cluster = sweep_config.build_cluster(dataset)
        algorithms = standard_algorithms(sweep_config) + [SendCoef(u, sweep_config.k)]
        measurements = run_algorithms(dataset, algorithms,
                                      reference=reference, profile=config.build_profile(cluster))
        _add_measurements(table, log2_u, measurements)
    return table


# ---------------------------------------------------------------------- Fig 13
def vary_split_size(config: Optional[ExperimentConfig] = None,
                    split_counts: Sequence[int] = (256, 128, 64, 32)) -> FigureTable:
    """Figures 13(a) and 13(b): communication and time versus split size beta (n fixed).

    The paper varies beta from 64 MB to 512 MB for the 50 GB dataset, i.e.
    m from 800 down to 100; the scaled sweep varies m from 256 down to 32.
    """
    config = _config(config)
    dataset = config.build_dataset()
    reference = dataset.frequency_vector()
    table = FigureTable(
        figure="Figure 13",
        title="vary split size (x = split size in bytes; m = n_bytes / split size)",
        columns=COST_COLUMNS,
        notes=[_scale_note(config, dataset)],
    )
    for split_count in split_counts:
        sweep_config = config.with_overrides(target_splits=split_count)
        cluster = sweep_config.build_cluster(dataset)
        measurements = run_algorithms(dataset, standard_algorithms(sweep_config),
                                      reference=reference, profile=config.build_profile(cluster))
        _add_measurements(table, sweep_config.split_size_bytes(dataset), measurements)
    return table


# ------------------------------------------------------------------- Fig 14/15
def vary_skew(config: Optional[ExperimentConfig] = None,
              alphas: Sequence[float] = (0.8, 1.1, 1.4)) -> FigureTable:
    """Figures 14(a), 14(b) and 15: communication, time and SSE versus Zipf skew alpha."""
    config = _config(config)
    table = FigureTable(
        figure="Figures 14-15",
        title="vary Zipf skew alpha",
        columns=COST_COLUMNS,
    )
    for alpha in alphas:
        sweep_config = config.with_overrides(alpha=alpha)
        dataset = sweep_config.build_dataset()
        reference = dataset.frequency_vector()
        cluster = sweep_config.build_cluster(dataset)
        measurements = run_algorithms(dataset, standard_algorithms(sweep_config),
                                      reference=reference, profile=config.build_profile(cluster))
        _add_measurements(table, alpha, measurements)
        if not table.notes:
            table.notes.append(_scale_note(sweep_config, dataset))
    return table


# ---------------------------------------------------------------------- Fig 16
def vary_bandwidth(config: Optional[ExperimentConfig] = None,
                   fractions: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 1.0)) -> FigureTable:
    """Figure 16: running time versus available network bandwidth B."""
    config = _config(config)
    dataset = config.build_dataset()
    reference = dataset.frequency_vector()
    table = FigureTable(
        figure="Figure 16",
        title="vary available bandwidth (fraction of the 100 Mbps switch)",
        columns=COST_COLUMNS,
        notes=[_scale_note(config, dataset)],
    )
    for fraction in fractions:
        cluster = config.build_cluster(dataset, bandwidth_fraction=fraction)
        measurements = run_algorithms(dataset, standard_algorithms(config),
                                      reference=reference, profile=config.build_profile(cluster))
        _add_measurements(table, fraction, measurements)
    return table


# ------------------------------------------------------------------- Fig 17/18
def worldcup_costs(config: Optional[ExperimentConfig] = None) -> FigureTable:
    """Figures 17(a), 17(b) and 18: all algorithms on the WorldCup-like dataset."""
    config = _config(config)
    dataset = config.build_worldcup_dataset()
    reference = dataset.frequency_vector()
    cluster = config.build_cluster(dataset)
    table = FigureTable(
        figure="Figures 17-18",
        title="WorldCup-like dataset: communication, running time and SSE",
        columns=COST_COLUMNS,
        notes=[
            "the real WorldCup'98 log is not redistributable; a synthetic "
            "heavy-tailed client x object workload with the same key structure is used",
            _scale_note(config, dataset),
        ],
    )
    measurements = run_algorithms(dataset, standard_algorithms(config),
                                  reference=reference, profile=config.build_profile(cluster))
    _add_measurements(table, "worldcup", measurements)
    return table


# ---------------------------------------------------------------------- Fig 19
def worldcup_tradeoff(config: Optional[ExperimentConfig] = None,
                      epsilons: Sequence[float] = (0.02, 0.01, 0.005, 0.003, 0.002),
                      sketch_bytes: Sequence[int] = (4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024),
                      ) -> FigureTable:
    """Figure 19: SSE versus communication/time trade-off on the WorldCup-like dataset."""
    config = _config(config)
    dataset = config.build_worldcup_dataset()
    return sse_tradeoff(config, epsilons=epsilons, sketch_bytes=sketch_bytes,
                        dataset=dataset, figure="Figure 19")


# ------------------------------------------------------------------ Section 4
def analysis_communication_bounds(epsilon: float = 1e-4, num_splits: int = 1000,
                                  key_bytes: int = 4) -> FigureTable:
    """The Section 4 closed-form example: Basic vs Improved vs TwoLevel communication bounds.

    With m = 1000, eps = 1e-4 and 4-byte keys the paper quotes roughly 400 MB,
    40 MB and 1.2 MB respectively.
    """
    table = FigureTable(
        figure="Section 4 analysis",
        title=f"analytic communication bounds (m={num_splits}, eps={epsilon}, {key_bytes}B keys)",
        columns=["algorithm", "bound_bytes"],
    )
    table.add_row(algorithm="Basic-S",
                  bound_bytes=basic_sampling_communication_bound(epsilon, key_bytes=key_bytes))
    table.add_row(algorithm="Improved-S",
                  bound_bytes=improved_sampling_communication_bound(
                      epsilon, num_splits, key_bytes=key_bytes, count_bytes=0))
    table.add_row(algorithm="TwoLevel-S",
                  bound_bytes=two_level_communication_bound(
                      epsilon, num_splits, key_bytes=key_bytes, count_bytes=0))
    return table


# ------------------------------------------------------------------- Ablations
def ablation_combiner(config: Optional[ExperimentConfig] = None) -> FigureTable:
    """Ablation: in-mapper aggregation / Combine for Basic-S and Send-V.

    Shows that per-split aggregation is what keeps Basic-S's communication at
    one pair per distinct sampled key, and that Send-V gains nothing from an
    additional combiner because its mapper already aggregates.
    """
    config = _config(config)
    dataset = config.build_dataset()
    reference = dataset.frequency_vector()
    cluster = config.build_cluster(dataset)
    algorithms = [
        BasicSampling(config.u, config.k, epsilon=config.epsilon, aggregate_in_mapper=False),
        BasicSampling(config.u, config.k, epsilon=config.epsilon, aggregate_in_mapper=True),
        ImprovedSampling(config.u, config.k, epsilon=config.epsilon),
        TwoLevelSampling(config.u, config.k, epsilon=config.epsilon),
        SendV(config.u, config.k, use_combiner=False),
        SendV(config.u, config.k, use_combiner=True),
    ]
    labels = [
        "Basic-S (no aggregation)",
        "Basic-S (aggregated)",
        "Improved-S",
        "TwoLevel-S",
        "Send-V (no combiner)",
        "Send-V (combiner)",
    ]
    table = FigureTable(
        figure="Ablation: combiner / in-mapper aggregation",
        title="communication with and without per-split aggregation",
        columns=["variant", "communication_bytes", "time_s", "sse"],
        notes=[_scale_note(config, dataset)],
    )
    measurements = run_algorithms(dataset, algorithms,
                                  reference=reference, profile=config.build_profile(cluster))
    for label, measurement in zip(labels, measurements):
        table.add_row(variant=label,
                      communication_bytes=measurement.communication_bytes,
                      time_s=measurement.simulated_time_s,
                      sse=measurement.sse)
    return table


def ablation_hwtopk_rounds(config: Optional[ExperimentConfig] = None) -> FigureTable:
    """Ablation: per-round communication and pruning effectiveness of H-WTopk.

    Reports the bytes shuffled in each of the three rounds, the thresholds T1
    and T2 and the candidate-set size, against the total number of non-zero
    coefficient/split pairs Send-Coef would have shipped.
    """
    config = _config(config)
    dataset = config.build_dataset()
    cluster = config.build_cluster(dataset)
    from repro.mapreduce.hdfs import HDFS

    hdfs = HDFS(datanodes=[machine.name for machine in cluster.machines])
    dataset.to_hdfs(hdfs, "/data/input")
    hwtopk_result = HWTopk(config.u, config.k).run(
        hdfs, "/data/input", profile=config.build_profile(cluster))
    sendcoef_result = SendCoef(config.u, config.k).run(
        hdfs, "/data/input", profile=config.build_profile(cluster))
    table = FigureTable(
        figure="Ablation: H-WTopk rounds",
        title="per-round communication of H-WTopk versus shipping all local coefficients",
        columns=["round", "shuffle_bytes", "shuffle_records", "detail"],
        notes=[_scale_note(config, dataset)],
    )
    for index, round_result in enumerate(hwtopk_result.rounds, start=1):
        detail = ""
        if index == 1:
            detail = f"T1={hwtopk_result.details['T1']:.2f}"
        elif index == 2:
            detail = (f"T2={hwtopk_result.details['T2']:.2f}, "
                      f"|R|={hwtopk_result.details['candidate_set_size']}")
        table.add_row(round=f"H-WTopk round {index}",
                      shuffle_bytes=round_result.shuffle_bytes,
                      shuffle_records=round_result.counters.get(CounterNames.SHUFFLE_RECORDS),
                      detail=detail)
    table.add_row(round="Send-Coef (all local coefficients)",
                  shuffle_bytes=sendcoef_result.rounds[0].shuffle_bytes,
                  shuffle_records=sendcoef_result.rounds[0].counters.get(
                      CounterNames.SHUFFLE_RECORDS),
                  detail="single round")
    return table


def ablation_twolevel_threshold(config: Optional[ExperimentConfig] = None,
                                scales: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0)
                                ) -> FigureTable:
    """Ablation: moving the second-level threshold away from ``1/(eps*sqrt(m))``.

    Smaller thresholds emit more exact counts (more communication, lower
    variance); larger thresholds emit more NULL markers (less communication,
    higher variance).  The paper's choice balances the two at
    ``O(sqrt(m)/eps)`` pairs.
    """
    config = _config(config)
    dataset = config.build_dataset()
    reference = dataset.frequency_vector()
    profile = config.build_profile(config.build_cluster(dataset))
    table = FigureTable(
        figure="Ablation: two-level threshold",
        title="threshold scale versus communication and SSE",
        columns=["threshold_scale", "communication_bytes", "time_s", "sse"],
        notes=[_scale_note(config, dataset)],
    )
    for scale in scales:
        algorithm = TwoLevelSampling(config.u, config.k, epsilon=config.epsilon,
                                     threshold_scale=scale)
        measurement = run_algorithms(dataset, [algorithm],
                                     reference=reference, profile=profile)[0]
        table.add_row(threshold_scale=scale,
                      communication_bytes=measurement.communication_bytes,
                      time_s=measurement.simulated_time_s,
                      sse=measurement.sse)
    return table
