"""Tests for the experiment harness: config, runner and reporting."""

from __future__ import annotations

import pytest

from repro.cli import _configuration
from repro.errors import InvalidParameterError
from repro.experiments.config import PAPER_REFERENCE_BYTES, ExperimentConfig
from repro.experiments.reporting import FigureTable, format_value
from repro.experiments.runner import ExperimentMeasurement, run_algorithms, standard_algorithms
from repro.service import RuntimeProfile


class TestExperimentConfig:
    def test_defaults_are_consistent(self):
        config = ExperimentConfig()
        assert config.u & (config.u - 1) == 0
        assert config.reference_bytes == PAPER_REFERENCE_BYTES

    def test_build_dataset_respects_parameters(self, quick_config):
        dataset = quick_config.build_dataset()
        assert dataset.n == quick_config.n
        assert dataset.u == quick_config.u
        assert dataset.record_size_bytes == quick_config.record_size_bytes

    def test_build_worldcup_dataset(self, quick_config):
        dataset = quick_config.build_worldcup_dataset()
        assert dataset.n == quick_config.n
        assert dataset.u == quick_config.u
        assert dataset.record_size_bytes == 40

    def test_split_size_gives_target_split_count(self, quick_config):
        dataset = quick_config.build_dataset()
        split_size = quick_config.split_size_bytes(dataset)
        splits = -(-dataset.size_bytes // split_size)
        assert abs(splits - quick_config.target_splits) <= 1

    def test_scale_factor(self, quick_config):
        dataset = quick_config.build_dataset()
        expected = PAPER_REFERENCE_BYTES / dataset.size_bytes
        assert quick_config.scale_factor(dataset) == pytest.approx(expected, rel=1e-6)

    def test_build_cluster_scales_work_rates_but_not_overheads(self, quick_config):
        dataset = quick_config.build_dataset()
        scaled = quick_config.build_cluster(dataset)
        unscaled = quick_config.unscaled_cluster(dataset)
        factor = quick_config.scale_factor(dataset)
        assert unscaled.effective_bandwidth_bytes_per_s == pytest.approx(
            scaled.effective_bandwidth_bytes_per_s * factor, rel=1e-6
        )
        assert scaled.job_overhead_s == unscaled.job_overhead_s
        assert scaled.num_workers == unscaled.num_workers == 16

    def test_bandwidth_fraction_override(self, quick_config):
        dataset = quick_config.build_dataset()
        full = quick_config.build_cluster(dataset, bandwidth_fraction=1.0)
        half = quick_config.build_cluster(dataset, bandwidth_fraction=0.5)
        assert full.effective_bandwidth_bytes_per_s == pytest.approx(
            2 * half.effective_bandwidth_bytes_per_s
        )

    def test_with_overrides(self, quick_config):
        changed = quick_config.with_overrides(alpha=1.4, k=10)
        assert changed.alpha == 1.4 and changed.k == 10
        assert quick_config.alpha != 1.4 or quick_config.k != 10

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(n=0)
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(epsilon=0)

    @pytest.mark.parametrize("name", [
        "executor", "workers", "data_plane", "concurrent_jobs", "fault_rate",
        "fault_seed", "zero_copy", "store_path", "query_mix", "num_queries",
    ])
    def test_runtime_and_serving_fields_are_gone(self, name):
        with pytest.raises(TypeError, match=name):
            ExperimentConfig(**{name: None})

    def test_build_profile_is_the_profile_with_cluster_and_seed(self, quick_config):
        cluster = quick_config.build_cluster(quick_config.build_dataset())
        config = ExperimentConfig(
            profile=RuntimeProfile.parse("parallel:2,data-plane=records"))
        assert config.build_profile(cluster) == RuntimeProfile(
            cluster=cluster, seed=42, executor="parallel", workers=2,
            data_plane="records")

    def test_cli_profile_seed_is_the_configuration_seed(self, quick_config):
        cluster = quick_config.build_cluster(quick_config.build_dataset())
        config = _configuration(quick=True, profile="seed=3")
        assert config.seed == 3
        assert config.build_profile(cluster).seed == 3


class TestRunner:
    def test_standard_algorithms_are_the_papers_five(self, quick_config):
        algorithms = standard_algorithms(quick_config)
        assert [algorithm.name for algorithm in algorithms] == [
            "Send-V", "H-WTopk", "Send-Sketch", "Improved-S", "TwoLevel-S",
        ]

    def test_standard_algorithms_overrides(self, quick_config):
        algorithms = standard_algorithms(quick_config, u=2048, k=7, epsilon=0.05)
        assert all(algorithm.u == 2048 and algorithm.k == 7 for algorithm in algorithms)

    def test_run_algorithms_produces_one_measurement_per_algorithm(self, quick_config):
        dataset = quick_config.build_dataset()
        cluster = quick_config.build_cluster(dataset)
        algorithms = standard_algorithms(quick_config)[:2]  # Send-V and H-WTopk
        measurements = run_algorithms(dataset, algorithms,
                                      profile=quick_config.build_profile(cluster))
        assert [m.algorithm for m in measurements] == ["Send-V", "H-WTopk"]
        for measurement in measurements:
            assert measurement.communication_bytes > 0
            assert measurement.simulated_time_s > 0
            assert measurement.sse >= 0
            assert isinstance(measurement, ExperimentMeasurement)

    def test_exact_methods_have_equal_sse(self, quick_config):
        dataset = quick_config.build_dataset()
        cluster = quick_config.build_cluster(dataset)
        reference = dataset.frequency_vector()
        measurements = run_algorithms(dataset, standard_algorithms(quick_config)[:2],
                                      reference=reference,
                                      profile=quick_config.build_profile(cluster))
        assert measurements[0].sse == pytest.approx(measurements[1].sse, rel=1e-9)

    def test_runtime_settings_come_only_from_the_profile(self, quick_config):
        """A stale positional cluster must not bind to ``reference``."""
        dataset = quick_config.build_dataset()
        cluster = quick_config.build_cluster(dataset)
        algorithms = standard_algorithms(quick_config)[:1]
        with pytest.raises(TypeError):
            run_algorithms(dataset, algorithms, cluster)
        for legacy in ("cluster", "seed", "executor", "data_plane", "concurrent_jobs"):
            with pytest.raises(TypeError, match=legacy):
                run_algorithms(dataset, algorithms, **{legacy: None})


class TestReporting:
    def test_format_value(self):
        assert format_value(3) == "3"
        assert format_value(0.5) == "0.500"
        assert format_value(1.23e9) == "1.230e+09"
        assert format_value(0.0) == "0"
        assert format_value(True) == "True"
        assert format_value("x") == "x"

    def test_add_row_and_columns(self):
        table = FigureTable(figure="F", title="t", columns=["a", "b"])
        table.add_row(a=1, b=2)
        table.add_row(a=3)
        assert len(table) == 2
        assert table.column("a") == [1, 3]
        assert table.rows[1]["b"] == ""

    def test_series_grouping(self):
        table = FigureTable(figure="F", title="t", columns=["x", "algorithm", "y"])
        table.add_row(x=1, algorithm="A", y=10)
        table.add_row(x=2, algorithm="A", y=20)
        table.add_row(x=1, algorithm="B", y=5)
        series = table.series("x", "y")
        assert series == {"A": [(1, 10), (2, 20)], "B": [(1, 5)]}

    def test_filter(self):
        table = FigureTable(figure="F", title="t", columns=["x", "algorithm"])
        table.add_row(x=1, algorithm="A")
        table.add_row(x=2, algorithm="B")
        assert table.filter(algorithm="B") == [{"x": 2, "algorithm": "B"}]

    def test_format_and_markdown_render(self):
        table = FigureTable(figure="Figure 1", title="demo", columns=["x", "y"],
                            notes=["a note"])
        table.add_row(x=1, y=2.0)
        text = table.format()
        assert "Figure 1" in text and "a note" in text and "x" in text
        markdown = table.to_markdown()
        assert markdown.startswith("### Figure 1")
        assert "| x | y |" in markdown

    def test_format_empty_table(self):
        table = FigureTable(figure="F", title="t", columns=["x"])
        assert "x" in table.format()
