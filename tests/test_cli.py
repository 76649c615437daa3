"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import (
    ALGORITHM_SLUGS,
    FIGURE_DESCRIPTIONS,
    FIGURE_DRIVERS,
    build_parser,
    main,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import standard_algorithms
from repro.serving.store import SynopsisStore


def _report_rows(output):
    """A compare report without its ``workload:`` header, which names the profile."""
    return [line for line in output.splitlines() if not line.startswith("workload:")]


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_options(self):
        arguments = build_parser().parse_args(["compare", "--quick", "--k", "12",
                                               "--epsilon", "0.05"])
        assert arguments.command == "compare"
        assert arguments.quick and arguments.k == 12 and arguments.epsilon == 0.05
        assert arguments.profile is None  # the default profile: serial, batch plane

    @pytest.mark.parametrize("command", [["compare", "--quick"],
                                         ["figure", "vary_k", "--quick"],
                                         ["build", "--store", "/tmp/s"]],
                             ids=lambda command: command[0])
    @pytest.mark.parametrize("flag", [["--executor", "serial"], ["--workers", "2"],
                                      ["--data-plane", "records"],
                                      ["--concurrent-jobs", "2"],
                                      ["--fault-rate", "0.1"], ["--fault-seed", "1"]],
                             ids=lambda flag: flag[0].lstrip("-"))
    def test_runtime_settings_are_spelled_only_in_the_profile(self, command, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + flag)

    def test_figure_requires_known_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "not-a-figure"])
        arguments = build_parser().parse_args(["figure", "vary_k", "--quick"])
        assert arguments.name == "vary_k"

    def test_every_driver_has_a_description(self):
        assert set(FIGURE_DRIVERS) == set(FIGURE_DESCRIPTIONS)

    def test_build_requires_a_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build"])
        arguments = build_parser().parse_args(
            ["build", "--store", "/tmp/s", "--algorithm", "send-v", "--quick"])
        assert arguments.store == "/tmp/s" and arguments.algorithm == "send-v"

    def test_build_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build", "--store", "/tmp/s",
                                       "--algorithm", "not-an-algorithm"])

    def test_query_accepts_repeated_ranges(self):
        arguments = build_parser().parse_args(
            ["query", "--store", "/tmp/s", "--name", "n",
             "--range", "1", "10", "--range", "5", "7"])
        assert arguments.ranges == [[1, 10], [5, 7]]

    def test_slugs_cover_the_papers_five_algorithms(self):
        # The build command's slugs are the registry's names, which must
        # include the lowercased names of the standard_algorithms factory the
        # other commands use (plus the two extra baselines).
        from repro.algorithms.registry import algorithm_names

        names = {algorithm.name.lower()
                 for algorithm in standard_algorithms(ExperimentConfig.quick())}
        assert names <= set(ALGORITHM_SLUGS)
        assert set(ALGORITHM_SLUGS) == set(algorithm_names())
        assert {"send-coef", "basic-s"} <= set(ALGORITHM_SLUGS)

    def test_profile_flag_overrides_executor_flags(self):
        arguments = build_parser().parse_args(
            ["compare", "--quick", "--profile", "executor=serial,data-plane=records"])
        assert arguments.profile == "executor=serial,data-plane=records"

    def test_serve_verbs_parse(self):
        catalog = build_parser().parse_args(["serve", "catalog", "--store", "/tmp/s"])
        assert catalog.command == "serve" and catalog.serve_command == "catalog"
        query = build_parser().parse_args(
            ["serve", "query", "--store", "/tmp/s", "--name", "a", "--name", "b",
             "--count", "64"])
        assert query.serve_command == "query"
        assert query.names == ["a", "b"] and query.count == 64
        with pytest.raises(SystemExit):  # --name is required
            build_parser().parse_args(["serve", "query", "--store", "/tmp/s"])
        with pytest.raises(SystemExit):  # queries answer in-process: no profile
            build_parser().parse_args(["serve", "query", "--store", "/tmp/s",
                                       "--name", "a", "--profile", "parallel:2"])


class TestCommands:
    def test_list_figures(self, capsys):
        assert main(["list-figures"]) == 0
        output = capsys.readouterr().out
        for name in FIGURE_DRIVERS:
            assert name in output

    def test_compare_quick(self, capsys):
        assert main(["compare", "--quick", "--k", "10", "--epsilon", "0.05"]) == 0
        output = capsys.readouterr().out
        for name in ("Send-V", "H-WTopk", "Send-Sketch", "Improved-S", "TwoLevel-S"):
            assert name in output
        assert "SSE/ideal" in output

    def test_figure_analysis_bounds(self, capsys):
        assert main(["figure", "analysis_bounds"]) == 0
        output = capsys.readouterr().out
        assert "Basic-S" in output and "TwoLevel-S" in output

    def test_figure_quick_ablation(self, capsys):
        assert main(["figure", "ablation_twolevel_threshold", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "threshold_scale" in output

    def test_compare_is_identical_with_concurrent_jobs(self, capsys):
        """The report must not depend on concurrent scheduling either."""
        assert main(["compare", "--quick", "--k", "10", "--epsilon", "0.05"]) == 0
        sequential_output = capsys.readouterr().out
        assert main(["compare", "--quick", "--k", "10", "--epsilon", "0.05",
                     "--profile", "concurrent-jobs=5"]) == 0
        concurrent_output = capsys.readouterr().out
        assert _report_rows(sequential_output) == _report_rows(concurrent_output)
        assert "concurrent-jobs=5" in concurrent_output

    def test_compare_is_identical_across_data_planes(self, capsys):
        """The report (communication, time, SSE) must not depend on the plane."""
        assert main(["compare", "--quick", "--k", "10", "--epsilon", "0.05",
                     "--profile", "data-plane=batch"]) == 0
        batch_output = capsys.readouterr().out
        assert main(["compare", "--quick", "--k", "10", "--epsilon", "0.05",
                     "--profile", "data-plane=records"]) == 0
        records_output = capsys.readouterr().out
        assert _report_rows(batch_output) == _report_rows(records_output)
        assert "data-plane=batch" in batch_output
        assert "data-plane=records" in records_output


class TestServingCommands:
    def test_build_then_query_round_trip(self, capsys, tmp_path):
        store_dir = str(tmp_path / "synopses")
        assert main(["build", "--quick", "--store", store_dir,
                     "--name", "cli-demo", "--algorithm", "twolevel-s",
                     "--k", "16", "--epsilon", "0.05"]) == 0
        output = capsys.readouterr().out
        assert "stored cli-demo v1" in output

        store = SynopsisStore(store_dir)
        metadata = store.load("cli-demo").metadata
        assert metadata.algorithm == "TwoLevel-S" and metadata.k == 16

        assert main(["query", "--store", store_dir, "--name", "cli-demo",
                     "--range", "1", "512", "--range", "100", "200"]) == 0
        output = capsys.readouterr().out
        assert "answered 2 explicit range(s)" in output
        assert "cli-demo v1" in output

    def test_query_generated_workload(self, capsys, tmp_path):
        store_dir = str(tmp_path / "synopses")
        assert main(["build", "--quick", "--store", store_dir,
                     "--algorithm", "send-v", "--k", "12"]) == 0
        capsys.readouterr()
        assert main(["query", "--store", store_dir, "--name", "Send-V",
                     "--count", "64", "--mix", "zipfian", "--show", "5"]) == 0
        output = capsys.readouterr().out
        assert "64 generated zipfian queries" in output

    def test_rebuild_appends_a_version(self, capsys, tmp_path):
        store_dir = str(tmp_path / "synopses")
        for _ in range(2):
            assert main(["build", "--quick", "--store", store_dir,
                         "--name", "versioned", "--algorithm", "improved-s"]) == 0
        assert "stored versioned v2" in capsys.readouterr().out
        assert SynopsisStore(store_dir).versions("versioned") == [1, 2]

    def test_serve_catalog_and_fanout_query(self, capsys, tmp_path):
        store_dir = str(tmp_path / "synopses")
        assert main(["build", "--quick", "--store", store_dir,
                     "--name", "alpha", "--algorithm", "send-v", "--k", "12"]) == 0
        assert main(["build", "--quick", "--store", store_dir,
                     "--name", "beta", "--algorithm", "twolevel-s", "--k", "12"]) == 0
        capsys.readouterr()

        assert main(["serve", "catalog", "--store", store_dir]) == 0
        output = capsys.readouterr().out
        assert "alpha" in output and "beta" in output and "Send-V" in output

        assert main(["serve", "query", "--store", store_dir,
                     "--name", "alpha", "--name", "beta", "--count", "128"]) == 0
        output = capsys.readouterr().out
        assert "across 2 synopsis(es)" in output
        assert "alpha" in output and "beta" in output

    def test_build_accepts_profile_spec(self, capsys, tmp_path):
        store_dir = str(tmp_path / "synopses")
        assert main(["build", "--quick", "--store", store_dir,
                     "--name", "profiled", "--algorithm", "send-v",
                     "--profile", "executor=serial,data-plane=records"]) == 0
        assert "stored profiled v1" in capsys.readouterr().out

    def test_ingest_refuses_to_continue_over_a_build(self, capsys, tmp_path):
        """Regression: a restarted stream chained a u = 4096 delta onto the
        u = 1024 Send-V build saved under its name since its last publish."""
        store_dir = str(tmp_path / "synopses")
        ingest = ["ingest", "--store", store_dir, "--name", "hits",
                  "--u", "4096", "--batch-size", "200"]
        assert main(ingest + ["--batches", "4"]) == 0
        assert main(["build", "--quick", "--store", store_dir,
                     "--name", "hits", "--algorithm", "send-v"]) == 0
        capsys.readouterr()
        assert main(ingest + ["--batches", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro ingest: error: StreamingError")
        assert SynopsisStore(store_dir).versions("hits") == [1, 2, 3]

    def test_serve_bench_verifies_and_reports(self, capsys, tmp_path):
        assert main(["serve-bench", "--quick", "--count", "2000",
                     "--store", str(tmp_path / "bench-store")]) == 0
        output = capsys.readouterr().out
        assert "bound 1e-09 verified" in output
        assert "batch engine" in output and "scalar loop" in output
        # p50/p99 per-batch latency of the engine.
        assert "latency per 256-query batch" in output
        assert "p50" in output and "p99" in output
