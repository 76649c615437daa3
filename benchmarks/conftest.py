"""Shared helpers for the figure-reproduction benchmarks.

Every figure benchmark regenerates one figure (or one group of sub-figures
that share a sweep) of the paper at the scaled default workload, prints the
series the paper plots, checks them byte for byte against the committed
table under ``benchmarks/results/`` and asserts the qualitative shape the
paper reports.  ``pytest benchmarks/ --benchmark-only`` therefore both
re-measures and re-validates the evaluation section.

The tables are deterministic, so a table that differs from its committed
copy fails the benchmark with a unified diff.  To change a table on purpose,
delete its file and rerun: the benchmark writes a missing table, and git
shows the change.
"""

from __future__ import annotations

import difflib
import os
from typing import Callable

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import FigureTable
from repro.service import RuntimeProfile

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def pytest_addoption(parser) -> None:
    """Select the runtime profile the benchmarks build through.

    ``pytest benchmarks/ --profile parallel:4`` re-measures every figure with
    process-parallel task execution; the figure tables are bit-identical to
    serial runs, only the wall-clock time changes.
    """
    parser.addoption("--profile", action="store", default=None, metavar="SPEC",
                     help="runtime profile of the benchmark builds, e.g. "
                          "'parallel:4' (default: serial); the seed stays "
                          "the configuration's")


@pytest.fixture(scope="session")
def experiment_config(request) -> ExperimentConfig:
    """The scaled default workload (see repro.experiments.config for the mapping)."""
    spec = request.config.getoption("--profile")
    return ExperimentConfig(profile=RuntimeProfile.parse(spec) if spec else RuntimeProfile())


@pytest.fixture()
def run_figure(benchmark) -> Callable[[Callable[[], FigureTable], str], FigureTable]:
    """Run a figure driver exactly once under pytest-benchmark and check its table."""

    def runner(driver: Callable[[], FigureTable], name: str) -> FigureTable:
        table = benchmark.pedantic(driver, rounds=1, iterations=1, warmup_rounds=0)
        text = table.format() + "\n"
        print("\n" + text, end="")
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        if not os.path.exists(path):
            os.makedirs(RESULTS_DIR, exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            return table
        with open(path, "r", encoding="utf-8") as handle:
            golden = handle.read()
        if text != golden:
            diff = difflib.unified_diff(golden.splitlines(keepends=True),
                                        text.splitlines(keepends=True),
                                        fromfile=f"results/{name}.txt",
                                        tofile=f"{name} (this run)")
            pytest.fail(f"{name} differs from its committed table; delete "
                        f"results/{name}.txt and rerun to accept the change\n"
                        + "".join(diff), pytrace=False)
        return table

    return runner
