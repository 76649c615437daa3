"""Unit tests for the declarative job-plan layer (repro.mapreduce.plan).

Covers plan validation (stage graph rules), the context's result addressing,
and the equivalence of ``execute_plan`` with the hand-rolled sequential
driver it replaced.
"""

from __future__ import annotations

import pytest

from repro.algorithms import HWTopk, SendV, TwoLevelSampling
from repro.errors import PlanError
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.job import JobConfiguration, MapReduceJob
from repro.mapreduce.plan import JobPlan, PlanStage, execute_plan
from repro.mapreduce.runtime import JobRunner
from repro.mapreduce.state import StateStore
from repro.service import RuntimeProfile


def _noop_build(context):  # pragma: no cover - never runs in validation tests
    raise AssertionError("build should not be called")


def _noop_finish(context):  # pragma: no cover - never runs in validation tests
    raise AssertionError("finish should not be called")


class TestPlanValidation:
    def test_requires_stages_and_finish(self):
        with pytest.raises(PlanError, match="no stages"):
            JobPlan(name="p", input_path="/in", stages=(), finish=_noop_finish)
        with pytest.raises(PlanError, match="no finish"):
            JobPlan(name="p", input_path="/in",
                    stages=(PlanStage("a", _noop_build),), finish=None)

    def test_rejects_duplicate_stage_names(self):
        with pytest.raises(PlanError, match="duplicate"):
            JobPlan(name="p", input_path="/in",
                    stages=(PlanStage("a", _noop_build),
                            PlanStage("a", _noop_build)),
                    finish=_noop_finish)

    def test_rejects_forward_and_self_dependencies(self):
        # Dependencies must name *earlier* stages, so cycles are impossible
        # by construction.
        with pytest.raises(PlanError, match="earlier stage"):
            JobPlan(name="p", input_path="/in",
                    stages=(PlanStage("a", _noop_build, depends_on=("b",)),
                            PlanStage("b", _noop_build)),
                    finish=_noop_finish)
        with pytest.raises(PlanError, match="itself"):
            JobPlan(name="p", input_path="/in",
                    stages=(PlanStage("a", _noop_build, depends_on=("a",)),),
                    finish=_noop_finish)

    def test_hwtopk_plan_declares_the_round_dag(self):
        plan = HWTopk(256, 10).create_plan("/data/input")
        assert plan.stage_names == ("round1", "round2", "round3")
        assert plan.stages[1].depends_on == ("round1",)
        assert plan.stages[2].depends_on == ("round1", "round2")

    def test_every_registered_algorithm_declares_a_plan(self):
        from repro.algorithms.registry import algorithm_names, make_algorithm

        for slug in algorithm_names():
            plan = make_algorithm(slug, u=64, k=5).create_plan("/data/input")
            assert plan.stages, slug


class TestPlanContext:
    def _context(self, small_dataset, small_cluster):
        hdfs = HDFS()
        small_dataset.to_hdfs(hdfs, "/data/input")
        plan = SendV(256, 10).create_plan("/data/input")
        return plan.context(hdfs, small_cluster)

    def test_missing_result_raises(self, small_dataset, small_cluster):
        context = self._context(small_dataset, small_cluster)
        with pytest.raises(PlanError, match="no result yet"):
            context.result("aggregate")

    def test_double_record_raises(self, small_dataset, small_cluster):
        context = self._context(small_dataset, small_cluster)
        context.record("aggregate", object())
        with pytest.raises(PlanError, match="twice"):
            context.record("aggregate", object())

    def test_splits_are_pinned(self, small_dataset, small_cluster):
        context = self._context(small_dataset, small_cluster)
        assert context.splits is context.splits
        assert context.num_splits == len(context.splits)


class TestExecutePlan:
    @pytest.mark.parametrize("factory", [
        lambda: SendV(256, 10),
        lambda: HWTopk(256, 10),
        lambda: TwoLevelSampling(256, 10, epsilon=0.02),
    ])
    def test_run_goes_through_the_plan(self, factory, small_dataset, small_cluster):
        """``run`` (the plan path) and a direct execute_plan are identical."""
        hdfs = HDFS()
        small_dataset.to_hdfs(hdfs, "/data/input")
        via_run = factory().run(hdfs, "/data/input",
                                profile=RuntimeProfile(cluster=small_cluster))

        algorithm = factory()
        runner = JobRunner(hdfs, cluster=small_cluster, state_store=StateStore())
        outcome = execute_plan(algorithm.create_plan("/data/input"), runner)
        assert outcome.coefficients == via_run.histogram.coefficients
        assert len(outcome.rounds) == via_run.num_rounds
        for direct, wrapped in zip(outcome.rounds, via_run.rounds):
            assert direct.output == wrapped.output
            assert direct.counters.as_dict() == wrapped.counters.as_dict()

    def test_stage_round_numbers_follow_declaration_order(self, small_dataset,
                                                          small_cluster):
        """Explicit round numbering equals the runner's implicit counter."""
        hdfs = HDFS()
        small_dataset.to_hdfs(hdfs, "/data/input")
        runner = JobRunner(hdfs, cluster=small_cluster, state_store=StateStore())
        outcome = execute_plan(HWTopk(256, 10).create_plan("/data/input"), runner)
        assert len(outcome.rounds) == 3
        # The runner's counter advanced exactly three rounds.
        round4 = runner.begin_round(MapReduceJob(
            name="probe", input_path="/data/input",
            mapper_class=_ProbeMapper,
            reducer_class=_ProbeReducer,
            configuration=JobConfiguration(),
        ))
        assert round4.round_number == 4

    def test_reused_runner_gets_disjoint_round_numbers(self, small_dataset,
                                                       small_cluster):
        """Two plans on ONE runner must not reuse (seed, round, task) RNG keys:
        the second plan's rounds are offset past the first's, matching the
        implicit counter of repeated runner.run calls."""
        hdfs = HDFS()
        small_dataset.to_hdfs(hdfs, "/data/input")
        runner = JobRunner(hdfs, cluster=small_cluster, state_store=StateStore())
        first = execute_plan(
            TwoLevelSampling(256, 10, epsilon=0.02).create_plan("/data/input"),
            runner)
        assert runner.rounds_started == 1
        second = execute_plan(
            TwoLevelSampling(256, 10, epsilon=0.02).create_plan("/data/input"),
            runner)
        assert runner.rounds_started == 2
        # Different round number -> different sample -> (almost surely)
        # different sampled-record counts; identical keys would make the two
        # randomised runs bit-equal, which is exactly the correlation bug.
        assert (first.rounds[0].counters.as_dict()
                != second.rounds[0].counters.as_dict()
                or first.coefficients != second.coefficients)


class _ProbeMapper:
    def setup(self, context):
        pass

    def map(self, record, context):
        pass

    def close(self, context):
        pass


class _ProbeReducer:
    def reduce(self, key, values, context):
        pass
