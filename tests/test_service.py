"""Tests for the unified service API: RuntimeProfile, the algorithm registry
and the ``SynopsisService`` façade (build → store → multi-synopsis fan-out).

``TestServiceSmoke`` doubles as the CI smoke entry point.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.algorithms import SendV, TwoLevelSampling
from repro.algorithms.registry import (
    algorithm_class,
    algorithm_names,
    make_algorithm,
    register,
)
from repro.data.generators import ZipfDatasetGenerator
from repro.errors import InvalidParameterError
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.executor import (
    ParallelExecutor,
    SerialExecutor,
    shared_executor,
)
from repro.mapreduce.hdfs import HDFS
from repro.mapreduce.runtime import JobRunner
from repro.service import (
    AlgorithmSpec,
    BuildReport,
    BuildRequest,
    RuntimeProfile,
    SynopsisService,
)
from repro.serving.backends import MemoryBackend
from repro.serving.engine import BatchQueryEngine
from repro.serving.server import QueryServer
from repro.serving.store import SynopsisStore
from repro.serving.workload import WorkloadGenerator

U = 256
K = 12
SEED = 11


@pytest.fixture(scope="module")
def service_dataset():
    return ZipfDatasetGenerator(u=U, alpha=1.1, seed=5).generate(8_000, name="svc-zipf")


class TestRuntimeProfile:
    def test_defaults(self):
        profile = RuntimeProfile()
        assert profile.seed == 7
        assert profile.executor_name == "serial"
        assert profile.data_plane == "batch"
        assert profile.cluster is None and profile.cost_parameters is None

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            RuntimeProfile(executor="threaded")
        with pytest.raises(InvalidParameterError):
            RuntimeProfile(data_plane="rows")
        with pytest.raises(InvalidParameterError):
            RuntimeProfile(workers=0)
        with pytest.raises(InvalidParameterError):
            RuntimeProfile(executor=42)  # type: ignore[arg-type]

    def test_is_frozen_and_overridable(self):
        profile = RuntimeProfile()
        with pytest.raises(Exception):
            profile.seed = 9  # type: ignore[misc]
        derived = profile.with_overrides(seed=9, data_plane="records")
        assert derived.seed == 9 and derived.data_plane == "records"
        assert profile.seed == 7  # original untouched

    def test_build_executor_resolution(self):
        assert RuntimeProfile().build_executor() is shared_executor("serial")
        instance = SerialExecutor()
        assert RuntimeProfile(executor=instance).build_executor() is instance
        assert RuntimeProfile(executor=instance).executor_name == "serial"

    def test_resolved_cluster_defaults_to_paper_cluster(self):
        assert RuntimeProfile().resolved_cluster().machines
        cluster = paper_cluster(split_size_bytes=512)
        assert RuntimeProfile(cluster=cluster).resolved_cluster() is cluster

    def test_create_runner(self):
        runner = JobRunner.from_profile(HDFS(), RuntimeProfile(seed=3, data_plane="records"))
        assert isinstance(runner, JobRunner)
        assert runner.data_plane == "records"
        assert isinstance(runner.executor, SerialExecutor)

    def test_parse_shorthand_and_pairs(self):
        assert RuntimeProfile.parse("serial").executor_name == "serial"
        parallel = RuntimeProfile.parse("parallel:4")
        assert parallel.executor_name == "parallel" and parallel.workers == 4
        full = RuntimeProfile.parse(
            "executor=parallel,workers=2,seed=5,data-plane=records")
        assert (full.executor_name, full.workers, full.seed, full.data_plane) == (
            "parallel", 2, 5, "records")

    def test_parse_concurrent_jobs(self):
        batch = RuntimeProfile.parse("parallel:4,concurrent-jobs=7")
        assert batch.executor_name == "parallel" and batch.workers == 4
        assert batch.concurrent_jobs == 7
        assert "concurrent-jobs=7" in batch.describe()
        assert RuntimeProfile.parse("serial").concurrent_jobs == 1
        with pytest.raises(InvalidParameterError):
            RuntimeProfile.parse("concurrent-jobs=0")
        with pytest.raises(InvalidParameterError):
            RuntimeProfile(concurrent_jobs=0)

    def test_parse_rejects_bad_specs(self):
        for bad in ("", "   ", "executor=threaded", "seed=x", "parallel:x",
                    "colour=blue"):
            with pytest.raises(InvalidParameterError):
                RuntimeProfile.parse(bad)

    def test_parse_overrides_only_mentioned_keys(self):
        overrides = RuntimeProfile.parse_overrides("data-plane=records")
        assert overrides == {"data_plane": "records"}

    def test_describe_mentions_the_executor(self):
        assert "executor=parallel:3" in RuntimeProfile(
            executor="parallel", workers=3).describe()


class TestRegistry:
    def test_all_seven_algorithms_are_registered(self):
        assert algorithm_names() == (
            "basic-s", "h-wtopk", "improved-s", "send-coef",
            "send-sketch", "send-v", "twolevel-s",
        )

    def test_make_algorithm_is_case_insensitive(self):
        assert isinstance(make_algorithm("Send-V", u=64, k=5), SendV)
        assert algorithm_class("SEND-V") is SendV

    def test_parameters_pass_through(self):
        sketch = make_algorithm("send-sketch", u=64, k=5, bytes_per_level=2048)
        assert sketch.bytes_per_level == 2048
        sharded = make_algorithm("send-v", u=64, k=5, num_reducers=3)
        assert sharded.num_reducers == 3

    def test_unknown_name_lists_every_registry_slug(self):
        with pytest.raises(InvalidParameterError) as excinfo:
            make_algorithm("nope", u=64, k=5)
        message = str(excinfo.value)
        assert "valid registry slugs" in message
        for slug in algorithm_names():
            assert slug in message

    def test_unknown_name_suggests_the_closest_slug(self):
        with pytest.raises(InvalidParameterError, match="did you mean 'send-v'"):
            make_algorithm("send-vv", u=64, k=5)

    def test_bad_parameters_are_reported(self):
        with pytest.raises(InvalidParameterError, match="send-v"):
            make_algorithm("send-v", u=64, k=5, flux_capacitor=True)

    def test_register_guards(self):
        with pytest.raises(InvalidParameterError):
            register(int)  # type: ignore[arg-type]
        # Re-registering the same class is a no-op...
        assert register(SendV) is SendV

        # ...but claiming an existing name with a new class is rejected.
        class Impostor(SendV):
            name = "Send-V"

        with pytest.raises(InvalidParameterError, match="already registered"):
            register(Impostor)

    def test_out_of_tree_registration(self):
        class Custom(SendV):
            name = "Custom-For-Test"

        try:
            register(Custom)
            assert isinstance(make_algorithm("custom-for-test", u=64, k=5), Custom)
        finally:
            from repro.algorithms import registry

            registry._REGISTRY.pop("custom-for-test", None)


class TestAlgorithmSpec:
    def test_create_through_the_registry(self):
        spec = AlgorithmSpec("twolevel-s", k=8, parameters={"epsilon": 0.05})
        algorithm = spec.create(default_u=128)
        assert isinstance(algorithm, TwoLevelSampling)
        assert algorithm.u == 128 and algorithm.k == 8

    def test_explicit_u_wins(self):
        assert AlgorithmSpec("send-v", u=64).create(default_u=128).u == 64

    def test_missing_domain_raises(self):
        with pytest.raises(InvalidParameterError, match="domain"):
            AlgorithmSpec("send-v").create()


class TestSynopsisService:
    def test_build_publishes_versions_with_provenance(self, service_dataset):
        service = SynopsisService(profile=RuntimeProfile(seed=SEED))
        report = service.build(AlgorithmSpec("send-v", k=K), service_dataset)
        assert isinstance(report, BuildReport)
        assert report.name == "Send-V" and report.version == 1
        assert report.metadata.seed == SEED
        assert report.metadata.build["rounds"] == report.result.num_rounds
        assert report.metadata.build["dataset"] == "svc-zipf"
        assert report.result.details["store_entry"]["version"] == 1
        again = service.build(AlgorithmSpec("send-v", k=K), service_dataset)
        assert again.version == 2

    def test_build_accepts_name_string_instance_and_override(self, service_dataset):
        service = SynopsisService(profile=RuntimeProfile(seed=SEED))
        by_string = service.build("send-v", service_dataset)
        assert by_string.name == "Send-V" and by_string.metadata.k == 30
        by_instance = service.build(SendV(U, K), service_dataset, name="renamed")
        assert by_instance.name == "renamed"
        assert service.store.names() == ["Send-V", "renamed"]

    def test_single_name_query_matches_the_engine(self, service_dataset):
        service = SynopsisService(profile=RuntimeProfile(seed=SEED))
        report = service.build(AlgorithmSpec("send-v", k=K), service_dataset)
        workload = WorkloadGenerator(U, seed=3).generate(500, "mixed")
        answers = service.query_workload(report.name, workload)
        engine = service.store.load(report.name).engine()
        assert np.array_equal(
            answers[report.name],
            engine.range_sum_many(workload.los, workload.his),
        )

    def test_fanout_result_keys_follow_input_order(self, service_dataset):
        service = SynopsisService(profile=RuntimeProfile(seed=SEED))
        service.build(AlgorithmSpec("send-v", k=K), service_dataset, name="b")
        service.build(AlgorithmSpec("h-wtopk", k=K), service_dataset, name="a")
        answers = service.query(["b", "a"], [1, 10], [U, 20])
        assert list(answers) == ["b", "a"]
        assert all(estimate.shape == (2,) for estimate in answers.values())

    def test_fanout_rejects_bad_inputs(self, service_dataset):
        service = SynopsisService(profile=RuntimeProfile(seed=SEED))
        service.build(AlgorithmSpec("send-v", k=K), service_dataset)
        with pytest.raises(InvalidParameterError):
            service.query([], [1], [2])
        with pytest.raises(InvalidParameterError):
            service.query(["Send-V", "Send-V"], [1], [2])
        with pytest.raises(InvalidParameterError):
            service.query(["Send-V"], [1, 2], [3])
        empty = service.query(["Send-V"], [], [])
        assert empty["Send-V"].size == 0

    def test_version_pins_in_fanout(self, service_dataset):
        service = SynopsisService(profile=RuntimeProfile(seed=SEED))
        first = service.build(AlgorithmSpec("send-v", k=K), service_dataset)
        second = service.build(AlgorithmSpec("send-v", k=4), service_dataset)
        assert (first.version, second.version) == (1, 2)
        los, his = [1], [U]
        pinned = service.query(["Send-V"], los, his,
                               versions={"Send-V": 1})["Send-V"]
        engine = service.store.load("Send-V", 1).engine()
        assert np.array_equal(pinned, engine.range_sum_many(
            np.asarray(los, dtype=np.int64), np.asarray(his, dtype=np.int64)))

    def test_stats_count_fanout_batches(self, service_dataset):
        service = SynopsisService(profile=RuntimeProfile(seed=SEED))
        service.build(AlgorithmSpec("send-v", k=K), service_dataset, name="x")
        service.build(AlgorithmSpec("send-v", k=K), service_dataset, name="y")
        service.query(["x", "y"], [1, 2], [10, 20])
        stats = service.stats()
        assert stats["fanout_batches"] == 1
        assert stats["fanout_queries"] == 4  # 2 queries x 2 synopses

    def test_no_range_cache_option_on_any_surface(self):
        """The range cache is gone: no serving surface accepts its capacity."""
        with pytest.raises(TypeError):
            BatchQueryEngine(16, {1: 1.0}, cache_size=8)
        with pytest.raises(TypeError):
            QueryServer(SynopsisStore.in_memory(), cache_size=8)
        with pytest.raises(TypeError):
            SynopsisService(cache_size=8)

    def test_catalog_and_refresh(self, service_dataset):
        service = SynopsisService(profile=RuntimeProfile(seed=SEED))
        service.build(AlgorithmSpec("send-v", k=K), service_dataset)
        assert [metadata.name for metadata in service.catalog()] == ["Send-V"]
        service.query(["Send-V"], [1], [U])
        service.build(AlgorithmSpec("send-v", k=K), service_dataset)
        # Until refreshed, the served version stays pinned at 1.
        assert service.server.synopsis("Send-V").metadata.version == 1
        service.refresh()
        assert service.server.synopsis("Send-V").metadata.version == 2


class TestFanoutDeterminism:
    """Fan-out answers are bit-identical across executors and backends."""

    @pytest.fixture(scope="class")
    def reports(self, service_dataset):
        """Build two synopses into one memory store; reuse across the class."""
        service = SynopsisService(profile=RuntimeProfile(seed=SEED))
        first = service.build(AlgorithmSpec("send-v", k=K), service_dataset,
                              name="web")
        second = service.build(
            AlgorithmSpec("twolevel-s", k=K, parameters={"epsilon": 0.05}),
            service_dataset, name="orders")
        return service, (first, second)

    def test_serial_and_parallel_fanout_agree(self, reports):
        serial_service, _ = reports
        workload = WorkloadGenerator(U, seed=23).generate(5_000, "mixed")
        serial = serial_service.query_workload(["web", "orders"], workload)

        executor = ParallelExecutor(max_workers=2)
        try:
            parallel_service = SynopsisService(
                store=serial_service.store,
                profile=RuntimeProfile(executor=executor),
                shard_size=512,
            )
            parallel = parallel_service.query_workload(["web", "orders"], workload)
        finally:
            executor.close()
        for name in ("web", "orders"):
            assert np.array_equal(serial[name], parallel[name])

    def test_repeat_queries_are_bit_identical(self, reports):
        service, _ = reports
        workload = WorkloadGenerator(U, seed=29).generate(1_000, "zipfian")
        first = service.query_workload(["web", "orders"], workload)
        second = service.query_workload(["web", "orders"], workload)
        for name in ("web", "orders"):
            assert np.array_equal(first[name], second[name])


class TestBuildMany:
    """The concurrent build queue: scheduled batches publish bit-identical
    versions, in request order, for any concurrency."""

    def _requests(self, service_dataset):
        return [
            BuildRequest(AlgorithmSpec("send-v", k=K), service_dataset, "web"),
            BuildRequest(AlgorithmSpec("h-wtopk", k=K), service_dataset, "orders"),
            BuildRequest(
                AlgorithmSpec("twolevel-s", k=K, parameters={"epsilon": 0.05}),
                service_dataset, "clicks"),
        ]

    def test_concurrent_builds_match_sequential_checksums(self, service_dataset):
        profile = RuntimeProfile(seed=SEED)
        sequential_service = SynopsisService(profile=profile)
        sequential = [sequential_service.build(r.algorithm, r.dataset, name=r.name)
                      for r in self._requests(service_dataset)]

        concurrent_service = SynopsisService(profile=profile)
        concurrent = concurrent_service.build_many(
            self._requests(service_dataset), profile.with_overrides(concurrent_jobs=3))

        assert [r.name for r in concurrent] == ["web", "orders", "clicks"]
        for expected, actual in zip(sequential, concurrent):
            assert actual.version == 1
            assert actual.checksum_sha256 == expected.checksum_sha256
            assert (actual.result.histogram.coefficients
                    == expected.result.histogram.coefficients)
            assert (actual.result.counters.as_dict()
                    == expected.result.counters.as_dict())

    def test_profile_concurrency_and_tuple_requests(self, service_dataset):
        profile = RuntimeProfile(seed=SEED, concurrent_jobs=2)
        service = SynopsisService(profile=profile)
        reports = service.build_many([
            ("send-v", service_dataset, "a"),
            (AlgorithmSpec("send-coef", k=K), service_dataset, "b"),
        ])
        assert [r.name for r in reports] == ["a", "b"]
        assert service.store.names() == ["a", "b"]

    def test_sequential_fallback_is_identical(self, service_dataset):
        """One build in flight at a time publishes what three in flight do."""
        profile = RuntimeProfile(seed=SEED)
        service = SynopsisService(profile=profile)
        one_at_a_time = service.build_many(self._requests(service_dataset), profile)
        other = SynopsisService(profile=profile)
        scheduled = other.build_many(self._requests(service_dataset),
                                     profile.with_overrides(concurrent_jobs=3))
        for expected, actual in zip(one_at_a_time, scheduled):
            assert actual.checksum_sha256 == expected.checksum_sha256

    def test_finished_build_frees_its_runner(self, service_dataset, monkeypatch):
        """With one build in flight, the first request's runner (and the
        state store its rounds filled) is gone before the second request's
        first round begins."""
        runners = []
        first_alive_at_second_start = []
        from_profile = JobRunner.from_profile
        begin_round = JobRunner.begin_round

        def recording_from_profile(*args, **kwargs):
            runner = from_profile(*args, **kwargs)
            runners.append(weakref.ref(runner))
            return runner

        def observing_begin_round(runner, *args, **kwargs):
            if (len(runners) == 2 and runners[1]() is runner
                    and runner.rounds_started == 0):
                gc.collect()
                first_alive_at_second_start.append(runners[0]() is not None)
            return begin_round(runner, *args, **kwargs)

        monkeypatch.setattr(JobRunner, "from_profile",
                            staticmethod(recording_from_profile))
        monkeypatch.setattr(JobRunner, "begin_round", observing_begin_round)
        profile = RuntimeProfile(seed=SEED, concurrent_jobs=1)
        reports = SynopsisService(profile=profile).build_many(
            self._requests(service_dataset)[:2], profile)
        assert all(report.ok for report in reports)
        assert first_alive_at_second_start == [False]

    def test_bad_requests_are_rejected(self, service_dataset):
        service = SynopsisService(profile=RuntimeProfile(seed=SEED))
        with pytest.raises(InvalidParameterError, match="BuildRequest"):
            service.build_many([("send-v",)])


class TestServiceSmoke:
    """The CI smoke: registry build x fan-out query on the memory backend."""

    def test_build_two_fanout_deterministically(self, service_dataset):
        profile = RuntimeProfile(seed=SEED)
        service = SynopsisService(profile=profile)
        assert isinstance(service.store.backend, MemoryBackend)

        web = service.build(AlgorithmSpec("send-v", k=K), service_dataset,
                            name="web")
        orders = service.build(
            AlgorithmSpec("twolevel-s", k=K, parameters={"epsilon": 0.05}),
            service_dataset, name="orders")

        workload = WorkloadGenerator(U, seed=41).generate(2_000, "mixed")
        first = service.query_workload(["web", "orders"], workload)
        second = service.query_workload(["web", "orders"], workload)
        assert list(first) == ["web", "orders"]
        for name, estimates in first.items():
            assert estimates.shape == (2_000,)
            assert np.array_equal(estimates, second[name])
        assert web.version == 1 and orders.version == 1
