"""Tests for the build-once/serve-many query service subsystem."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.coresets.composable import ladder_parameters, practical_coreset_size
from repro.datasets.synthetic import sphere_shell
from repro.diversity.objectives import list_objectives
from repro.diversity.sequential.registry import solve_sequential
from repro.exceptions import ValidationError
from repro.mapreduce.algorithm import MRDiversityMaximizer
from repro.service import (
    EXECUTOR_NAMES,
    CoresetIndex,
    DiversityService,
    LRUCache,
    Query,
    build_coreset_index,
    family_of,
    load_index,
    make_workload,
    save_index,
)


@pytest.fixture(scope="module")
def dataset():
    return sphere_shell(2500, 16, dim=3, seed=5)


@pytest.fixture(scope="module")
def index(dataset):
    return build_coreset_index(dataset, k_max=16, k_min=4, parallelism=4,
                               seed=0)


# -- ladder sizing helpers ----------------------------------------------------

class TestLadderParameters:
    def test_geometric_ladder(self):
        assert ladder_parameters(32) == [(4, 16), (8, 32), (16, 64), (32, 128)]

    def test_k_max_always_covered(self):
        for k_max in (1, 3, 5, 24, 100):
            rungs = ladder_parameters(k_max)
            assert rungs[-1][0] == k_max
            assert all(kp == 4 * cap for cap, kp in rungs)

    def test_custom_multiplier_and_growth(self):
        assert ladder_parameters(27, multiplier=2, growth=3, k_min=3) == \
            [(3, 6), (9, 18), (27, 54)]

    def test_k_min_above_k_max_collapses(self):
        assert ladder_parameters(4, k_min=64) == [(4, 16)]

    def test_rejects_bad_growth(self):
        with pytest.raises(ValueError):
            ladder_parameters(8, growth=1)

    def test_practical_size_clamps_theory(self):
        # Default slack: the Section 7 sweet spot, regardless of how
        # explosive the theoretical sizing is.
        assert practical_coreset_size(8, 1.0, 10.0, "remote-edge") == 4 * 8
        # Tighter slack widens the multiplier (4/eps)...
        assert practical_coreset_size(8, 0.5, 10.0, "remote-edge") == 8 * 8
        # ...but never beyond the dimension band (16 at high D)...
        assert practical_coreset_size(8, 0.1, 10.0, "remote-edge") == 16 * 8
        # ...and low-dimensional data stays small even for tight eps.
        assert practical_coreset_size(8, 0.1, 0.5, "remote-edge") == 4 * 8
        # Dimension ~0: theory is tiny, but never below k.
        assert practical_coreset_size(8, 1.0, 0.0, "remote-edge") >= 8


# -- coreset-only MapReduce build ---------------------------------------------

class TestBuildCoreset:
    def test_matches_run_coreset(self, dataset):
        with MRDiversityMaximizer(k=4, k_prime=16, objective="remote-edge",
                                  parallelism=4, seed=7) as algo:
            build = algo.build_coreset(dataset)
            again = algo.build_coreset(dataset)
            result = algo.run(dataset)
        assert build.k == 4 and build.k_prime == 16
        # Deterministic for an integer seed, and exactly run()'s round 1.
        assert build.coreset.points.tobytes() == again.coreset.points.tobytes()
        assert len(build.coreset) == result.coreset_size
        coreset_rows = {row.tobytes() for row in build.coreset.points}
        assert all(row.tobytes() in coreset_rows
                   for row in result.solution.points)

    def test_overrides_build_a_ladder_with_one_maximizer(self, dataset):
        with MRDiversityMaximizer(k=4, k_prime=16, objective="remote-clique",
                                  parallelism=2, seed=1) as algo:
            small = algo.build_coreset(dataset, k=4, k_prime=16)
            large = algo.build_coreset(dataset, k=8, k_prime=32)
        assert len(large.coreset) > len(small.coreset)
        assert (large.k, large.k_prime) == (8, 32)

    def test_rejects_k_prime_below_k(self, dataset):
        with MRDiversityMaximizer(k=4, k_prime=16, objective="remote-edge",
                                  parallelism=2) as algo:
            with pytest.raises(ValidationError):
                algo.build_coreset(dataset, k=8, k_prime=4)


# -- index build and routing --------------------------------------------------

class TestCoresetIndex:
    def test_builds_both_families(self, index):
        assert index.families == ["gmm", "gmm-ext"]
        assert [r.key for r in index.rungs["gmm"]] == \
            [("gmm", 4, 16), ("gmm", 8, 32), ("gmm", 16, 64)]
        assert index.build_calls == 6
        assert index.dimension_estimate > 0

    def test_family_of_covers_all_objectives(self):
        families = {family_of(name) for name in list_objectives()}
        assert families == {"gmm", "gmm-ext"}
        assert family_of("remote-edge") == "gmm"
        assert family_of("remote-clique") == "gmm-ext"

    def test_routing_picks_cheapest_covering_rung(self, index):
        # Routing is monotone: larger k (or tighter eps) never routes to a
        # smaller rung, and a k above the penultimate cap must take the top.
        small = index.route("remote-edge", k=2)
        tight = index.route("remote-edge", k=2, epsilon=0.05)
        large = index.route("remote-edge", k=12)
        assert small.k_prime <= tight.k_prime
        assert small.k_prime <= large.k_prime
        assert large is index.rungs["gmm"][-1]
        # The cheapest rung still meets the practical sizing for its query.
        assert small.k_prime >= practical_coreset_size(
            2, 1.0, index.dimension_estimate, "remote-edge")

    def test_routing_respects_family(self, index):
        assert index.route("remote-cycle", 4).family == "gmm"
        assert index.route("remote-star", 4).family == "gmm-ext"

    def test_routing_rejects_oversized_k(self, index):
        with pytest.raises(ValidationError, match="k_max"):
            index.route("remote-edge", k=17)

    def test_routing_rejects_missing_family(self, dataset):
        gmm_only = build_coreset_index(dataset, k_max=8, k_min=8,
                                       families=("gmm",), seed=0)
        assert gmm_only.route("remote-edge", 4).family == "gmm"
        with pytest.raises(ValidationError, match="families"):
            gmm_only.route("remote-clique", 4)

    def test_unknown_family_rejected(self, dataset):
        with pytest.raises(ValidationError, match="unknown family"):
            build_coreset_index(dataset, k_max=8, families=("smm",))

    def test_serial_and_process_builds_bit_identical(self, dataset):
        serial = build_coreset_index(dataset, k_max=8, k_min=4,
                                     parallelism=3, executor="serial", seed=9)
        process = build_coreset_index(dataset, k_max=8, k_min=4,
                                      parallelism=3, executor="process",
                                      seed=9)
        serial_rungs = serial.all_rungs()
        process_rungs = process.all_rungs()
        assert [r.key for r in serial_rungs] == [r.key for r in process_rungs]
        for ours, theirs in zip(serial_rungs, process_rungs):
            assert ours.coreset.points.tobytes() == \
                theirs.coreset.points.tobytes()


# -- the service: caching, batching, warm-path guarantee ----------------------

class TestDiversityService:
    def test_query_matches_direct_solve_on_rung(self, index):
        service = DiversityService(index)
        result = service.query("remote-edge", 6)
        rung = index.route("remote-edge", 6)
        indices, value = solve_sequential(rung.coreset, 6, "remote-edge")
        assert np.array_equal(result.indices, indices)
        assert result.value == pytest.approx(value)
        assert result.rung == rung.key

    def test_repeat_query_is_cached_and_identical(self, index):
        service = DiversityService(index)
        first = service.query("remote-clique", 5)
        second = service.query("remote-clique", 5)
        assert not first.cached and second.cached
        assert second.value == first.value
        assert np.array_equal(second.indices, first.indices)
        assert service.cache.stats.hits == 1

    def test_cached_result_echoes_callers_epsilon(self, index):
        service = DiversityService(index)
        first = service.query("remote-edge", 3, epsilon=1.0)
        # A different epsilon that routes to the same rung hits the cache
        # but must report the caller's own slack, not the cached one's.
        tweaked = service.query("remote-edge", 3, epsilon=0.9)
        assert tweaked.rung == first.rung  # same-rung routing...
        assert tweaked.cached              # ...so served from the LRU...
        assert tweaked.epsilon == 0.9      # ...under the caller's slack
        assert tweaked.value == first.value

    def test_warm_queries_never_rebuild(self, dataset):
        service = DiversityService.from_dataset(dataset, k_max=8, k_min=4,
                                                seed=0)
        builds_after_ingest = service.build_calls
        assert builds_after_ingest == service.index.build_calls > 0
        for objective in list_objectives():
            service.query(objective, 4)
            service.query(objective, 7)
        assert service.build_calls == builds_after_ingest

    def test_lazy_build_happens_once_on_first_query(self, dataset):
        service = DiversityService(points=dataset, k_max=8, k_min=8, seed=0)
        assert service.index is None and service.build_calls == 0
        service.query("remote-edge", 4)
        builds = service.build_calls
        assert builds > 0 and service.index is not None
        service.query("remote-tree", 4)
        assert service.build_calls == builds

    def test_requires_index_or_dataset(self):
        with pytest.raises(ValidationError):
            DiversityService()

    def test_prebuilt_index_rejects_build_options(self, index):
        # Build options only feed a lazy build, so with a prebuilt index
        # a misspelt keyword would otherwise vanish without effect.
        with pytest.raises(ValidationError,
                           match="cache_sise, executer"):
            DiversityService(index, cache_sise=4, executer="process")

    def test_static_plan_is_the_only_plan(self, index):
        with DiversityService(index, plan="static") as service:
            assert service.query("remote-edge", 4).value > 0
        with pytest.raises(ValidationError, match="executor="):
            DiversityService(index, plan="auto")

    @pytest.mark.parametrize("plan", ["adaptive", "serial", "process", None])
    def test_other_plan_values_rejected(self, index, plan):
        # Executor names are not plans either: the error points the
        # caller at executor=, the one place a backend is chosen.
        with pytest.raises(ValidationError, match="executor="):
            DiversityService(index, plan=plan)

    @pytest.mark.parametrize("option, value", [
        ("k_min", 4), ("seed", 1), ("parallelism", 2), ("dtype", "float32")])
    def test_prebuilt_index_rejects_each_build_option(self, index, option,
                                                      value):
        # Correctly spelt build options are refused too: the prebuilt
        # index has already fixed every one of them.
        with pytest.raises(ValidationError, match=option):
            DiversityService(index, **{option: value})

    def test_lazy_build_receives_build_options(self, dataset):
        with DiversityService(points=dataset, k_max=8, k_min=8,
                              seed=0) as service:
            built = service.ensure_index()
        reference = build_coreset_index(dataset, k_max=8, k_min=8, seed=0)
        assert [rung.key for rung in built.all_rungs()] == \
            [rung.key for rung in reference.all_rungs()]
        # k_min=8 collapses the default 4-to-8 ladder to one cap.
        assert {rung.k_cap for rung in built.all_rungs()} == {8}
        for ours, theirs in zip(built.all_rungs(), reference.all_rungs()):
            assert np.array_equal(ours.coreset.points, theirs.coreset.points)

    def test_batch_preserves_order_and_shares_matrices(self, index):
        service = DiversityService(index)
        queries = [Query("remote-edge", 3), Query("remote-clique", 3),
                   Query("remote-edge", 5), Query("remote-clique", 3),
                   Query("remote-cycle", 4)]
        results = service.query_batch(queries)
        assert [(r.objective, r.k) for r in results] == \
            [("remote-edge", 3), ("remote-clique", 3), ("remote-edge", 5),
             ("remote-clique", 3), ("remote-cycle", 4)]
        # The in-batch repeat is served without a second solve.
        assert results[3].cached and not results[1].cached
        assert results[3].value == results[1].value
        # One pairwise matrix per distinct rung touched, not per query.
        rungs_touched = {r.rung for r in results}
        assert service.stats()["matrices"]["local"]["cached"] == len(rungs_touched)

    def test_batch_reuses_matrices_across_calls(self, index):
        service = DiversityService(index)
        first = service.query("remote-edge", 5)
        matrices = service.stats()["matrices"]["local"]["cached"]
        second = service.query("remote-edge", 7)  # same rung, different k
        assert second.rung == first.rung
        assert service.stats()["matrices"]["local"]["cached"] == matrices

    def test_in_batch_repeat_counts_as_one_hit_one_miss(self, index):
        service = DiversityService(index)
        results = service.query_batch([Query("remote-edge", 4),
                                       Query("remote-edge", 4)])
        assert not results[0].cached and results[1].cached
        # Stats agree with the flags: one solve (miss), one LRU hit.
        assert service.cache.stats.misses == 1
        assert service.cache.stats.hits == 1

    def test_in_batch_repeat_survives_lru_eviction(self, index):
        # A capacity-1 cache: solving the interleaved query evicts the
        # repeat's entry, which must then be served from the batch-local
        # memo instead of crashing.
        service = DiversityService(index, cache_size=1)
        results = service.query_batch([Query("remote-edge", 4),
                                       Query("remote-cycle", 4),
                                       Query("remote-edge", 4)])
        assert results[2].cached
        assert results[2].value == results[0].value
        assert np.array_equal(results[2].indices, results[0].indices)

    def test_malformed_query_rejected(self, index):
        service = DiversityService(index)
        with pytest.raises(ValidationError, match="cannot interpret"):
            service.query_batch(["remote-edge"])
        with pytest.raises(ValidationError):
            service.query("remote-edge", 4, epsilon=0.0)

    def test_stats_shape(self, index):
        from repro.service.service import SCHEMA_VERSION

        service = DiversityService(index)
        service.query("remote-edge", 4)
        stats = service.stats()
        assert stats["schema_version"] == SCHEMA_VERSION
        assert set(stats) == {"schema_version", "counters", "caches",
                              "matrices", "executors", "epochs", "verify"}
        assert stats["counters"]["queries_answered"] == 1
        assert stats["counters"]["batches_answered"] == 1
        assert stats["epochs"]["index_built"] is True
        assert stats["epochs"]["dtype"] == "float64"
        assert set(stats["verify"]) == {
            "enabled", "fraction", "rtol", "checks", "value_mismatches",
            "index_mismatches", "ties"}
        assert stats["matrices"]["shared"] is None  # no process backend yet
        assert stats["executors"]["default"] == "serial"
        assert set(stats["caches"]["results"]) == {
            "hits", "misses", "evictions", "hit_rate", "entries", "capacity"}


class TestRoutingDecisions:
    """Regression: exactly one routing decision per query, on every path."""

    def test_single_query_routes_once(self, index):
        with DiversityService(index) as service:
            service.query("remote-edge", 6)
            assert service.stats()["counters"]["routing_decisions"] == 1
            service.query("remote-edge", 6)  # cache hit still routes once
            assert service.stats()["counters"]["routing_decisions"] == 2

    def test_batch_routes_once_per_query(self, index):
        with DiversityService(index) as service:
            service.query_batch([Query("remote-edge", k) for k in (4, 6, 9)])
            assert service.stats()["counters"]["routing_decisions"] == 3

    def test_concurrent_path_routes_once_per_query(self, index):
        with DiversityService(index) as service:
            service.query_concurrent([Query("remote-edge", 4),
                                      Query("remote-edge", 6)],
                                     max_workers=2)
            service.query("remote-clique", 5)
            assert service.stats()["counters"]["routing_decisions"] == 3


class TestExecutorChoice:
    """One static rule picks each call's backend: the call site's
    ``executor=``, else the service default, except that
    ``query_concurrent`` on a serial-default service runs on threads."""

    QUERIES = [Query("remote-edge", 4), Query("remote-clique", 6)]

    @pytest.fixture(scope="class")
    def reference(self, index):
        return DiversityService(index).query_batch(self.QUERIES)

    def _check(self, index, reference, entry, default, executor, expected):
        with DiversityService(index, executor=default,
                              executor_workers=1) as service:
            if entry == "query_batch":
                results = service.query_batch(self.QUERIES,
                                              executor=executor)
            else:
                results = service.query_concurrent(self.QUERIES,
                                                   max_workers=1,
                                                   executor=executor)
            # Backends are created lazily, so the one that ran is the
            # only one the fresh service has.
            assert service.stats()["executors"]["active"] == [expected]
        for ours, theirs in zip(results, reference):
            assert ours.value == theirs.value
            assert np.array_equal(ours.indices, theirs.indices)

    @pytest.mark.parametrize("entry, default, expected", [
        ("query_batch", "serial", "serial"),
        ("query_batch", "thread", "thread"),
        ("query_batch", "process", "process"),
        ("query_concurrent", "serial", "thread"),
        ("query_concurrent", "thread", "thread"),
        ("query_concurrent", "process", "process"),
    ])
    def test_service_default(self, index, reference, entry, default,
                             expected):
        self._check(index, reference, entry, default, None, expected)

    @pytest.mark.parametrize("entry", ["query_batch", "query_concurrent"])
    @pytest.mark.parametrize("default", EXECUTOR_NAMES)
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_call_site_executor_wins(self, index, reference, entry, default,
                                     executor):
        self._check(index, reference, entry, default, executor, executor)


# -- float64 shadow verify ----------------------------------------------------

class TestVerifyDtype:
    def test_float32_solves_are_shadow_checked(self, index):
        service = DiversityService(index.astype("float32"),
                                   verify_dtype=True, verify_fraction=1.0)
        for name in list_objectives():
            service.query(name, 5)
        verify = service.stats()["verify"]
        assert verify["enabled"] and verify["checks"] == len(list_objectives())
        assert verify["value_mismatches"] == 0
        assert verify["index_mismatches"] == 0

    def test_noop_on_float64_index(self, index):
        service = DiversityService(index, verify_dtype=True,
                                   verify_fraction=1.0)
        service.query("remote-edge", 4)
        assert service.stats()["verify"]["checks"] == 0

    def test_fraction_samples_a_stride(self, index):
        service = DiversityService(index.astype("float32"),
                                   verify_dtype=True, verify_fraction=0.5)
        workload = make_workload(8, 8, seed=3)
        service.query_batch(workload)
        checks = service.stats()["verify"]["checks"]
        assert 0 < checks < len(workload)

    def test_env_enables_verify(self, index, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_DTYPE", "1")
        monkeypatch.setenv("REPRO_VERIFY_FRACTION", "1.0")
        service = DiversityService(index.astype("float32"))
        service.query("remote-clique", 4)
        verify = service.stats()["verify"]
        assert verify["enabled"] and verify["checks"] == 1

    def test_cached_answers_are_not_reverified(self, index):
        service = DiversityService(index.astype("float32"),
                                   verify_dtype=True, verify_fraction=1.0)
        service.query("remote-edge", 4)
        service.query("remote-edge", 4)  # LRU hit — no fresh solve
        assert service.stats()["verify"]["checks"] == 1


# -- persistence --------------------------------------------------------------

class TestPersistence:
    def test_round_trip_is_bit_identical(self, index, tmp_path):
        path = tmp_path / "idx"
        save_index(index, path)
        loaded = load_index(path)
        assert isinstance(loaded, CoresetIndex)
        assert loaded.metric_name == index.metric_name
        assert loaded.dimension_estimate == index.dimension_estimate
        assert loaded.seed == index.seed
        assert [r.key for r in loaded.all_rungs()] == \
            [r.key for r in index.all_rungs()]
        for ours, theirs in zip(index.all_rungs(), loaded.all_rungs()):
            assert ours.coreset.points.tobytes() == \
                theirs.coreset.points.tobytes()

    def test_warm_service_answers_identically(self, index, tmp_path):
        path = tmp_path / "idx"
        fresh = DiversityService(index)
        fresh.save(path)
        warm = DiversityService.from_file(path)
        assert warm.build_calls == 0
        for objective, k in (("remote-edge", 6), ("remote-tree", 5)):
            a = fresh.query(objective, k)
            b = warm.query(objective, k)
            assert a.value == b.value
            assert np.array_equal(a.indices, b.indices)
        assert warm.build_calls == 0  # never rebuilt anything

    def test_missing_files_raise(self, tmp_path):
        with pytest.raises(ValidationError, match="no saved index"):
            load_index(tmp_path / "nope")

    def test_dotted_paths_do_not_collide(self, dataset, tmp_path):
        # Suffixes are appended, never substituted: "model.a" and
        # "model.b" must land on distinct files.
        a = build_coreset_index(dataset, k_max=4, k_min=4, families=("gmm",),
                                seed=1)
        b = build_coreset_index(dataset, k_max=8, k_min=8, families=("gmm",),
                                seed=2)
        save_index(a, tmp_path / "model.a")
        save_index(b, tmp_path / "model.b")
        assert (tmp_path / "model.a.npz").exists()
        assert (tmp_path / "model.b.npz").exists()
        assert [r.key for r in load_index(tmp_path / "model.a").all_rungs()] \
            == [r.key for r in a.all_rungs()]
        assert [r.key for r in load_index(tmp_path / "model.b").all_rungs()] \
            == [r.key for r in b.all_rungs()]

    def test_version_mismatch_raises(self, index, tmp_path):
        path = tmp_path / "idx"
        save_index(index, path)
        meta = json.loads((tmp_path / "idx.json").read_text())
        meta["format_version"] = 99
        (tmp_path / "idx.json").write_text(json.dumps(meta))
        with pytest.raises(ValidationError, match="format version"):
            load_index(path)

    def test_float32_round_trip_bit_exact(self, index, tmp_path):
        path = tmp_path / "idx32"
        index32 = index.astype("float32")
        save_index(index32, path)
        meta = json.loads((tmp_path / "idx32.json").read_text())
        assert meta["dtype"] == "float32"
        loaded = load_index(path)
        assert loaded.dtype == "float32"
        for ours, theirs in zip(index32.all_rungs(), loaded.all_rungs()):
            assert theirs.coreset.points.dtype == np.float32
            assert ours.coreset.points.tobytes() == \
                theirs.coreset.points.tobytes()

    def test_pre_dtype_files_load_as_float64(self, index, tmp_path):
        # A v2 sidecar written before the dtype field existed has no
        # "dtype" key; its arrays are float64 and must load unchanged.
        path = tmp_path / "idx"
        save_index(index, path)
        meta = json.loads((tmp_path / "idx.json").read_text())
        del meta["dtype"]
        (tmp_path / "idx.json").write_text(json.dumps(meta))
        loaded = load_index(path)
        assert loaded.dtype == "float64"
        assert all(r.coreset.points.dtype == np.float64
                   for r in loaded.all_rungs())

    def test_cast_on_load(self, index, tmp_path):
        path = tmp_path / "idx"
        save_index(index, path)
        fast = load_index(path, dtype="float32")
        assert fast.dtype == "float32"
        assert [r.key for r in fast.all_rungs()] == \
            [r.key for r in index.all_rungs()]
        # load_index(dtype=None) keeps the stored dtype untouched.
        assert load_index(path).dtype == "float64"


# -- LRU cache ----------------------------------------------------------------

class TestLRUCache:
    def test_eviction_order_is_lru(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)           # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_stats_accounting(self):
        cache = LRUCache(capacity=4)
        assert cache.get("missing") is None
        cache.put("x", 1)
        cache.get("x")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_put_refresh_does_not_grow(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1 and cache.get("a") == 2

    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            LRUCache(capacity=0)


# -- workload harness ---------------------------------------------------------

class TestWorkload:
    def test_workload_is_distinct_while_possible(self):
        workload = make_workload(8, 30, seed=0)
        assert len(workload) == 30
        assert len({(q.objective, q.k) for q in workload}) == 30
        assert all(2 <= q.k <= 8 for q in workload)

    def test_workload_reproducible(self):
        assert make_workload(8, 10, seed=3) == make_workload(8, 10, seed=3)
