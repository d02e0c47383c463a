"""Tests for the concurrent, memory-budgeted query-service path.

Covers the three production axes of the service:

* thread safety — lock-striped result cache with atomic stats, lazy
  build under contention, ``query_concurrent`` vs ``query_batch``
  equivalence;
* single-flight matrices — per-rung computation happens exactly once no
  matter how many threads race on the same rung;
* memory budgets — rung matrices live under ``REPRO_MATRIX_BUDGET_MB``
  with LRU eviction, recompute-on-demand, and tracemalloc-verified
  bounded residency, while answers stay identical to the unbudgeted
  service.
"""

from __future__ import annotations

import gc
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.datasets.synthetic import sphere_shell
from repro.exceptions import ValidationError
from repro.metricspace.points import PointSet
from repro.service import (
    DiversityService,
    MatrixCache,
    Query,
    StripedLRUCache,
    build_coreset_index,
    make_workload,
    matrix_budget_from_env,
)


@pytest.fixture(scope="module")
def dataset():
    return sphere_shell(2500, 16, dim=3, seed=5)


@pytest.fixture(scope="module")
def index(dataset):
    return build_coreset_index(dataset, k_max=16, k_min=4, parallelism=4,
                               seed=0)


# -- striped LRU --------------------------------------------------------------

class TestStripedLRUCache:
    def test_basic_get_put_and_aggregate_stats(self):
        cache = StripedLRUCache(capacity=64, stripes=8)
        assert cache.stripes == 8
        for i in range(20):
            cache.put(("key", i), i)
        assert len(cache) == 20
        assert all(cache.get(("key", i)) == i for i in range(20))
        assert cache.get("missing") is None
        stats = cache.stats
        assert stats.hits == 20 and stats.misses == 1
        assert stats.lookups == 21
        assert ("key", 3) in cache and "missing" not in cache

    def test_stripes_clamped_to_capacity(self):
        cache = StripedLRUCache(capacity=2, stripes=16)
        assert cache.stripes == 2
        cache.put("a", 1)
        assert cache.get("a") == 1

    def test_clear_keeps_stats(self):
        cache = StripedLRUCache(capacity=8, stripes=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_concurrent_hammering_never_loses_counts(self):
        cache = StripedLRUCache(capacity=256, stripes=8)
        threads, per_thread = 8, 200

        def worker(seed: int) -> None:
            for i in range(per_thread):
                key = ("k", (seed * per_thread + i) % 64)
                if cache.get(key) is None:
                    cache.put(key, i)

        pool = [threading.Thread(target=worker, args=(t,))
                for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        # Every get counted exactly one hit or miss — no lost updates.
        assert cache.stats.lookups == threads * per_thread


# -- budgeted single-flight matrix cache --------------------------------------

def _matrix(mb: float) -> np.ndarray:
    side = int((mb * 2**20 / 8) ** 0.5)
    return np.ones((side, side))


class TestMatrixCache:
    def test_computes_once_and_hits_after(self):
        cache = MatrixCache(budget_bytes=0)
        calls = []
        first = cache.get_or_compute("a", lambda: calls.append(1) or _matrix(0.1))
        again = cache.get_or_compute("a", lambda: calls.append(1) or _matrix(0.1))
        assert again is first and len(calls) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.computes == 1 and cache.stats.recomputes == 0

    def test_lru_eviction_under_budget(self):
        budget = int(2.5 * 2**20)
        cache = MatrixCache(budget_bytes=budget)
        for key in ("a", "b", "c"):
            cache.get_or_compute(key, lambda: _matrix(1.0))
        assert cache.nbytes <= budget
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # "a" was evicted (LRU): fetching it again recomputes.
        cache.get_or_compute("a", lambda: _matrix(1.0))
        assert cache.stats.recomputes == 1

    def test_makes_room_before_the_compute(self):
        # Eviction must happen before a miss computes, or peak memory is
        # every resident matrix plus the new one plus kernel scratch.
        budget = int(2.5 * 2**20)
        size = _matrix(1.0).nbytes
        cache = MatrixCache(budget_bytes=budget)
        resident_on_entry = []

        def compute():
            resident_on_entry.append(cache.nbytes)
            return _matrix(1.0)

        for key in ("a", "b", "c", "d"):
            cache.get_or_compute(key, compute, size)
        assert len(resident_on_entry) == 4
        assert all(resident + size <= budget
                   for resident in resident_on_entry)
        assert cache.stats.evictions == 2 and len(cache) == 2

    def test_oversize_announcement_evicts_nothing(self):
        cache = MatrixCache(budget_bytes=int(2.5 * 2**20))
        cache.get_or_compute("small", lambda: _matrix(1.0))
        big = _matrix(4.0)
        cache.get_or_compute("big", lambda: big, big.nbytes)
        assert cache.stats.evictions == 0
        assert len(cache) == 1 and cache.contains("small")

    def test_oversized_matrix_served_but_never_resident(self):
        cache = MatrixCache(budget_bytes=2**20)
        result = cache.get_or_compute("big", lambda: _matrix(4.0))
        assert result.shape[0] > 0
        assert len(cache) == 0 and cache.nbytes == 0
        # While a caller still holds the array it is shared weakly —
        # no recompute, and still nothing resident.
        again = cache.get_or_compute("big", lambda: _matrix(4.0))
        assert again is result
        assert cache.stats.computes == 1 and cache.nbytes == 0
        # Once every holder drops it, a new request recomputes — and the
        # recompute counter (the too-low-budget signal) registers it.
        del result, again
        gc.collect()
        cache.get_or_compute("big", lambda: _matrix(4.0))
        assert cache.stats.computes == 2
        assert cache.stats.recomputes == 1

    def test_oversized_matrix_has_no_recompute_convoy(self):
        # Concurrent same-key requesters of an over-budget matrix must
        # share the first compute (weakly), not serialize N recomputes
        # behind the key lock.
        cache = MatrixCache(budget_bytes=2**20)
        barrier = threading.Barrier(4)
        results = []

        def compute():
            time.sleep(0.05)
            return _matrix(4.0)

        def worker():
            barrier.wait()
            results.append(cache.get_or_compute("big", compute))

        pool = [threading.Thread(target=worker) for _ in range(4)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert cache.stats.computes == 1
        assert all(result is results[0] for result in results)
        assert cache.nbytes == 0  # still not resident

    def test_budget_read_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_MATRIX_BUDGET_MB", "7")
        assert matrix_budget_from_env() == 7 * 2**20
        assert MatrixCache().budget_bytes == 7 * 2**20
        monkeypatch.setenv("REPRO_MATRIX_BUDGET_MB", "not-a-number")
        assert matrix_budget_from_env() is None
        monkeypatch.setenv("REPRO_MATRIX_BUDGET_MB", "-3")
        assert matrix_budget_from_env() is None
        monkeypatch.delenv("REPRO_MATRIX_BUDGET_MB")
        assert MatrixCache().budget_bytes is None
        # Explicit zero forces unbudgeted even with the env set.
        monkeypatch.setenv("REPRO_MATRIX_BUDGET_MB", "7")
        assert MatrixCache(budget_bytes=0).budget_bytes is None

    def test_single_flight_under_contention(self):
        cache = MatrixCache(budget_bytes=0)
        computes = []
        barrier = threading.Barrier(8)
        results = []

        def compute():
            computes.append(threading.get_ident())
            time.sleep(0.05)  # widen the race window
            return _matrix(0.2)

        def worker():
            barrier.wait()
            results.append(cache.get_or_compute("rung", compute))

        pool = [threading.Thread(target=worker) for _ in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert len(computes) == 1, "matrix must be computed exactly once"
        assert all(result is results[0] for result in results)
        assert cache.stats.computes == 1

    def test_clear_supersedes_in_flight_computes(self):
        # A clear() during a compute (the refresh path) must let the
        # compute's caller have its matrix without parking a dead-keyed
        # array in the fresh cache.
        cache = MatrixCache(budget_bytes=0)
        started, release = threading.Event(), threading.Event()
        result = {}

        def compute():
            started.set()
            release.wait(timeout=5)
            return _matrix(0.2)

        thread = threading.Thread(
            target=lambda: result.setdefault(
                "matrix", cache.get_or_compute("rung", compute)))
        thread.start()
        assert started.wait(timeout=5)
        cache.clear()  # interleaved refresh
        release.set()
        thread.join()
        assert result["matrix"].shape[0] > 0  # caller got its matrix...
        assert len(cache) == 0 and cache.nbytes == 0  # ...nothing retained
        # The next generation computes fresh and caches normally.
        cache.get_or_compute("rung", lambda: _matrix(0.2))
        assert len(cache) == 1

    def test_tracemalloc_resident_memory_stays_under_budget(self):
        # 10 x 1 MiB matrices through a 3 MiB budget: the cache may only
        # ever hold 3 of them, and traced peak memory must reflect that —
        # far under the 10 MiB an unbudgeted sweep retains.
        budget = 3 * 2**20
        matrix_mb, keys = 1.0, list(range(10))
        gc.collect()
        tracemalloc.start()
        try:
            cache = MatrixCache(budget_bytes=budget)
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for key in keys:
                cache.get_or_compute(key, lambda: _matrix(matrix_mb))
                assert cache.nbytes <= budget
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        footprint = len(keys) * matrix_mb * 2**20
        # Peak = resident cache + the one in-flight matrix + small slack.
        assert peak - baseline <= budget + 2 * matrix_mb * 2**20
        assert peak - baseline < footprint


# -- concurrent service -------------------------------------------------------

class TestQueryConcurrent:
    def test_matches_query_batch_in_order(self, index):
        workload = make_workload(16, 24, seed=3)
        serial = DiversityService(index).query_batch(workload)
        concurrent = DiversityService(index).query_concurrent(workload,
                                                              max_workers=4)
        assert [(r.objective, r.k) for r in concurrent] == \
            [(q.objective, q.k) for q in workload]
        for ours, theirs in zip(concurrent, serial):
            assert ours.value == theirs.value
            assert ours.rung == theirs.rung
            assert np.array_equal(ours.indices, theirs.indices)

    def test_empty_workload(self, index):
        assert DiversityService(index).query_concurrent([]) == []

    def test_rejects_bad_worker_count(self, index):
        with pytest.raises(ValidationError):
            DiversityService(index).query_concurrent(
                [Query("remote-edge", 4)], max_workers=0)

    def test_build_calls_frozen_and_stats_exact_under_stress(self, index):
        # N threads x M mixed-rung queries: every query counts exactly one
        # cache hit or miss, and nothing ever rebuilds a core-set.
        service = DiversityService(index, cache_size=512)
        workload = make_workload(16, 30, seed=1)
        threads, rounds = 8, 4
        errors: list[Exception] = []

        def worker(seed: int) -> None:
            try:
                for round_index in range(rounds):
                    rotation = seed + round_index
                    service.query_batch(workload[rotation % len(workload):]
                                        + workload[:rotation % len(workload)])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        pool = [threading.Thread(target=worker, args=(t,))
                for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert not errors
        total = threads * rounds * len(workload)
        stats = service.stats()
        assert stats["counters"]["queries_answered"] == total
        assert stats["caches"]["results"]["hits"] + stats["caches"]["results"]["misses"] == total
        assert stats["counters"]["build_calls"] == 0

    def test_lazy_build_happens_once_under_contention(self, dataset):
        service = DiversityService(points=dataset, k_max=8, k_min=8, seed=0)
        barrier = threading.Barrier(6)
        results = []

        def worker():
            barrier.wait()
            results.append(service.query("remote-edge", 4))

        pool = [threading.Thread(target=worker) for _ in range(6)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert service.build_calls == service.index.build_calls > 0
        assert len({result.value for result in results}) == 1

    def test_rung_matrix_computed_exactly_once_under_contention(self, index,
                                                                monkeypatch):
        pairwise_calls: list[tuple] = []
        original = PointSet.pairwise

        def counting_pairwise(self):
            pairwise_calls.append(self.points.shape)
            time.sleep(0.02)  # widen the race window
            return original(self)

        monkeypatch.setattr(PointSet, "pairwise", counting_pairwise)
        service = DiversityService(index)
        # Distinct k on one rung: no result-cache dedup, shared matrix.
        queries = [Query("remote-edge", k) for k in range(2, 10)]
        rungs = {index.route(q.objective, q.k).key for q in queries}
        assert len(rungs) >= 2  # spans several gmm rungs
        service.query_concurrent(queries, max_workers=8)
        assert len(pairwise_calls) == len(rungs)
        assert service.stats()["matrices"]["local"]["computes"] == len(rungs)


# -- budgeted service ---------------------------------------------------------

class TestBudgetedService:
    def test_budgeted_answers_identical_and_resident_bounded(self, index):
        footprint = sum(8 * len(r.coreset) ** 2 for r in index.all_rungs())
        largest = max(8 * len(r.coreset) ** 2 for r in index.all_rungs())
        budget_mb = max(1, int(largest / 2**20) + 1)
        budget = budget_mb * 2**20
        assert budget < footprint, "budget must be below the ladder footprint"

        unbudgeted = DiversityService(index, matrix_budget_mb=0)
        budgeted = DiversityService(index, matrix_budget_mb=budget_mb)
        # Two passes with different k per rung, small rungs first, so the
        # second pass re-touches evicted matrices (recompute path).
        workload = [("remote-edge", 2), ("remote-clique", 2),
                    ("remote-edge", 6), ("remote-clique", 6),
                    ("remote-edge", 12), ("remote-clique", 12),
                    ("remote-edge", 3), ("remote-clique", 3),
                    ("remote-edge", 7), ("remote-clique", 7)]
        for objective, k in workload:
            expected = unbudgeted.query(objective, k)
            got = budgeted.query(objective, k)
            assert got.value == expected.value
            assert np.array_equal(got.indices, expected.indices)
            assert budgeted.stats()["matrices"]["local"]["resident_bytes"] <= budget
        stats = budgeted.stats()["matrices"]["local"]
        assert stats["budget_bytes"] == budget
        assert stats["evictions"] > 0 or stats["recomputes"] > 0
        unbudgeted_bytes = unbudgeted.stats()["matrices"]["local"]["resident_bytes"]
        assert unbudgeted_bytes > budget  # the budget really binds

    def test_tracemalloc_peak_below_unbudgeted(self, index):
        # The warm sweep's traced peak under a binding budget must come in
        # under the unbudgeted sweep's, by at least the retained-matrix
        # difference the budget enforces.
        workload = [("remote-edge", 2), ("remote-clique", 2),
                    ("remote-edge", 6), ("remote-clique", 6),
                    ("remote-edge", 12), ("remote-clique", 12)]
        largest = max(8 * len(r.coreset) ** 2 for r in index.all_rungs())
        budget_mb = max(1, int(largest / 2**20) + 1)

        def sweep_peak(budget: int) -> tuple[int, int]:
            gc.collect()
            tracemalloc.start()
            try:
                service = DiversityService(index, matrix_budget_mb=budget)
                baseline = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                for objective, k in workload:
                    service.query(objective, k)
                peak = tracemalloc.get_traced_memory()[1]
                resident = service.stats()["matrices"]["local"]["resident_bytes"]
            finally:
                tracemalloc.stop()
            return peak - baseline, resident

        unbudgeted_peak, unbudgeted_resident = sweep_peak(0)
        budgeted_peak, budgeted_resident = sweep_peak(budget_mb)
        assert budgeted_resident <= budget_mb * 2**20 < unbudgeted_resident
        assert budgeted_peak < unbudgeted_peak

    def test_service_makes_room_before_each_matrix_compute(self, index,
                                                          monkeypatch):
        # The service announces each rung matrix's size, so the budget
        # holds resident matrices plus the one being computed.
        largest = max(8 * len(r.coreset) ** 2 for r in index.all_rungs())
        budget_mb = max(1, int(largest / 2**20) + 1)
        service = DiversityService(index, matrix_budget_mb=budget_mb)
        original = PointSet.pairwise
        charged = []

        def recording_pairwise(points):
            charged.append(service._matrices.nbytes + 8 * len(points) ** 2)
            return original(points)

        monkeypatch.setattr(PointSet, "pairwise", recording_pairwise)
        for objective, k in [("remote-edge", 2), ("remote-clique", 2),
                             ("remote-edge", 6), ("remote-clique", 6),
                             ("remote-edge", 12), ("remote-clique", 12)]:
            service.query(objective, k)
        assert len(charged) >= 4
        assert max(charged) <= budget_mb * 2**20
