"""One matching and one farthest-point order per rung serve every query.

Both greedies behind the sequential solvers are prefix-stable on a fixed
matrix, so a :class:`SolverMemo` filled once answers every ``k`` by
slicing.  The properties hold the memo to a memo-less
``solve_on_matrix`` bit for bit on tie-heavy, read-only inputs; the
service tests count the matchings each backend actually runs.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import sphere_shell
from repro.diversity.objectives import list_objectives
from repro.diversity.sequential import SolverMemo, remote_clique
from repro.diversity.sequential.registry import solve_on_matrix
from repro.metricspace.points import PointSet
from repro.service import DiversityService, Query, build_coreset_index
from repro.service import service as service_module

DTYPES = (np.float64, np.float32)
#: The objectives solved from the greedy matching.
MATCHING_FAMILY = ("remote-bipartition", "remote-clique", "remote-star")
K_MAX = 8


def _tie_heavy(n: int, dtype) -> dict[str, np.ndarray]:
    """Integer-grid, duplicated and all-zero matrices, read-only."""
    rng = np.random.default_rng(n)
    grid = rng.integers(0, 4, size=(n, 2)).astype(np.float64)
    spread = rng.random((n, 3))
    spread[n // 2:] = spread[:n - n // 2]
    matrices = {
        "integer-grid": np.abs(grid[:, None] - grid[None]).sum(axis=2),
        "duplicated": PointSet(spread).pairwise(),
        "all-zero": np.zeros((n, n)),
    }
    for name, dist in matrices.items():
        dist = np.ascontiguousarray(dist, dtype=dtype)
        dist.setflags(write=False)
        matrices[name] = dist
    return matrices


def _ks(n: int, order: str) -> list[int]:
    ks = list(range(1, n + 1))
    if order == "descending":
        ks.reverse()
    elif order == "shuffled":
        np.random.default_rng(n).shuffle(ks)
    return ks


class TestMemoEqualsFreshSolve:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", [7, 24, 131])
    def test_every_k_and_objective_through_one_memo(self, n, dtype):
        objectives = list_objectives()
        for name, dist in _tie_heavy(n, dtype).items():
            fresh = {(objective, k): solve_on_matrix(dist, k, objective)
                     for objective in objectives for k in range(1, n + 1)}
            # Caps below the largest k: past the cap, every k that needs
            # more than the memo holds extends it.
            for k_cap, order in ((n // 3, "ascending"), (n, "descending"),
                                 (1, "shuffled")):
                memo = SolverMemo(k_cap)
                for k in _ks(n, order):
                    for objective in objectives:
                        ours = solve_on_matrix(dist, k, objective, memo=memo)
                        theirs = fresh[objective, k]
                        assert ours.dtype == theirs.dtype
                        assert np.array_equal(ours, theirs), \
                            (name, k_cap, order, objective, k)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(1, 24), seed=st.integers(0, 10**6),
           levels=st.integers(1, 4), float32=st.booleans(),
           k_cap=st.integers(1, 24), ks=st.permutations(range(1, 25)))
    def test_few_distinct_values_any_cap_and_order(self, n, seed, levels,
                                                   float32, k_cap, ks):
        """Arbitrary non-symmetric matrices drawn from a handful of values."""
        rng = np.random.default_rng(seed)
        dist = rng.integers(0, levels, size=(n, n)).astype(
            np.float32 if float32 else np.float64)
        dist.setflags(write=False)
        memo = SolverMemo(k_cap)
        for k in (k for k in ks if k <= n):
            for objective in list_objectives():
                ours = solve_on_matrix(dist, k, objective, memo=memo)
                theirs = solve_on_matrix(dist, k, objective)
                assert ours.dtype == theirs.dtype
                assert np.array_equal(ours, theirs), (objective, k)

    def test_fill_runs_to_the_cap_then_slices(self):
        dist = _tie_heavy(24, np.float64)["duplicated"]
        memo = SolverMemo(10)
        solve_on_matrix(dist, 2, "remote-clique", memo=memo)
        solve_on_matrix(dist, 3, "remote-tree", memo=memo)
        assert (len(memo.pairs), len(memo.order)) == (5, 10)
        solve_on_matrix(dist, 16, "remote-edge", memo=memo)
        assert len(memo.order) == 16

    def test_answers_do_not_alias_the_memo(self):
        dist = _tie_heavy(24, np.float64)["integer-grid"]
        memo = SolverMemo(8)
        for objective in list_objectives():
            solve_on_matrix(dist, 8, objective, memo=memo)[:] = -1
            assert np.array_equal(solve_on_matrix(dist, 8, objective,
                                                  memo=memo),
                                  solve_on_matrix(dist, 8, objective))

    def test_fill_keeps_the_longer_prefix(self):
        # A fill that comes back shorter than the held prefix (it could
        # not reach the asked count) never shrinks it: both come from the
        # same greedy run, so the longer one contains the shorter.
        memo = SolverMemo(8)
        memo.order_for(3, 10, lambda m: [4, 5, 6][:m])
        assert list(memo.order_for(5, 10, lambda m: [4])) == [4, 5, 6]
        assert memo.order == (4, 5, 6)
        memo.matching_for(4, 10, lambda p: [(0, 1), (2, 3)][:p])
        assert memo.matching_for(6, 10, lambda p: [(0, 1)]) == ((0, 1),
                                                                (2, 3))
        assert memo.pairs == ((0, 1), (2, 3))

    def test_concurrent_fills_run_once(self):
        memo = SolverMemo(6)
        fills = []
        start = threading.Barrier(4)

        def fill(m):
            fills.append(m)
            time.sleep(0.05)  # the other threads arrive while this fills
            return list(range(m))

        def take(k):
            start.wait()
            return list(memo.order_for(k, 10, fill))

        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(take, [2, 3, 4, 6]))
        assert fills == [6]
        assert got == [list(range(k)) for k in (2, 3, 4, 6)]


# -- the service shares one memo per rung and epoch ---------------------------

@pytest.fixture(scope="module")
def index():
    return build_coreset_index(sphere_shell(1600, 8, dim=3, seed=7),
                               k_max=K_MAX, k_min=4, parallelism=4, seed=0)


@pytest.fixture
def matchings(monkeypatch):
    """Every ``greedy_max_matching`` the clique solver runs, in order."""
    calls = []
    original = remote_clique.greedy_max_matching

    def counted(dist, pairs):
        calls.append((dist.shape[0], pairs))
        return original(dist, pairs)

    monkeypatch.setattr(remote_clique, "greedy_max_matching", counted)
    return calls


def _every_query() -> list[Query]:
    return [Query(objective, k, epsilon)
            for objective in list_objectives()
            for k in range(2, K_MAX + 1)
            for epsilon in (1.0, 0.2)]


def _matching_rungs(index, queries) -> set:
    return {index.route(query.objective, query.k, query.epsilon).key
            for query in queries if query.objective in MATCHING_FAMILY}


def _answers(results) -> list:
    return [(result.objective, result.k, result.rung,
             np.asarray(result.indices).tolist(), result.value.hex())
            for result in results]


class TestServiceMatchingCount:
    def test_query_batch_runs_one_matching_per_rung(self, index, matchings):
        queries = _every_query()
        rungs = _matching_rungs(index, queries)
        assert len(rungs) > 1
        serial = DiversityService(index).query_batch(queries)
        assert len(matchings) == len(rungs)
        # One query per call shares the memo the same way.
        service = DiversityService(index)
        singles = [service.query_batch([query])[0] for query in queries]
        assert len(matchings) == 2 * len(rungs)
        assert _answers(singles) == _answers(serial)

    def test_threads_fill_each_rung_once(self, index, matchings):
        queries = _every_query()
        serial = DiversityService(index).query_batch(queries)
        matchings.clear()
        threaded = DiversityService(index).query_concurrent(queries, 4)
        assert len(matchings) == len(_matching_rungs(index, queries))
        assert _answers(threaded) == _answers(serial)

    def test_evicted_matrix_keeps_its_memo(self, index, matchings):
        # Under 1 MiB the largest rung matrix (950 points) is never
        # resident, so every single-query call recomputes it; the memo
        # outlives each copy and still runs one matching per rung.
        queries = _every_query()
        service = DiversityService(index, matrix_budget_mb=1)
        budgeted = [service.query_batch([query])[0] for query in queries]
        rungs = {index.route(query.objective, query.k, query.epsilon).key
                 for query in queries}
        assert service.stats()["matrices"]["local"]["computes"] > len(rungs)
        assert len(matchings) == len(_matching_rungs(index, queries))
        assert _answers(budgeted) == _answers(
            DiversityService(index, matrix_budget_mb=0).query_batch(queries))


class TestRefreshStartsFreshMemos:
    def test_answers_equal_a_fresh_service(self, index, matchings):
        queries = _every_query()
        service = DiversityService(index)
        service.query_batch(queries)
        before = len(matchings)
        service.refresh(sphere_shell(700, 8, dim=3, seed=9))
        refreshed = service.query_batch(queries)
        rungs = _matching_rungs(service.index, queries)
        assert len(matchings) == before + len(rungs)
        fresh = DiversityService(service.index).query_batch(queries)
        assert _answers(refreshed) == _answers(fresh)
        assert {epoch for epoch, _ in service._memos} == {1}

    def test_stale_epoch_gets_a_private_memo(self, index):
        service = DiversityService(index)
        rung = index.route("remote-clique", 4, 1.0)
        stale = service._memo_for(0, rung)
        service.refresh(sphere_shell(300, 8, dim=3, seed=3))
        assert service._memo_for(0, rung) is not service._memo_for(0, rung)
        assert service._memo_for(1, rung) is service._memo_for(1, rung)
        assert stale not in service._memos.values()


def test_verify_shadow_solves_on_its_own_matrix(index, monkeypatch):
    calls = []
    original = service_module.solve_on_matrix

    def recorded(dist, k, objective, memo=None):
        indices = original(dist, k, objective, memo=memo)
        calls.append((dist.dtype, memo, indices,
                      original(dist, k, objective)))
        return indices

    monkeypatch.setattr(service_module, "solve_on_matrix", recorded)
    service = DiversityService(index.astype("float32"), verify_dtype=True,
                               verify_fraction=1.0)
    service.query_batch(_every_query())
    shadows = [call for call in calls if call[0] == np.float64]
    assert len(shadows) == len(calls) // 2 == service.verify_checks
    assert all(memo is None for _, memo, _, _ in shadows)
    assert all(memo is not None for dtype, memo, _, _ in calls
               if dtype == np.float32)
    assert all(np.array_equal(ours, alone) for _, _, ours, alone in calls)
    assert service.verify_index_mismatches == 0
