"""The vectorized solvers and exact evaluators against their loops.

``_reference_matching`` and ``_reference_remote_star`` are the earlier
implementations, kept verbatim: iterated full-matrix ``argmax`` over a
float64 copy with the lower triangle masked, and one ``remote_star_value``
call per swap candidate.  ``_reference_held_karp`` and
``_reference_min_balanced_cut`` are the scalar Held-Karp loop and the
one-cut-at-a-time enumeration behind remote-cycle and remote-bipartition
values.  The fast paths must return exactly what they return, pair list
for pair list, index for index, weight bit for bit, on inputs made of
ties: integer grids, duplicated points, an all-zero matrix, and a matrix
whose upper triangle alone carries last-bit noise (so it is not
symmetric, as blocked rung matrices need not be).  Every input is
read-only, so a write into ``dist`` would raise.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.diversity.measures import remote_star_value
from repro.diversity.sequential import remote_star
from repro.diversity.sequential.remote_clique import solve_remote_clique
from repro.diversity.sequential.remote_star import solve_remote_star
from repro.graph import bipartition, matching, tsp
from repro.graph.bipartition import (
    bipartition_cut_weight,
    exact_min_balanced_bipartition,
)
from repro.graph.matching import greedy_max_matching
from repro.graph.tsp import held_karp_tsp
from repro.metricspace.points import PointSet
from repro.utils.validation import as_float_array

DTYPES = (np.float64, np.float32)


def _reference_matching(dist, pairs):
    dist = np.asarray(dist, dtype=np.float64)
    working = dist.astype(np.float64, copy=True)
    # Mask the diagonal and lower triangle so argmax always returns a
    # valid unordered pair (a < b), even when all remaining distances are 0.
    working[np.tril_indices(dist.shape[0], k=0)] = -np.inf
    matching = []
    for _ in range(pairs):
        a, b = np.unravel_index(int(np.argmax(working)), working.shape)
        matching.append((int(a), int(b)))
        working[[a, b], :] = -np.inf
        working[:, [a, b]] = -np.inf
    return matching


def _reference_remote_star(dist, k):
    dist = as_float_array(dist)
    n = dist.shape[0]
    selected = solve_remote_clique(dist, k)
    if k >= n:
        return selected
    value = remote_star_value(dist[np.ix_(selected, selected)])
    sub = dist[np.ix_(selected, selected)]
    center_pos = int(sub.sum(axis=1).argmin())
    outside = np.setdiff1d(np.arange(n), selected)
    best = (value, selected)
    for candidate in outside:
        trial = selected.copy()
        trial[center_pos] = candidate
        trial_value = remote_star_value(dist[np.ix_(trial, trial)])
        if trial_value > best[0]:
            best = (trial_value, trial.copy())
    return best[1]


def _reference_held_karp(dist):
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if n <= 1:
        return 0.0, list(range(n))
    if n == 2:
        return float(2.0 * dist[0, 1]), [0, 1]
    # dp[mask][j] = best cost of a path starting at 0, visiting exactly the
    # vertices in mask (0 always in mask), ending at j.
    full = 1 << n
    dp = np.full((full, n), np.inf)
    parent = np.full((full, n), -1, dtype=np.int64)
    dp[1][0] = 0.0
    for mask in range(1, full):
        if not mask & 1:
            continue
        ends = np.flatnonzero(np.isfinite(dp[mask]))
        if len(ends) == 0:
            continue
        for j in range(n):
            bit = 1 << j
            if mask & bit:
                continue
            candidates = dp[mask][ends] + dist[ends, j]
            best = int(np.argmin(candidates))
            new_mask = mask | bit
            if candidates[best] < dp[new_mask][j]:
                dp[new_mask][j] = candidates[best]
                parent[new_mask][j] = ends[best]
    final_mask = full - 1
    closing = dp[final_mask] + dist[:, 0]
    closing[0] = np.inf
    last = int(np.argmin(closing))
    weight = float(closing[last])
    # Reconstruct the tour by walking the parent table backwards.
    tour = []
    mask, node = final_mask, last
    while node != -1:
        tour.append(node)
        prev = int(parent[mask][node])
        mask ^= 1 << node
        node = prev
    tour.reverse()
    return weight, tour


def _reference_min_balanced_cut(dist):
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if n < 2:
        return 0.0, np.zeros(n, dtype=bool)
    half = n // 2
    best_weight = np.inf
    best_side = np.zeros(n, dtype=bool)
    # Fixing point 0 on the "right" side halves the enumeration when the
    # sides have equal size (each cut counted once); not when odd.
    candidates = combinations(range(1 - n % 2, n), half)
    for subset in candidates:
        side = np.zeros(n, dtype=bool)
        side[list(subset)] = True
        weight = bipartition_cut_weight(dist, side)
        if weight < best_weight:
            best_weight = weight
            best_side = side
    return float(best_weight), best_side


def _tie_heavy(n: int, dtype, seed: int = 0) -> dict[str, np.ndarray]:
    """The tie-heavy inputs, read-only, in *dtype*."""
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, 4, size=(n, 2)).astype(np.float64)
    spread = rng.random((n, 3))
    spread[n // 2:] = spread[:n - n // 2]
    noisy = np.ones((n, n), dtype=dtype)
    bits = np.triu(rng.integers(0, 3, size=(n, n)), 1)
    noisy[bits == 1] = np.nextafter(dtype(1), dtype(2))
    noisy[bits == 2] = np.nextafter(dtype(1), dtype(0))
    matrices = {
        "integer-grid": np.abs(grid[:, None] - grid[None]).sum(axis=2),
        "duplicated": PointSet(spread).pairwise(),
        "all-zero": np.zeros((n, n)),
        "upper-noise": noisy,
    }
    for name, dist in matrices.items():
        dist = np.ascontiguousarray(dist, dtype=dtype)
        dist.setflags(write=False)
        matrices[name] = dist
    return matrices


@pytest.fixture(params=["default", "tiny"])
def block_cells(request, monkeypatch):
    """Run each case with the default scan blocks and with tiny ones, so
    block and chunk boundaries fall everywhere in small matrices."""
    if request.param == "tiny":
        monkeypatch.setattr(matching, "_BLOCK_CELLS", 16)
        monkeypatch.setattr(remote_star, "_TRIAL_CELLS", 16)
        monkeypatch.setattr(tsp, "_BLOCK_CELLS", 16)
        monkeypatch.setattr(bipartition, "_BLOCK_CELLS", 16)
    return request.param


def _tour(result):
    weight, tour = result
    return weight.hex(), tour


def _cut(result):
    weight, side = result
    assert side.dtype == bool
    return weight.hex(), side.tolist()


@functools.cache
def _references(n: int, dtype) -> dict:
    """The reference tours and cuts of ``_tie_heavy(n, dtype)``, computed
    once for both block sizes."""
    return {name: (_tour(_reference_held_karp(dist)) if n <= 13 else None,
                   _cut(_reference_min_balanced_cut(dist)))
            for name, dist in _tie_heavy(n, dtype).items()}


class TestMatchingMatchesReference:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", [2, 3, 9, 131])
    def test_every_pair_count(self, n, dtype, block_cells):
        for name, dist in _tie_heavy(n, dtype).items():
            for pairs in range(n // 2 + 1):
                assert greedy_max_matching(dist, pairs) == \
                    _reference_matching(dist, pairs), (name, pairs)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_random_rung_matrix(self, dtype, block_cells):
        rng = np.random.default_rng(3)
        dist = PointSet(rng.normal(size=(300, 3)).astype(dtype)).pairwise()
        dist.setflags(write=False)
        for pairs in (1, 4, 8, 64, 65, 150):
            assert greedy_max_matching(dist, pairs) == \
                _reference_matching(dist, pairs)

    def test_scratch_below_one_float32_matrix(self):
        # n=1024 float32: the old path held a float64 copy plus the
        # tril_indices arrays, about 4x the matrix itself.
        rng = np.random.default_rng(5)
        dist = PointSet(rng.normal(size=(1024, 3)).astype(np.float32)).pairwise()
        tracemalloc.start()
        try:
            greedy_max_matching(dist, 65)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dist.nbytes


class TestRemoteStarMatchesReference:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", [2, 5, 24])
    def test_every_k(self, n, dtype, block_cells):
        for name, dist in _tie_heavy(n, dtype).items():
            for k in range(1, n + 1):
                ours = solve_remote_star(dist, k)
                theirs = _reference_remote_star(dist, k)
                assert ours.dtype == theirs.dtype
                assert np.array_equal(ours, theirs), (name, k)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_random_rung_matrix(self, dtype, block_cells):
        rng = np.random.default_rng(4)
        dist = PointSet(rng.normal(size=(200, 3)).astype(dtype)).pairwise()
        dist.setflags(write=False)
        for k in (2, 3, 8, 16, 17, 40, 150):
            assert np.array_equal(solve_remote_star(dist, k),
                                  _reference_remote_star(dist, k))


class TestExactEvaluatorsMatchReference:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", range(2, 14))
    def test_held_karp_every_n(self, n, dtype, block_cells):
        for name, dist in _tie_heavy(n, dtype).items():
            assert _tour(held_karp_tsp(dist)) == _references(n, dtype)[name][0], name

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", range(2, 17))
    def test_cut_every_n(self, n, dtype, block_cells):
        for name, dist in _tie_heavy(n, dtype).items():
            assert _cut(exact_min_balanced_bipartition(dist)) == \
                _references(n, dtype)[name][1], name

    def test_scratch_is_bounded_and_released(self):
        # In a fresh interpreter, so that no earlier test has filled a
        # cache the calls could reuse.  dp at n=13 is 0.8 MiB; the rest is
        # chunk scratch of about 2^16 cells per array.  An unchunked
        # Held-Karp layer peaks near 2.4 MiB and an unchunked cut gather
        # near 7 MiB; index arrays kept across calls stay behind.
        probe = textwrap.dedent("""\
            import tracemalloc
            import numpy as np
            from repro.graph.bipartition import exact_min_balanced_bipartition
            from repro.graph.tsp import held_karp_tsp

            rng = np.random.default_rng(6)
            tracemalloc.start()
            for evaluate, n in ((held_karp_tsp, 13),
                                (exact_min_balanced_bipartition, 16)):
                dist = rng.random((n, n))
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                evaluate(dist)
                evaluate(dist)
                current, peak = tracemalloc.get_traced_memory()
                print(evaluate.__name__, peak - before, current - before)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"),
             env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2, proc.stdout
        for line in lines:
            name, peak, retained = line.split()
            assert int(peak) < 2 * 2**20, line
            assert int(retained) < 2**14, line


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(2, 30), seed=st.integers(0, 10**6),
       levels=st.integers(1, 4), float32=st.booleans())
def test_few_distinct_values_match_reference(n, seed, levels, float32):
    """Arbitrary non-symmetric matrices drawn from a handful of values."""
    rng = np.random.default_rng(seed)
    dist = rng.integers(0, levels, size=(n, n)).astype(
        np.float32 if float32 else np.float64)
    dist.setflags(write=False)
    pairs = int(rng.integers(0, n // 2 + 1))
    assert greedy_max_matching(dist, pairs) == _reference_matching(dist, pairs)
    k = int(rng.integers(1, n + 1))
    assert np.array_equal(solve_remote_star(dist, k),
                          _reference_remote_star(dist, k))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(2, 12), seed=st.integers(0, 10**6),
       levels=st.integers(1, 4), float32=st.booleans())
def test_exact_evaluators_few_distinct_values_match_reference(n, seed, levels, float32):
    """Held-Karp and the exact cut on arbitrary non-symmetric matrices
    drawn from a handful of values."""
    rng = np.random.default_rng(seed)
    dist = rng.integers(0, levels, size=(n, n)).astype(
        np.float32 if float32 else np.float64)
    dist.setflags(write=False)
    assert _tour(held_karp_tsp(dist)) == _tour(_reference_held_karp(dist))
    assert _cut(exact_min_balanced_bipartition(dist)) == \
        _cut(_reference_min_balanced_cut(dist))
