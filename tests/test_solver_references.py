"""The row-best matching and the vectorized star polish against their loops.

``_reference_matching`` and ``_reference_remote_star`` are the earlier
implementations, kept verbatim: iterated full-matrix ``argmax`` over a
float64 copy with the lower triangle masked, and one ``remote_star_value``
call per swap candidate.  The fast paths must return exactly what they
return, pair list for pair list and index for index, on inputs made of
ties: integer grids, duplicated points, an all-zero matrix, and a matrix
whose upper triangle alone carries last-bit noise (so it is not
symmetric, as blocked rung matrices need not be).  Every input is
read-only, so a write into ``dist`` would raise.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.diversity.measures import remote_star_value
from repro.diversity.sequential import remote_star
from repro.diversity.sequential.remote_clique import solve_remote_clique
from repro.diversity.sequential.remote_star import solve_remote_star
from repro.graph import matching
from repro.graph.matching import greedy_max_matching
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
    return request.param


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
