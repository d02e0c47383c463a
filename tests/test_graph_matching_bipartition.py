"""Tests for greedy matching and balanced bipartition."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.graph.bipartition import (
    bipartition_cut_weight,
    exact_min_balanced_bipartition,
    local_search_balanced_bipartition,
    min_balanced_bipartition,
)
from repro.graph.matching import greedy_max_matching


def _random_metric(rng, n):
    pts = rng.random((n, 2))
    return np.linalg.norm(pts[:, None] - pts[None, :], axis=2)


class TestGreedyMatching:
    def test_empty(self, rng):
        assert greedy_max_matching(_random_metric(rng, 4), 0) == []

    def test_pairs_are_disjoint(self, rng):
        dist = _random_metric(rng, 12)
        pairs = greedy_max_matching(dist, 5)
        flat = [i for pair in pairs for i in pair]
        assert len(flat) == len(set(flat)) == 10

    def test_first_pair_is_farthest(self, rng):
        dist = _random_metric(rng, 10)
        pairs = greedy_max_matching(dist, 1)
        a, b = pairs[0]
        assert dist[a, b] == pytest.approx(dist.max())

    def test_greedy_order_decreasing(self, rng):
        dist = _random_metric(rng, 12)
        pairs = greedy_max_matching(dist, 6)
        weights = [dist[a, b] for a, b in pairs]
        assert all(weights[i] >= weights[i + 1] - 1e-12 for i in range(len(weights) - 1))

    def test_too_many_pairs_rejected(self, rng):
        with pytest.raises(ValidationError):
            greedy_max_matching(_random_metric(rng, 5), 3)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            greedy_max_matching(np.zeros((2, 3)), 1)


class TestBipartition:
    def test_cut_weight_known(self):
        # Two clusters at distance ~10: the min balanced cut splits within.
        pts = np.asarray([[0.0], [0.1], [10.0], [10.1]])
        dist = np.abs(pts - pts.T)
        side = np.asarray([True, True, False, False])
        assert bipartition_cut_weight(dist, side) == pytest.approx(
            10.0 + 10.1 + 9.9 + 10.0
        )

    @pytest.mark.parametrize("line, expected, q", [
        # Balanced means |Q| = 2: separating the clusters costs ~40, mixing
        # them ~20.2 (two mixed cuts tie), so exact picks a mixed split.
        ([0.0, 0.1, 10.0, 10.1], 20.2, None),
        # At odd n, Q is the smaller side and may hold point 0: Q = {0}
        # costs 2, every Q without point 0 costs 3.
        ([0.0, 1.0, -1.0], 2.0, [0]),
    ], ids=["cluster-split", "odd-n-middle"])
    def test_exact_on_a_line(self, line, expected, q):
        pts = np.asarray(line)[:, None]
        dist = np.abs(pts - pts.T)
        n = len(line)
        weight, side = exact_min_balanced_bipartition(dist)
        assert side.sum() == n // 2
        brute = min(
            bipartition_cut_weight(dist, _mask(n, subset))
            for subset in combinations(range(n), n // 2)
        )
        assert weight == pytest.approx(brute)
        assert brute == pytest.approx(expected)
        if q is not None:
            assert np.flatnonzero(side).tolist() == q

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 9])
    def test_exact_matches_enumeration(self, n, seed):
        dist = _random_metric(np.random.default_rng(seed), n)
        weight, side = exact_min_balanced_bipartition(dist)
        half = n // 2
        brute = min(
            bipartition_cut_weight(dist, _mask(n, subset))
            for subset in combinations(range(n), half)
        )
        assert weight == pytest.approx(brute)
        assert side.sum() == half

    def test_local_search_upper_bounds_exact(self, rng):
        dist = _random_metric(rng, 10)
        exact, _ = exact_min_balanced_bipartition(dist)
        heuristic, side = local_search_balanced_bipartition(dist, seed=0)
        assert heuristic >= exact - 1e-9
        assert side.sum() == 5

    def test_local_search_usually_finds_exact_small(self, rng):
        hits = 0
        for trial in range(5):
            dist = _random_metric(np.random.default_rng(trial), 8)
            exact, _ = exact_min_balanced_bipartition(dist)
            heuristic, _ = local_search_balanced_bipartition(dist, seed=trial)
            if heuristic <= exact * 1.05 + 1e-9:
                hits += 1
        assert hits >= 4

    def test_dispatch_small_vs_large(self, rng):
        dist = _random_metric(rng, 6)
        assert min_balanced_bipartition(dist)[0] == pytest.approx(
            exact_min_balanced_bipartition(dist)[0]
        )
        big = _random_metric(rng, 20)
        weight, side = min_balanced_bipartition(big)
        assert side.sum() == 10

    def test_single_point(self):
        weight, side = min_balanced_bipartition(np.zeros((1, 1)))
        assert weight == 0.0


def _mask(n: int, subset) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[list(subset)] = True
    return mask
