"""Tests for characterization quantities and composable core-set guarantees.

This file verifies the paper's *core* claim empirically: the constructions
yield (1+eps)-core-sets — ``div_k(T) >= div_k(S) / (1 + eps)`` — and the
composable version survives arbitrary partitioning (Definition 2).
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.coresets.characterization import (
    coreset_farness,
    coreset_range,
    injective_proxy_distance_bound,
    proxy_distance_bound,
)
from repro.coresets.composable import (
    build_composable_coreset,
    coreset_size_for,
    epsilon_prime_for,
    union_coresets,
)
from repro.coresets.generalized import GeneralizedCoreset
from repro.diversity.exact import divk_exact
from repro.diversity.generalized import gen_divk_exact
from repro.exceptions import ValidationError
from repro.metricspace.points import PointSet


class TestCharacterization:
    def test_range_on_line(self, line_points):
        # T = {0, 16}: farthest remaining point is 8 -> range 8.
        assert coreset_range(line_points, np.asarray([0, 5])) == pytest.approx(8.0)

    def test_farness_on_line(self, line_points):
        assert coreset_farness(line_points, np.asarray([0, 2, 5])) == pytest.approx(2.0)

    def test_range_of_everything_is_zero(self, small_points):
        all_idx = np.arange(len(small_points))
        assert coreset_range(small_points, all_idx) == pytest.approx(0.0)

    def test_proxy_bound_matches_range_for_full_candidates(self, medium_points):
        subset = np.asarray([0, 5, 10, 50])
        coreset = medium_points.subset(subset)
        bound = proxy_distance_bound(medium_points, coreset,
                                     np.arange(len(medium_points)))
        assert bound == pytest.approx(coreset_range(medium_points, subset))

    def test_injective_bound_at_least_plain_bound(self, medium_points):
        coreset = medium_points.subset(np.arange(20))
        candidates = np.asarray([100, 150, 200])
        plain = proxy_distance_bound(medium_points, coreset, candidates)
        injective = injective_proxy_distance_bound(medium_points, coreset,
                                                   candidates)
        assert injective >= plain - 1e-12

    def test_injective_bound_infinite_when_coreset_too_small(self, medium_points):
        coreset = medium_points.subset([0, 1])
        candidates = np.asarray([3, 4, 5])
        assert injective_proxy_distance_bound(
            medium_points, coreset, candidates) == float("inf")

    def test_injective_bound_exact_matching_case(self):
        # Two candidates both nearest to the same core-set point: injective
        # bound must route the second to the farther core-set point.
        pts = PointSet([[0.0], [0.1], [0.2], [5.0]])
        coreset = pts.subset([0, 3])
        candidates = np.asarray([1, 2])
        bound = injective_proxy_distance_bound(pts, coreset, candidates)
        assert bound == pytest.approx(4.8)

    def test_empty_coreset_rejected(self, small_points):
        with pytest.raises(ValidationError):
            coreset_range(small_points, np.asarray([], dtype=int))


class TestSizing:
    def test_epsilon_prime_relation(self):
        """1/(1 - eps') = 1 + eps/alpha."""
        for eps, alpha in [(0.5, 1.0), (0.2, 2.0), (1.0, 4.0)]:
            eps_prime = epsilon_prime_for(eps, alpha)
            assert 1.0 / (1.0 - eps_prime) == pytest.approx(1.0 + eps / alpha)

    def test_coreset_size_grows_with_dimension(self):
        small = coreset_size_for(4, 0.5, 1.0, "remote-edge")
        large = coreset_size_for(4, 0.5, 3.0, "remote-edge")
        assert large > small

    def test_coreset_size_grows_as_epsilon_shrinks(self):
        loose = coreset_size_for(4, 1.0, 2.0, "remote-edge")
        tight = coreset_size_for(4, 0.1, 2.0, "remote-edge")
        assert tight > loose

    def test_streaming_constant_larger_than_mr(self):
        mr = coreset_size_for(4, 0.5, 2.0, "remote-edge", model="mapreduce")
        streaming = coreset_size_for(4, 0.5, 2.0, "remote-edge", model="streaming")
        assert streaming > mr

    def test_injective_constant_larger(self):
        edge = coreset_size_for(4, 0.5, 2.0, "remote-edge")
        clique = coreset_size_for(4, 0.5, 2.0, "remote-clique")
        assert clique > edge

    def test_bad_model_rejected(self):
        with pytest.raises(ValueError):
            coreset_size_for(4, 0.5, 2.0, "remote-edge", model="mpi")

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValidationError):
            coreset_size_for(4, 0.0, 2.0, "remote-edge")

    @pytest.mark.parametrize("epsilon", [1e-300, 5e-324])
    def test_tiny_epsilon_clamps_instead_of_overflowing(self, epsilon):
        # (c/eps')**D overflows a float (1e-300), or eps' underflows to
        # zero (the smallest subnormal): the size clamps to sys.maxsize,
        # where every size too large for an index already sits.
        size = coreset_size_for(4, epsilon, 3.0, "remote-edge")
        assert type(size) is int and size == sys.maxsize
        assert coreset_size_for(4, 1e-20, 3.0, "remote-edge") == size
        assert coreset_size_for(4, 1e-3, 3.0, "remote-edge") < size


@pytest.fixture
def partitioned(rng):
    """A 40-point instance in 3 disjoint partitions (exact-solver sized)."""
    data = rng.random((40, 2)) * 10.0
    points = PointSet(data)
    order = rng.permutation(40)
    parts = [points.subset(chunk) for chunk in np.array_split(order, 3)]
    return points, parts


class TestComposableCoresets:
    @pytest.mark.parametrize("objective", ["remote-edge", "remote-cycle"])
    def test_gmm_coreset_quality(self, partitioned, objective):
        """div_k(union of core-sets) close to div_k(S) for Lemma-1 objectives."""
        points, parts = partitioned
        k = 3
        coresets = [build_composable_coreset(p, k, 12, objective) for p in parts]
        union = union_coresets(coresets)
        global_opt = divk_exact(points, k, objective)
        coreset_opt = divk_exact(union, k, objective)
        assert coreset_opt >= global_opt / 1.3 - 1e-9  # generous eps

    @pytest.mark.parametrize("objective", ["remote-clique", "remote-star",
                                           "remote-tree"])
    def test_ext_coreset_quality(self, partitioned, objective):
        points, parts = partitioned
        k = 3
        coresets = [build_composable_coreset(p, k, 8, objective) for p in parts]
        union = union_coresets(coresets)
        global_opt = divk_exact(points, k, objective)
        coreset_opt = divk_exact(union, k, objective)
        assert coreset_opt >= global_opt / 1.3 - 1e-9

    def test_small_partition_is_its_own_coreset(self, rng):
        tiny = PointSet(rng.random((5, 2)))
        out = build_composable_coreset(tiny, 2, 8, "remote-edge")
        assert out is tiny

    def test_generalized_coreset_quality(self, partitioned):
        points, parts = partitioned
        k = 3
        coresets = [
            build_composable_coreset(p, k, 8, "remote-clique", use_generalized=True)
            for p in parts
        ]
        union = union_coresets(coresets)
        assert isinstance(union, GeneralizedCoreset)
        global_opt = divk_exact(points, k, "remote-clique")
        gen_opt = gen_divk_exact(union, k, "remote-clique")
        assert gen_opt >= global_opt / 1.3 - 1e-9

    def test_generalized_small_partition(self, rng):
        tiny = PointSet(rng.random((4, 2)))
        out = build_composable_coreset(tiny, 2, 8, "remote-clique",
                                       use_generalized=True)
        assert isinstance(out, GeneralizedCoreset)
        assert out.size == 4
        assert np.all(out.multiplicities == 1)

    def test_union_rejects_mixed_kinds(self, rng):
        plain = PointSet(rng.random((3, 2)))
        gen = GeneralizedCoreset(points=rng.random((2, 2)),
                                 multiplicities=np.asarray([1, 1]),
                                 metric=plain.metric)
        with pytest.raises(ValueError):
            union_coresets([gen, plain])

    def test_union_rejects_empty(self):
        with pytest.raises(ValueError):
            union_coresets([])

    def test_delegate_cap_respected(self, partitioned):
        _, parts = partitioned
        out = build_composable_coreset(parts[0], 5, 4, "remote-clique",
                                       delegate_cap=2)
        # Cap 2 delegates per kernel cluster: at most 2 * k' points.
        assert len(out) <= 2 * 4


class TestGeneralizedCoresetContainer:
    def test_sizes(self):
        core = GeneralizedCoreset(points=np.asarray([[0.0], [1.0]]),
                                  multiplicities=np.asarray([2, 3]),
                                  metric=PointSet([[0.0]]).metric)
        assert core.size == 2
        assert core.expanded_size == 5
        assert len(core) == 2

    def test_owners(self):
        core = GeneralizedCoreset(points=np.asarray([[0.0], [1.0]]),
                                  multiplicities=np.asarray([2, 1]),
                                  metric=PointSet([[0.0]]).metric)
        assert core.expansion_owners().tolist() == [0, 0, 1]

    def test_coherence_enforced(self):
        core = GeneralizedCoreset(points=np.asarray([[0.0], [1.0]]),
                                  multiplicities=np.asarray([2, 1]),
                                  metric=PointSet([[0.0]]).metric)
        with pytest.raises(ValidationError):
            core.coherent_subset(np.asarray([0, 1]), np.asarray([3, 1]))

    def test_coherent_subset_drops_zero_counts(self):
        core = GeneralizedCoreset(points=np.asarray([[0.0], [1.0]]),
                                  multiplicities=np.asarray([2, 1]),
                                  metric=PointSet([[0.0]]).metric)
        subset = core.coherent_subset(np.asarray([0, 1]), np.asarray([1, 0]))
        assert subset.size == 1
        assert subset.expanded_size == 1

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ValidationError):
            GeneralizedCoreset(points=np.asarray([[0.0]]),
                               multiplicities=np.asarray([0]),
                               metric=PointSet([[0.0]]).metric)
