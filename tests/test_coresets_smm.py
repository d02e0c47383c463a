"""Tests for the SMM family of streaming sketches.

The key checks are the doubling-algorithm invariants (coverage and
separation), the guaranteed output size, the memory bound, and quality
against the offline optimum on planted instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coresets.smm import SMM
from repro.coresets.smm_ext import SMMExt
from repro.coresets.smm_gen import SMMGen
from repro.diversity.sequential import solve_sequential
from repro.exceptions import NotFittedError
from repro.metricspace.points import PointSet
from repro.streaming.memory import theoretical_memory_points


def _planted_stream(rng, n=400, k=4, spread=10.0):
    """Bulk noise plus k planted far points, shuffled."""
    bulk = rng.normal(scale=0.3, size=(n - k, 2))
    corners = spread * np.asarray([[1, 1], [-1, 1], [1, -1], [-1, -1]])[:k]
    data = np.vstack([bulk, corners])
    return data[rng.permutation(n)]


class TestSMMBasics:
    def test_output_at_least_k(self, rng):
        data = _planted_stream(rng)
        smm = SMM(k=4, k_prime=8)
        smm.process_batch(data)
        assert len(smm.finalize()) >= 4

    def test_short_stream_returns_everything(self):
        smm = SMM(k=2, k_prime=10)
        smm.process_batch(np.asarray([[0.0], [1.0], [2.0]]))
        assert len(smm.finalize()) == 3

    def test_memory_never_exceeds_model_bound(self, rng):
        data = _planted_stream(rng, n=600)
        smm = SMM(k=4, k_prime=8)
        smm.process_batch(data)
        smm.finalize()
        assert smm.peak_memory_points <= theoretical_memory_points(
            "remote-edge", 4, 8
        )

    def test_rejects_processing_after_finalize(self, rng):
        smm = SMM(k=1, k_prime=1)
        smm.process(np.asarray([0.0]))
        smm.finalize()
        with pytest.raises(NotFittedError):
            smm.process(np.asarray([1.0]))

    def test_finalize_before_any_point(self):
        with pytest.raises(NotFittedError):
            SMM(k=1, k_prime=1).finalize()

    def test_k_prime_lt_k_rejected(self):
        with pytest.raises(ValueError):
            SMM(k=5, k_prime=4)

    def test_duplicates_do_not_wedge_doubling(self):
        """Exact duplicates in the prefix must not freeze the threshold at 0."""
        smm = SMM(k=2, k_prime=3)
        data = np.asarray([[0.0], [0.0], [0.0], [1.0], [2.0], [5.0], [9.0]])
        smm.process_batch(data)
        coreset = smm.finalize()
        assert len(coreset) >= 2
        assert smm.threshold > 0.0

    def test_duplicate_evading_distance_kernel_is_still_absorbed(self):
        """The Gram-expansion kernel can report a tiny *nonzero* distance
        for bitwise-identical rows (while the pairwise matrix reports
        exactly 0); such a duplicate must still be absorbed at init or the
        threshold wedges at 0 and the doubling loop never terminates."""
        from repro.metricspace.distance import EuclideanMetric

        class EvasiveMetric(EuclideanMetric):
            name = "evasive-euclidean"

            def point_to_set(self, point, points):
                dist = super().point_to_set(point, points)
                return np.where(dist == 0.0, 2.6e-9, dist)

        rng = np.random.default_rng(7)
        data = rng.normal(scale=0.1, size=(60, 2))
        data[5] = data[2]  # exact duplicate inside the init prefix
        sequential = SMM(k=4, k_prime=9, metric=EvasiveMetric())
        batched = SMM(k=4, k_prime=9, metric=EvasiveMetric())
        for row in data:
            sequential.process(row)
        batched.process_batch(data)
        assert sequential.threshold > 0.0
        assert np.array_equal(batched.centers(), sequential.centers())

    def test_duplicate_in_gaussian_prefix_terminates(self):
        """Seeded replay of a fuzz case where BLAS shape-dependence let an
        exact duplicate evade the zero-distance init check and freeze the
        doubling schedule (infinite loop before the wedge guard)."""
        rng = np.random.default_rng(0)
        for _ in range(8):
            data = rng.normal(scale=0.1, size=(149, 2))
        data[5] = data[2]
        smm = SMM(k=4, k_prime=9)
        smm.process_batch(data)
        assert smm.threshold > 0.0
        assert len(smm.finalize()) >= 4


class TestSMMInvariants:
    def test_separation_invariant(self, rng):
        """After every point, centers are pairwise > d_i apart (invariant 2)."""
        data = _planted_stream(rng, n=300)
        smm = SMM(k=4, k_prime=6)
        for row in data:
            smm.process(row)
            if smm.threshold > 0 and smm.num_centers >= 2:
                centers = smm.centers()
                pair = smm.metric.pairwise(centers)
                iu, ju = np.triu_indices(len(centers), k=1)
                assert float(pair[iu, ju].min()) >= smm.threshold - 1e-9

    def test_coverage_radius(self, rng):
        """Every stream point ends within 4*d_ell of the final centers
        (the r_T <= 4 d_ell bound used by Lemma 3)."""
        data = _planted_stream(rng, n=300)
        smm = SMM(k=4, k_prime=6)
        smm.process_batch(data)
        centers = smm.centers()
        cross = smm.metric.cross(data, centers)
        assert float(cross.min(axis=1).max()) <= 4.0 * smm.threshold + 1e-9

    def test_phase_counter_advances(self, rng):
        data = _planted_stream(rng, n=500, spread=50.0)
        smm = SMM(k=4, k_prime=6)
        smm.process_batch(data)
        assert smm.phases >= 1
        assert smm.points_seen == 500


class TestSMMQuality:
    def test_recovers_planted_diversity(self, rng):
        """On the planted instance the core-set must contain points near
        all four corners, so remote-edge on the core-set is near-optimal."""
        data = _planted_stream(rng, n=500, k=4, spread=10.0)
        pts = PointSet(data)
        smm = SMM(k=4, k_prime=16)
        smm.process_batch(data)
        coreset = smm.finalize()
        _, achieved = solve_sequential(coreset, 4, "remote-edge")
        # Corners are 20 or 20*sqrt(2) apart; optimal min distance is 20.
        assert achieved >= 0.5 * 20.0

    def test_larger_k_prime_no_worse_on_average(self, rng):
        data = _planted_stream(rng, n=400)
        values = []
        for k_prime in (4, 32):
            smm = SMM(k=4, k_prime=k_prime)
            smm.process_batch(data)
            _, achieved = solve_sequential(smm.finalize(), 4, "remote-edge")
            values.append(achieved)
        assert values[1] >= values[0] - 1e-9


class TestSMMExt:
    def test_output_grouped_by_delegates(self, rng):
        data = _planted_stream(rng, n=300)
        sketch = SMMExt(k=3, k_prime=6)
        sketch.process_batch(data)
        coreset = sketch.finalize()
        assert len(coreset) >= 3
        assert all(1 <= size <= 3 for size in sketch.delegate_sizes())

    def test_memory_bound(self, rng):
        data = _planted_stream(rng, n=400)
        sketch = SMMExt(k=3, k_prime=6)
        sketch.process_batch(data)
        sketch.finalize()
        assert sketch.peak_memory_points <= theoretical_memory_points(
            "remote-clique", 3, 6
        )

    def test_delegates_enable_near_optimal_clique(self, rng):
        """Planted instance where the best clique pair sits in ONE tight
        far cluster: plain SMM would keep one point of it, SMM-EXT keeps
        delegates so both can be recovered."""
        bulk = rng.normal(scale=0.1, size=(200, 2))
        far_cluster = np.asarray([[50.0, 0.0], [50.0, 0.6]])
        data = np.vstack([bulk, far_cluster])[rng.permutation(202)]
        sketch = SMMExt(k=2, k_prime=8)
        sketch.process_batch(data)
        coreset = sketch.finalize()
        dist = coreset.pairwise()
        # Both far points (0.6 apart, 50 away from bulk) should survive as
        # center + delegate; the best 2-subset includes at least one.
        assert float(dist.max()) >= 49.0

    def test_ext_memory_greater_than_plain(self, rng):
        data = _planted_stream(rng, n=400)
        plain = SMM(k=8, k_prime=16)
        ext = SMMExt(k=8, k_prime=16)
        plain.process_batch(data)
        ext.process_batch(data)
        assert ext.peak_memory_points >= plain.peak_memory_points


class TestSMMGen:
    def test_counts_match_ext_sizes_in_total(self, rng):
        data = _planted_stream(rng, n=300)
        gen = SMMGen(k=3, k_prime=6)
        ext = SMMExt(k=3, k_prime=6)
        gen.process_batch(data)
        ext.process_batch(data)
        core = gen.finalize_generalized()
        # Same schedule, same absorb decisions: identical total payloads.
        assert core.expanded_size == sum(ext.delegate_sizes())

    def test_generalized_output_shape(self, rng):
        data = _planted_stream(rng, n=300)
        gen = SMMGen(k=3, k_prime=6)
        gen.process_batch(data)
        core = gen.finalize_generalized()
        assert core.size == gen.num_centers
        assert np.all(core.multiplicities >= 1)
        assert np.all(core.multiplicities <= 3)

    def test_memory_matches_plain_smm_bound(self, rng):
        data = _planted_stream(rng, n=400)
        gen = SMMGen(k=6, k_prime=12)
        gen.process_batch(data)
        gen.finalize_generalized()
        assert gen.peak_memory_points <= theoretical_memory_points(
            "remote-clique", 6, 12, generalized=True
        )

    def test_radius_bound_covers_stream(self, rng):
        data = _planted_stream(rng, n=300)
        gen = SMMGen(k=3, k_prime=6)
        gen.process_batch(data)
        core = gen.finalize_generalized()
        cross = core.metric.cross(data, core.points)
        assert float(cross.min(axis=1).max()) <= gen.radius_bound() + 1e-9

    def test_finalize_plain_is_blocked(self):
        gen = SMMGen(k=1, k_prime=1)
        with pytest.raises(NotImplementedError):
            gen.finalize()
