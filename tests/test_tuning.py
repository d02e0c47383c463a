"""Tests for the k' and kernel-tile tuning module."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.datasets.synthetic import sphere_shell, uniform_cube
from repro.exceptions import ValidationError
from repro.metricspace.blocked import (
    get_default_memory_budget,
    set_default_memory_budget,
    tile_rows_for,
)
from repro.metricspace.distance import get_metric
from repro.metricspace.points import PointSet
from repro.streaming.memory import theoretical_memory_points
from repro.tuning import (
    KernelTuning,
    recommend_k_prime,
    recommend_matrix_budget_mb,
    recommend_tile_rows,
)


class TestRecommendation:
    def test_returns_sane_band(self):
        points = uniform_cube(2000, dim=3, seed=0)
        advice = recommend_k_prime(points, k=8, seed=0)
        assert 8 <= advice.k_prime <= 16 * 8
        assert advice.estimated_dimension > 0
        assert advice.theoretical_k_prime >= advice.k_prime

    def test_higher_dimension_recommends_more(self):
        line = PointSet(np.linspace(0, 1, 1500).reshape(-1, 1))
        cube = uniform_cube(1500, dim=5, seed=1)
        low = recommend_k_prime(line, k=8, seed=0)
        high = recommend_k_prime(cube, k=8, seed=0)
        assert high.estimated_dimension > low.estimated_dimension
        assert high.k_prime >= low.k_prime

    def test_memory_budget_respected(self):
        points = uniform_cube(2000, dim=3, seed=2)
        budget = 200
        advice = recommend_k_prime(points, k=8, objective="remote-clique",
                                   memory_budget_points=budget, seed=0)
        assert advice.memory_points <= budget or advice.k_prime == 8
        assert advice.memory_points == theoretical_memory_points(
            "remote-clique", 8, advice.k_prime)

    def test_never_below_k(self):
        points = uniform_cube(500, dim=2, seed=3)
        advice = recommend_k_prime(points, k=16,
                                   memory_budget_points=10, seed=0)
        assert advice.k_prime >= 16

    def test_deterministic_for_seed(self):
        points = sphere_shell(1000, 8, seed=4)
        a = recommend_k_prime(points, k=8, seed=9)
        b = recommend_k_prime(points, k=8, seed=9)
        assert a == b

    def test_bad_epsilon(self):
        points = uniform_cube(100, seed=5)
        with pytest.raises(ValidationError):
            recommend_k_prime(points, k=4, epsilon=0.0)


class TestTileRows:
    """``recommend_tile_rows`` is a pure function of its arguments."""

    def test_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_PROFILE_PATH", raising=False)
        recommend_tile_rows("manhattan", 4096, 512, 8,
                            memory_budget_bytes=2 * 2**20)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("location", ["env", "cwd"])
    def test_planted_profile_is_not_read(self, tmp_path, monkeypatch,
                                         location):
        # A profile file with a bogus tiling under the exact key the
        # removed per-machine profile used, where that code looked.
        derived = recommend_tile_rows("euclidean", 1000, 1000, 4,
                                      memory_budget_bytes=2**20)
        key = f"euclidean:1000x1000x4:budget={2**20}:dtype=float64"
        profile = {"format_version": 3, "kernel_tuning": {
            key: {**derived.as_dict(), "tile_rows": 77, "tiles": 13}}}
        path = tmp_path / ("elsewhere.json" if location == "env"
                           else ".repro_profile.json")
        path.write_text(json.dumps(profile))
        monkeypatch.chdir(tmp_path)
        if location == "env":
            monkeypatch.setenv("REPRO_PROFILE_PATH", str(path))
        else:
            monkeypatch.delenv("REPRO_PROFILE_PATH", raising=False)
        assert recommend_tile_rows("euclidean", 1000, 1000, 4,
                                   memory_budget_bytes=2**20) == derived

    def test_float32_tiles_are_wider(self):
        narrow = recommend_tile_rows("manhattan", 100_000, 4096, 16,
                                     memory_budget_bytes=2**20)
        wide = recommend_tile_rows("manhattan", 100_000, 4096, 16,
                                   memory_budget_bytes=2**20,
                                   dtype="float32")
        assert narrow.dtype == "float64" and wide.dtype == "float32"
        # Same byte budget, half the itemsize: 2x the tile rows.
        assert wide.tile_rows == 2 * narrow.tile_rows

    def test_bigger_budget_gives_bigger_tile(self):
        small = recommend_tile_rows("euclidean", 20_000, 2000, 4,
                                    memory_budget_bytes=2**20)
        big = recommend_tile_rows("euclidean", 20_000, 2000, 4,
                                  memory_budget_bytes=2**22)
        assert small.memory_budget_bytes == 2**20
        assert big.tile_rows > small.tile_rows
        assert big.tiles < small.tiles

    @pytest.mark.parametrize("metric, dtype, budget", [
        ("euclidean", "float64", 2**20),
        ("manhattan", "float32", 3 * 2**20),
        ("jaccard", "float64", 2**22),
    ])
    def test_matches_tile_rows_for(self, metric, dtype, budget):
        tuning = recommend_tile_rows(metric, 50_000, 3000, 8,
                                     memory_budget_bytes=budget, dtype=dtype)
        resolved = get_metric(metric)
        tile = tile_rows_for(resolved, 50_000, 3000, 8, budget,
                             itemsize=np.dtype(dtype).itemsize)
        assert tuning == KernelTuning(
            metric=resolved.name, tile_rows=tile,
            tiles=-(-50_000 // tile), memory_budget_bytes=budget,
            accumulating=resolved.accumulates_per_dimension, dtype=dtype)

    def test_default_budget_is_the_kernel_default(self):
        before = get_default_memory_budget()
        set_default_memory_budget(3 * 2**20)
        try:
            tuning = recommend_tile_rows("manhattan", 50_000, 3000, 8)
        finally:
            set_default_memory_budget(before)
        assert tuning == recommend_tile_rows("manhattan", 50_000, 3000, 8,
                                             memory_budget_bytes=3 * 2**20)


class TestMatrixBudgetRecommendation:
    def test_sizes_for_largest_rungs(self):
        # Two largest rungs: 1024 and 512 points -> 8*(1024^2 + 512^2)
        # bytes = 10 MiB.
        assert recommend_matrix_budget_mb([64, 512, 1024]) == 10

    def test_resident_rungs_widens_budget(self):
        small = recommend_matrix_budget_mb([256, 256, 256], resident_rungs=1)
        large = recommend_matrix_budget_mb([256, 256, 256], resident_rungs=3)
        assert large > small

    def test_float32_halves_the_budget(self):
        # The same two largest rungs in float32: 4*(1024^2 + 512^2)
        # bytes = 5 MiB — exactly half the float64 recommendation.
        assert recommend_matrix_budget_mb([64, 512, 1024],
                                          dtype="float32") == 5
        assert recommend_matrix_budget_mb([64, 512, 1024],
                                          dtype="float64") == \
            recommend_matrix_budget_mb([64, 512, 1024])

    def test_minimum_is_one_mib(self):
        assert recommend_matrix_budget_mb([4]) == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            recommend_matrix_budget_mb([])
        with pytest.raises(ValidationError):
            recommend_matrix_budget_mb([128], resident_rungs=0)
        with pytest.raises(ValidationError):
            recommend_matrix_budget_mb([0])

    def test_budget_really_holds_the_rungs(self):
        from repro.service import MatrixCache

        counts = [100, 200, 300]
        budget = recommend_matrix_budget_mb(counts) * 2**20
        cache = MatrixCache(budget_bytes=budget)
        for n in sorted(counts)[-2:]:
            cache.get_or_compute(n, lambda n=n: np.zeros((n, n)))
        assert cache.stats.evictions == 0  # both largest fit together


class TestRegistryBudget:
    def test_sums_the_hottest_tenants(self):
        from repro.tuning import recommend_registry_budget_mb

        fleet = [[64, 512, 1024], [64, 512, 1024], [32, 64]]
        # Two identical heavy tenants at 10 MiB each; the light tail
        # rides the headroom.
        assert recommend_registry_budget_mb(fleet, hot_tenants=2) == 20
        assert recommend_registry_budget_mb(fleet, hot_tenants=1) == 10
        # A budget for the whole fleet is strictly wider.
        assert recommend_registry_budget_mb(fleet, hot_tenants=3) > 20
        # dtype threads through to the per-tenant sizing.
        assert recommend_registry_budget_mb(fleet, hot_tenants=2,
                                            dtype="float32") == 10

    def test_validation(self):
        from repro.tuning import recommend_registry_budget_mb

        with pytest.raises(ValidationError):
            recommend_registry_budget_mb([])
        with pytest.raises(ValidationError):
            recommend_registry_budget_mb([[128]], hot_tenants=0)
        with pytest.raises(ValidationError):
            recommend_registry_budget_mb([[]])


class TestTenantWeights:
    def test_weights_proportional_to_traffic_and_clamped(self):
        from repro.tuning import recommend_tenant_weights

        weights = recommend_tenant_weights(
            {"hot": 1000, "warm": 500, "cool": 250, "cold": 1})
        assert weights == {"hot": 4, "warm": 2, "cool": 1, "cold": 1}
        # The clamp keeps a zipf-hot tenant from monopolizing dispatch.
        assert recommend_tenant_weights(
            {"whale": 10**9, "minnow": 1}, max_weight=8)["whale"] == 8
        # Every tenant gets at least weight 1 — nobody is starved out
        # of the round by the recommender itself.
        assert set(recommend_tenant_weights(
            {"a": 0, "b": 0}).values()) == {1}

    def test_round_trips_into_valid_quotas(self):
        from repro.service import TenantQuota
        from repro.tuning import recommend_tenant_weights

        weights = recommend_tenant_weights({"eu": 300, "us": 100})
        for weight in weights.values():
            TenantQuota(weight=weight)  # always a valid manifest quota

    def test_validation(self):
        from repro.tuning import recommend_tenant_weights

        with pytest.raises(ValidationError):
            recommend_tenant_weights({})
        with pytest.raises(ValidationError):
            recommend_tenant_weights({"eu": -1})
        with pytest.raises(ValidationError):
            recommend_tenant_weights({"eu": 5}, max_weight=0)


class TestRecommendationPipeline:
    def test_recommendation_actually_performs(self):
        """End-to-end: the recommended k' achieves a good ratio."""
        from repro.experiments.harness import approximation_ratio
        from repro.experiments.reference import reference_value
        from repro.streaming.algorithm import StreamingDiversityMaximizer
        from repro.streaming.stream import ArrayStream

        points = sphere_shell(5000, 8, dim=3, seed=6)
        advice = recommend_k_prime(points, k=8, seed=0)
        algo = StreamingDiversityMaximizer(k=8, k_prime=advice.k_prime,
                                           objective="remote-edge")
        result = algo.run(ArrayStream(points.points))
        reference = reference_value(points, 8, "remote-edge")
        assert approximation_ratio(reference, result.value) <= 1.8
