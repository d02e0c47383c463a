"""Tests for the k'/tile/batch auto-tuning module."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.datasets.synthetic import sphere_shell, uniform_cube
from repro.exceptions import ValidationError
from repro.metricspace.points import PointSet
from repro.streaming.memory import theoretical_memory_points
from repro.tuning import (
    load_tile_profile,
    recommend_batch_size,
    recommend_k_prime,
    recommend_matrix_budget_mb,
    recommend_tile_rows,
    save_tile_profile,
    tile_profile_path,
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

class TestTileProfile:
    """The per-machine kernel-tile profile (.repro_profile.json)."""

    def test_recommendation_is_recorded(self):
        # The autouse conftest fixture points REPRO_PROFILE_PATH at a tmp
        # file, so this exercises the env-overridable path too.
        tuning = recommend_tile_rows("manhattan", 4096, 512, 8,
                                     memory_budget_bytes=2 * 2**20)
        path = tile_profile_path()
        assert path.exists()
        entries = load_tile_profile()
        key = f"manhattan:4096x512x8:budget={2 * 2**20}:dtype=float64"
        assert entries[key] == tuning.as_dict()

    def test_profile_entry_is_reused(self):
        recommend_tile_rows("euclidean", 1000, 1000, 4,
                            memory_budget_bytes=2**20)
        # Doctor the stored tiling: a later call must return the measured
        # (stored) value instead of re-deriving it.
        entries = load_tile_profile()
        (key,) = entries
        entries[key]["tile_rows"] = 77
        save_tile_profile(entries)
        tuning = recommend_tile_rows("euclidean", 1000, 1000, 4,
                                     memory_budget_bytes=2**20)
        assert tuning.tile_rows == 77

    def test_use_profile_false_ignores_profile(self):
        baseline = recommend_tile_rows("euclidean", 1000, 1000, 4,
                                       memory_budget_bytes=2**20,
                                       use_profile=False)
        entries = load_tile_profile()
        assert entries == {}  # nothing recorded either
        save_tile_profile({
            f"euclidean:1000x1000x4:budget={2**20}:dtype=float64":
            {**baseline.as_dict(), "tile_rows": 99}})
        fresh = recommend_tile_rows("euclidean", 1000, 1000, 4,
                                    memory_budget_bytes=2**20,
                                    use_profile=False)
        assert fresh.tile_rows == baseline.tile_rows != 99

    def test_different_budget_is_a_different_key(self):
        recommend_tile_rows("euclidean", 2000, 2000, 4,
                            memory_budget_bytes=2**20)
        recommend_tile_rows("euclidean", 2000, 2000, 4,
                            memory_budget_bytes=2**22)
        assert len(load_tile_profile()) == 2

    def test_malformed_profile_degrades_gracefully(self):
        path = tile_profile_path()
        path.write_text("{not json")
        assert load_tile_profile() == {}
        tuning = recommend_tile_rows("euclidean", 500, 500, 3)
        assert tuning.tile_rows >= 1

    def test_version_mismatch_invalidates_profile(self):
        recommend_tile_rows("euclidean", 600, 600, 3,
                            memory_budget_bytes=2**20)
        path = tile_profile_path()
        payload = json.loads(path.read_text())
        assert payload["kernel_tuning"]  # something was recorded
        payload["format_version"] = 99   # a future, incompatible layout
        path.write_text(json.dumps(payload))
        # Stale-version entries must not pin an outdated derivation.
        assert load_tile_profile() == {}

    def test_dtype_is_a_distinct_key_with_wider_tiles(self):
        narrow = recommend_tile_rows("manhattan", 100_000, 4096, 16,
                                     memory_budget_bytes=2**20)
        wide = recommend_tile_rows("manhattan", 100_000, 4096, 16,
                                   memory_budget_bytes=2**20,
                                   dtype="float32")
        assert len(load_tile_profile()) == 2  # keyed per dtype
        assert narrow.dtype == "float64" and wide.dtype == "float32"
        # Same byte budget, half the itemsize: 2x the tile rows.
        assert wide.tile_rows == 2 * narrow.tile_rows

    def test_stale_entry_layout_falls_back_to_derivation(self):
        derived = recommend_tile_rows("cosine", 800, 800, 6,
                                      memory_budget_bytes=2**20,
                                      use_profile=False)
        save_tile_profile({f"cosine:800x800x6:budget={2**20}:dtype=float64":
                           {"unexpected": "layout"}})
        tuning = recommend_tile_rows("cosine", 800, 800, 6,
                                     memory_budget_bytes=2**20)
        assert tuning.tile_rows == derived.tile_rows


class TestRecommendBatchSize:
    """Batch-size auto-tuning from the BENCH_fig3_*.json trajectory."""

    @staticmethod
    def _write(directory, name, payload):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / name).write_text(json.dumps(payload))

    def test_best_measured_batch_size_wins(self, tmp_path):
        self._write(tmp_path, "BENCH_fig3_batched_speedup.json",
                    {"batch_size": 2048, "speedup": 7.5})
        self._write(tmp_path, "BENCH_fig3_throughput.json",
                    {"batch_size": 512, "cells": [
                        {"per_point_pps": 100.0, "batched_pps": 300.0},
                        {"per_point_pps": 100.0, "batched_pps": 500.0}]})
        assert recommend_batch_size(tmp_path) == 2048

    def test_batch_size_sweep_is_arg_maxed(self, tmp_path):
        self._write(tmp_path, "BENCH_fig3_batched_speedup.json",
                    {"batch_size": 1024, "speedup": 50.0, "sweep": [
                        {"batch_size": 256, "speedup": 40.0},
                        {"batch_size": 1024, "speedup": 50.0},
                        {"batch_size": 4096, "speedup": 62.0},
                        {"batch_size": "bad", "speedup": 99.0}]})
        assert recommend_batch_size(tmp_path) == 4096

    def test_throughput_sweep_alone_suffices(self, tmp_path):
        self._write(tmp_path, "BENCH_fig3_throughput.json",
                    {"batch_size": 256, "cells": [
                        {"per_point_pps": 10.0, "batched_pps": 80.0}]})
        assert recommend_batch_size(tmp_path) == 256

    def test_losing_trajectory_disables_batching(self, tmp_path):
        self._write(tmp_path, "BENCH_fig3_batched_speedup.json",
                    {"batch_size": 4096, "speedup": 0.6})
        assert recommend_batch_size(tmp_path) == 1

    def test_no_trajectory_returns_default(self, tmp_path):
        assert recommend_batch_size(tmp_path / "empty") == 1024
        assert recommend_batch_size(tmp_path / "empty", default=64) == 64
        # The None sentinel lets callers distinguish "no measurement".
        assert recommend_batch_size(tmp_path / "empty", default=None) is None

    def test_env_var_is_authoritative(self, tmp_path, monkeypatch):
        self._write(tmp_path / "env", "BENCH_fig3_batched_speedup.json",
                    {"batch_size": 128, "speedup": 3.0})
        monkeypatch.setenv("REPRO_BENCH_RESULTS_DIR", str(tmp_path / "env"))
        assert recommend_batch_size() == 128

    def test_garbage_files_are_skipped(self, tmp_path):
        self._write(tmp_path, "BENCH_fig3_throughput.json",
                    {"batch_size": "huge", "cells": []})
        (tmp_path / "BENCH_fig3_other.json").write_text("not json")
        assert recommend_batch_size(tmp_path) == 1024

    def test_non_numeric_cells_are_skipped(self, tmp_path):
        self._write(tmp_path, "BENCH_fig3_throughput.json",
                    {"batch_size": 512, "cells": [
                        {"per_point_pps": "100", "batched_pps": 300.0},
                        {"per_point_pps": 0.0, "batched_pps": 300.0},
                        {"per_point_pps": 100.0, "batched_pps": None},
                        "not a cell",
                        {"per_point_pps": 100.0, "batched_pps": 250.0}]})
        # Only the last cell is usable; it shows batching winning.
        assert recommend_batch_size(tmp_path) == 512


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


class TestProfileMigration:
    """Profile formats v2 and v3 load; v1 and newer ones are ignored."""

    @staticmethod
    def _write_raw(payload):
        path = tile_profile_path()
        path.write_text(json.dumps(payload))
        return path

    def test_v1_profile_loads_as_empty(self):
        # Pre-dtype v1 files must not pin outdated tilings.
        self._write_raw({"format_version": 1,
                         "kernel_tuning": {"stale": {"tile_rows": 7}}})
        assert load_tile_profile() == {}

    def test_v2_profile_entries_load(self):
        entry = {"euclidean:10x10x2:budget=1:dtype=float64":
                 {"tile_rows": 5}}
        self._write_raw({"format_version": 2, "kernel_tuning": entry})
        assert load_tile_profile() == entry

    def test_v3_calibration_block_is_ignored_and_kept(self):
        # v3 files written when the profile carried a query-planner
        # calibration block still load, and saving keeps the block.
        block = {"calibrated": True, "scale": 2.0}
        self._write_raw({"format_version": 3,
                         "kernel_tuning": {"old": {"tile_rows": 4}},
                         "planner_calibration": block})
        assert load_tile_profile() == {"old": {"tile_rows": 4}}
        save_tile_profile({"key": {"tile_rows": 3}})
        assert load_tile_profile() == {"key": {"tile_rows": 3}}
        payload = json.loads(tile_profile_path().read_text())
        assert payload["planner_calibration"] == block

    def test_save_upgrades_v2_in_place(self):
        entry = {"k": {"tile_rows": 9}}
        self._write_raw({"format_version": 2, "kernel_tuning": entry})
        save_tile_profile(load_tile_profile())
        payload = json.loads(tile_profile_path().read_text())
        assert payload["format_version"] == 3
        assert payload["kernel_tuning"] == entry  # survives the upgrade


    def test_calibration_block_ignored_when_malformed(self):
        # A leftover block of any shape neither breaks loading nor is
        # dropped by a later save.
        self._write_raw({"format_version": 3,
                         "kernel_tuning": {"old": {"tile_rows": 2}},
                         "planner_calibration": ["not", "a", "dict"]})
        assert load_tile_profile() == {"old": {"tile_rows": 2}}
        save_tile_profile({"key": {"tile_rows": 3}})
        payload = json.loads(tile_profile_path().read_text())
        assert payload["planner_calibration"] == ["not", "a", "dict"]
        assert load_tile_profile() == {"key": {"tile_rows": 3}}

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
