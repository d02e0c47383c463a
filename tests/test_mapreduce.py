"""Tests for the MapReduce engine, partitioners, and end-to-end algorithms."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import shm
from repro.datasets.synthetic import sphere_shell
from repro.exceptions import MemoryBudgetExceededError, ValidationError
from repro.experiments.reference import reference_value
from repro.mapreduce.algorithm import MRDiversityMaximizer, randomized_delegate_cap
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.partition import (
    adversarial_partition,
    chunk_partition,
    materialize_selector,
    partition_points,
    partition_selectors,
    random_partition,
)
from repro.mapreduce.shm import SharedDataset
from repro.metricspace.points import PointSet


class TestEngine:
    def test_round_applies_reducer(self):
        engine = MapReduceEngine()
        outputs = engine.run_round([[1, 2], [3, 4, 5]], lambda xs: [sum(xs)])
        assert outputs == [[3], [12]]

    def test_stats_recorded(self):
        engine = MapReduceEngine()
        engine.run_round([[1, 2], [3, 4, 5]], lambda xs: xs[:1])
        stats = engine.stats.rounds[0]
        assert stats.num_reducers == 2
        assert stats.total_memory_points == 5
        assert stats.local_memory_points == 4  # input 3 + output 1
        assert engine.stats.num_rounds == 1

    def test_local_memory_limit_enforced(self):
        engine = MapReduceEngine(local_memory_limit=3)
        with pytest.raises(MemoryBudgetExceededError):
            engine.run_round([[1, 2, 3, 4]], lambda xs: xs)

    def test_empty_round_rejected(self):
        with pytest.raises(ValidationError):
            MapReduceEngine().run_round([], lambda xs: xs)

    def test_bad_executor_rejected(self):
        with pytest.raises(ValidationError):
            MapReduceEngine(executor="threads")

    def test_bad_parallelism_rejected(self):
        with pytest.raises(ValidationError):
            MapReduceEngine(parallelism=0)

    def test_begin_job_isolates_stats(self):
        engine = MapReduceEngine()
        engine.run_round([[1]], lambda xs: xs)
        first = engine.stats
        second = engine.begin_job()
        assert second is engine.stats and second is not first
        assert first.num_rounds == 1 and second.num_rounds == 0

    def test_close_without_pool_is_noop(self):
        engine = MapReduceEngine()
        engine.close()
        engine.close()


class TestPersistentPool:
    def test_pool_survives_rounds_and_jobs(self):
        with MapReduceEngine(parallelism=2, executor="process") as engine:
            engine.run_round([[1], [2]], _double)
            pool = engine._pool
            assert pool is not None
            engine.run_round([[3], [4]], _double)
            engine.begin_job()
            outputs = engine.run_round([[5], [6]], _double)
            assert outputs == [[10], [12]]
            assert engine._pool is pool
        assert engine._pool is None  # context exit closed it

    def test_closed_engine_reopens_on_demand(self):
        engine = MapReduceEngine(parallelism=2, executor="process")
        engine.run_round([[1], [2]], _double)
        engine.close()
        assert engine.run_round([[1], [2]], _double) == [[2], [4]]
        engine.close()

    def test_broken_pool_self_heals(self):
        from concurrent.futures import BrokenExecutor

        with MapReduceEngine(parallelism=2, executor="process") as engine:
            with pytest.raises(BrokenExecutor):
                engine.run_round([[1], [2]], _die)
            # The poisoned pool was dropped; the next round gets a fresh one.
            assert engine._pool is None
            assert engine.run_round([[1], [2]], _double) == [[2], [4]]


class TestSharedDataset:
    def test_slice_selector_round_trip(self, medium_points):
        with SharedDataset(medium_points) as shared:
            ref = shared.partition((10, 25))
            assert len(ref) == 15
            resolved = ref.materialize()
            assert np.array_equal(resolved.points,
                                  medium_points.points[10:25])
            assert resolved.metric.name == medium_points.metric.name

    def test_index_selector_round_trip(self, medium_points):
        indices = np.asarray([5, 3, 250, 17])
        with SharedDataset(medium_points) as shared:
            ref = shared.partition(indices)
            assert np.array_equal(ref.materialize().points,
                                  medium_points.points[indices])

    def test_global_indices_translation(self, medium_points):
        with SharedDataset(medium_points) as shared:
            span = shared.partition((100, 120))
            assert np.array_equal(span.global_indices([0, 5]), [100, 105])
            fancy = shared.partition(np.asarray([9, 4, 7]))
            assert np.array_equal(fancy.global_indices([2, 0]), [7, 9])

    def test_descriptor_is_small_to_pickle(self, medium_points):
        import pickle

        with SharedDataset(medium_points) as shared:
            ref = shared.partition((0, len(medium_points)))
            payload = pickle.dumps(ref)
            # The whole point: descriptors stay tiny regardless of rows.
            assert len(payload) < 1024 < medium_points.points.nbytes

    def test_take_after_close_rejected(self, medium_points):
        shared = SharedDataset(medium_points)
        shared.close()
        with pytest.raises(RuntimeError):
            shared.take(np.asarray([0]))
        shared.close()  # idempotent


class TestSelectors:
    @pytest.mark.parametrize("strategy", ["random", "chunk", "adversarial"])
    def test_selectors_match_materialized_partitions(self, medium_points,
                                                     strategy):
        selectors = partition_selectors(medium_points, 4, strategy=strategy,
                                        seed=3)
        via_selectors = [materialize_selector(medium_points, s)
                         for s in selectors]
        direct = partition_points(medium_points, 4, strategy=strategy, seed=3)
        for a, b in zip(via_selectors, direct):
            assert np.array_equal(a.points, b.points)

    def test_chunk_selectors_are_spans(self, medium_points):
        selectors = partition_selectors(medium_points, 3, strategy="chunk")
        assert all(isinstance(s, tuple) for s in selectors)
        assert selectors[0][0] == 0 and selectors[-1][1] == len(medium_points)


def _double(xs):
    return [2 * x for x in xs]


def _die(xs):
    import os

    os._exit(1)


class TestPartitioners:
    def test_chunk_covers_everything(self, medium_points):
        parts = chunk_partition(medium_points, 4)
        assert sum(len(p) for p in parts) == len(medium_points)

    def test_random_is_a_partition(self, medium_points):
        parts = random_partition(medium_points, 5, seed=0)
        assert sum(len(p) for p in parts) == len(medium_points)
        stacked = np.vstack([p.points for p in parts])
        assert np.array_equal(
            np.sort(stacked, axis=0), np.sort(medium_points.points, axis=0)
        )

    def test_random_is_seed_deterministic(self, medium_points):
        a = random_partition(medium_points, 3, seed=7)
        b = random_partition(medium_points, 3, seed=7)
        assert all(np.array_equal(x.points, y.points) for x, y in zip(a, b))

    def test_adversarial_slices_by_principal_axis(self, rng):
        # Elongated cloud along x: slabs should have disjoint x-ranges.
        data = np.column_stack([np.linspace(0, 100, 60), rng.random(60)])
        parts = adversarial_partition(PointSet(data[rng.permutation(60)]), 3)
        ranges = sorted((p.points[:, 0].min(), p.points[:, 0].max()) for p in parts)
        for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert hi1 <= lo2 + 1e-9

    def test_strategy_dispatch(self, medium_points):
        for strategy in ("random", "chunk", "adversarial"):
            parts = partition_points(medium_points, 4, strategy=strategy, seed=0)
            assert len(parts) == 4
        with pytest.raises(ValidationError):
            partition_points(medium_points, 4, strategy="zigzag")

    def test_too_many_parts_rejected(self, small_points):
        with pytest.raises(ValidationError):
            chunk_partition(small_points, len(small_points) + 1)


class TestTwoRound:
    @pytest.mark.parametrize("objective", [
        "remote-edge", "remote-clique", "remote-star",
        "remote-bipartition", "remote-tree", "remote-cycle",
    ])
    def test_all_objectives(self, objective):
        pts = sphere_shell(400, 4, dim=3, seed=11)
        algo = MRDiversityMaximizer(k=4, k_prime=8, objective=objective,
                                    parallelism=4, seed=0)
        result = algo.run(pts)
        assert result.k == 4
        assert result.rounds == 2
        assert result.value > 0.0
        assert result.stats.num_rounds == 2

    def test_quality_close_to_reference(self):
        pts = sphere_shell(3000, 8, dim=3, seed=13)
        algo = MRDiversityMaximizer(k=8, k_prime=64, objective="remote-edge",
                                    parallelism=4, seed=0)
        result = algo.run(pts)
        reference = reference_value(pts, 8, "remote-edge")
        assert reference / result.value <= 1.3

    def test_local_memory_sublinear(self):
        """M_L is far below n for the 2-round algorithm (Theorem 6)."""
        pts = sphere_shell(4000, 8, dim=3, seed=17)
        algo = MRDiversityMaximizer(k=8, k_prime=16, objective="remote-edge",
                                    parallelism=8, seed=0)
        result = algo.run(pts)
        assert result.stats.max_local_memory_points < len(pts)
        # Round 1 local memory ~ n/l + k'.
        round1 = result.stats.rounds[0]
        assert round1.local_memory_points <= len(pts) // 8 + 16 + 1

    def test_randomized_mode_caps_delegates(self):
        pts = sphere_shell(1000, 8, dim=3, seed=19)
        algo = MRDiversityMaximizer(k=8, k_prime=16, objective="remote-clique",
                                    parallelism=4, seed=0)
        plain = algo.run(pts)
        randomized = algo.run(pts, randomized=True)
        cap = randomized.extra["delegate_cap"]
        assert cap is not None and cap <= 8
        assert randomized.coreset_size <= plain.coreset_size
        assert randomized.value >= plain.value / 1.5

    def test_coreset_size_bound(self):
        pts = sphere_shell(500, 4, dim=3, seed=23)
        algo = MRDiversityMaximizer(k=4, k_prime=8, objective="remote-edge",
                                    parallelism=4, seed=0)
        result = algo.run(pts)
        assert result.coreset_size <= 4 * 8  # l * k'

    def test_k_prime_lt_k_rejected(self):
        with pytest.raises(ValidationError):
            MRDiversityMaximizer(k=8, k_prime=4, objective="remote-edge")


class TestThreeRound:
    def test_runs_and_reports_three_rounds(self):
        pts = sphere_shell(800, 4, dim=3, seed=29)
        algo = MRDiversityMaximizer(k=4, k_prime=8, objective="remote-clique",
                                    parallelism=4, seed=0)
        result = algo.run_three_round(pts)
        assert result.rounds == 3
        assert result.k == 4
        assert result.stats.num_rounds == 3

    def test_memory_saving_vs_two_round(self):
        """The aggregated generalized core-set is ~k times smaller."""
        pts = sphere_shell(2000, 8, dim=3, seed=31)
        algo = MRDiversityMaximizer(k=8, k_prime=16, objective="remote-clique",
                                    parallelism=4, seed=0)
        two = algo.run(pts)
        three = algo.run_three_round(pts)
        assert three.coreset_size < two.coreset_size
        assert three.value >= two.value / 2.0

    def test_rejects_non_injective(self):
        algo = MRDiversityMaximizer(k=4, k_prime=8, objective="remote-edge",
                                    parallelism=2)
        with pytest.raises(ValidationError):
            algo.run_three_round(sphere_shell(100, 4, seed=0))


class TestMultiRound:
    def test_shrinks_to_memory_target(self):
        pts = sphere_shell(4000, 4, dim=3, seed=37)
        algo = MRDiversityMaximizer(k=4, k_prime=8, objective="remote-edge",
                                    parallelism=4, seed=0)
        result = algo.run_multi_round(pts, memory_target=100)
        assert result.extra["levels"] >= 2
        assert result.coreset_size <= 100
        assert result.k == 4

    def test_quality_survives_recursion(self):
        pts = sphere_shell(4000, 8, dim=3, seed=41)
        algo = MRDiversityMaximizer(k=8, k_prime=32, objective="remote-edge",
                                    parallelism=4, seed=0)
        result = algo.run_multi_round(pts, memory_target=400)
        reference = reference_value(pts, 8, "remote-edge")
        assert reference / result.value <= 1.5

    def test_memory_target_too_small_rejected(self):
        pts = sphere_shell(100, 4, seed=0)
        algo = MRDiversityMaximizer(k=4, k_prime=8, objective="remote-edge")
        with pytest.raises(ValidationError):
            algo.run_multi_round(pts, memory_target=4)


class TestProcessEngine:
    def test_process_pool_matches_serial_quality(self):
        pts = sphere_shell(600, 4, dim=3, seed=43)
        serial = MRDiversityMaximizer(k=4, k_prime=8, objective="remote-edge",
                                      parallelism=2, seed=5, executor="serial")
        with MRDiversityMaximizer(k=4, k_prime=8, objective="remote-edge",
                                  parallelism=2, seed=5,
                                  executor="process") as parallel:
            r_serial = serial.run(pts)
            r_parallel = parallel.run(pts)
        # Same seed -> same partitions -> identical deterministic core-sets;
        # the zero-copy path must reproduce the serial run bit-for-bit.
        assert r_parallel.extra["zero_copy"] is True
        assert np.array_equal(r_parallel.solution.points,
                              r_serial.solution.points)
        assert r_parallel.value == r_serial.value
        assert r_parallel.coreset_size == r_serial.coreset_size

    def test_zero_copy_three_round_matches_serial(self):
        pts = sphere_shell(800, 4, dim=3, seed=47)
        serial = MRDiversityMaximizer(k=4, k_prime=8,
                                      objective="remote-clique",
                                      parallelism=3, seed=1,
                                      executor="serial")
        with MRDiversityMaximizer(k=4, k_prime=8, objective="remote-clique",
                                  parallelism=3, seed=1,
                                  executor="process") as parallel:
            r_serial = serial.run_three_round(pts)
            r_parallel = parallel.run_three_round(pts)
        assert np.array_equal(r_parallel.solution.points,
                              r_serial.solution.points)
        assert r_parallel.value == r_serial.value

    def test_zero_copy_multi_round_matches_serial(self):
        pts = sphere_shell(1500, 4, dim=3, seed=53)
        serial = MRDiversityMaximizer(k=4, k_prime=8, objective="remote-edge",
                                      parallelism=4, seed=2,
                                      executor="serial")
        with MRDiversityMaximizer(k=4, k_prime=8, objective="remote-edge",
                                  parallelism=4, seed=2,
                                  executor="process") as parallel:
            r_serial = serial.run_multi_round(pts, memory_target=120)
            r_parallel = parallel.run_multi_round(pts, memory_target=120)
        assert np.array_equal(r_parallel.solution.points,
                              r_serial.solution.points)
        assert r_parallel.extra["levels"] == r_serial.extra["levels"]

    def test_pool_reused_across_runs(self):
        pts = sphere_shell(400, 4, dim=3, seed=59)
        with MRDiversityMaximizer(k=4, k_prime=8, objective="remote-clique",
                                  parallelism=2, seed=0,
                                  executor="process") as algo:
            a = algo.run(pts)
            pool = algo.engine._pool
            assert pool is not None
            b = algo.run_three_round(pts)
            assert algo.engine._pool is pool
            # Per-run stats stay isolated despite the shared engine.
            assert a.stats.num_rounds == 2
            assert b.stats.num_rounds == 3


class TestRandomizedCap:
    def test_cap_bounds(self):
        assert randomized_delegate_cap(10**6, 128, 16) <= 128
        assert randomized_delegate_cap(100, 4, 2) >= 1
        assert randomized_delegate_cap(1, 4, 2) == 1

    def test_cap_grows_with_k_over_l(self):
        small = randomized_delegate_cap(10**6, 64, 64)
        large = randomized_delegate_cap(10**6, 4096, 4)
        assert large >= small


# -- the shared-memory plane under the process engine -------------------------

def _shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments currently linked."""
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


class TestSharedNDArray:
    def test_publish_resolve_roundtrip_and_unlink(self):
        data = np.arange(12.0).reshape(3, 4)
        owner = shm.SharedNDArray.publish(data)
        assert np.array_equal(owner.ref.resolve(), data)
        assert owner.nbytes == data.nbytes
        name = owner.ref.name
        assert name in _shm_segments()
        owner.close()
        owner.close()  # idempotent
        assert name not in _shm_segments()
        shm.close_attachments()

    def test_attachment_cache_holds_one_segment(self):
        owners = [shm.SharedNDArray.publish(np.zeros((4,))) for _ in range(3)]
        try:
            for owner in owners:
                owner.ref.resolve()
            assert list(shm._ATTACHED) == [owners[-1].ref.name]
            # The evicted attachment re-attaches on demand.
            assert owners[0].ref.resolve() is not None
            assert list(shm._ATTACHED) == [owners[0].ref.name]
        finally:
            shm.close_attachments()
            for owner in owners:
                owner.close()

    def test_dead_attachments_pruned(self):
        # A publisher-side unlink must not stay pinned by this process's
        # attachment cache: a dataset's worth of RAM would stay mapped.
        owner = shm.SharedNDArray.publish(np.zeros((4,)))
        try:
            owner.ref.resolve()
            name = owner.ref.name
            owner.close()  # unlinked while still cached here
            assert name in shm._ATTACHED  # ...and still mapped
            shm._prune_dead_attachments()  # what every new attach runs
            assert name not in shm._ATTACHED
        finally:
            shm.close_attachments()
            owner.close()

    def test_finalizer_backstop_unlinks(self):
        owner = shm.SharedNDArray.publish(np.zeros((8, 8)))
        name = owner.ref.name
        assert name in _shm_segments()
        del owner
        gc.collect()
        assert name not in _shm_segments()


def test_subprocess_run_emits_no_tracker_warnings(tmp_path):
    # Spawn-context reducers attach the published dataset segment; they
    # must not double-register it with the resource tracker.  The whole
    # build runs in a subprocess so tracker output at interpreter
    # shutdown is captured too.
    script = tmp_path / "engine_tracker_probe.py"
    script.write_text(textwrap.dedent("""\
        import os
        from repro.datasets.synthetic import sphere_shell
        from repro.service import build_coreset_index

        def main():
            points = sphere_shell(600, 8, dim=3, seed=3)
            before = {n for n in os.listdir("/dev/shm")
                      if n.startswith("psm_")}
            serial = build_coreset_index(points, k_max=8, k_min=4,
                                         parallelism=2, seed=0)
            index = build_coreset_index(points, k_max=8, k_min=4,
                                        executor="process",
                                        parallelism=2, seed=0)
            after = {n for n in os.listdir("/dev/shm")
                     if n.startswith("psm_")}
            assert after - before == set(), after - before
            for ours, theirs in zip(index.all_rungs(), serial.all_rungs()):
                assert (ours.coreset.points == theirs.coreset.points).all()
            print("OK")

        if __name__ == "__main__":
            main()
    """))
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True, timeout=300,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert "leaked" not in proc.stderr, proc.stderr
    assert "KeyError" not in proc.stderr, proc.stderr
