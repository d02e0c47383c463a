"""Tests for the streaming substrate and end-to-end streaming algorithms."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.coresets.smm import SMM
from repro.coresets.smm_ext import SMMExt
from repro.datasets.synthetic import sphere_shell
from repro.exceptions import MemoryBudgetExceededError, StreamExhaustedError
from repro.experiments.reference import reference_value
from repro.metricspace.points import PointSet
from repro.service import DiversityService, load_index
from repro.service.index import build_coreset_index
from repro.streaming.algorithm import (
    StreamingDiversityMaximizer,
    TwoPassStreamingDiversityMaximizer,
    stream_coreset,
)
from repro.streaming.memory import audit_memory, theoretical_memory_points
from repro.streaming.stream import ArrayStream, IteratorStream, ShuffledStream
from repro.streaming.throughput import measure_throughput


class TestStreams:
    def test_array_stream_replayable(self, rng):
        stream = ArrayStream(rng.random((10, 2)))
        assert len(list(stream)) == 10
        assert len(list(stream.replay())) == 10
        assert len(stream) == 10

    def test_shuffled_stream_is_permutation(self, rng):
        data = np.arange(20, dtype=float).reshape(-1, 1)
        stream = ShuffledStream(data, seed=0)
        seen = sorted(float(p[0]) for p in stream)
        assert seen == [float(i) for i in range(20)]

    def test_shuffled_stream_replay_same_order(self, rng):
        stream = ShuffledStream(rng.random((15, 2)), seed=1)
        first = np.vstack(list(stream))
        second = np.vstack(list(stream.replay()))
        assert np.array_equal(first, second)

    def test_iterator_stream_one_shot(self):
        stream = IteratorStream([np.asarray([1.0]), np.asarray([2.0])])
        assert len(list(stream)) == 2
        with pytest.raises(StreamExhaustedError):
            list(stream)
        with pytest.raises(StreamExhaustedError):
            stream.replay()

    def test_iterator_stream_has_no_length(self):
        with pytest.raises(TypeError):
            len(IteratorStream([np.asarray([1.0])]))


class TestStreamBatches:
    def test_array_stream_blocks_cover_stream_in_order(self, rng):
        data = rng.random((25, 3))
        blocks = list(ArrayStream(data).batches(10))
        assert [len(block) for block in blocks] == [10, 10, 5]
        assert np.array_equal(np.vstack(blocks), data)

    def test_batch_size_larger_than_stream(self, rng):
        data = rng.random((7, 2))
        blocks = list(ArrayStream(data).batches(100))
        assert len(blocks) == 1
        assert np.array_equal(blocks[0], data)

    def test_shuffled_stream_batches_match_iteration_order(self, rng):
        stream = ShuffledStream(rng.random((23, 2)), seed=3)
        assert np.array_equal(np.vstack(list(stream.batches(6))),
                              np.vstack(list(stream)))

    def test_iterator_stream_batches_one_shot(self):
        stream = IteratorStream([np.asarray([1.0]), np.asarray([2.0]),
                                 np.asarray([3.0])])
        blocks = list(stream.batches(2))
        assert [len(block) for block in blocks] == [2, 1]
        with pytest.raises(StreamExhaustedError):
            list(stream.batches(2))

    def test_batch_size_must_be_positive(self, rng):
        from repro.exceptions import ValidationError
        with pytest.raises(ValidationError):
            list(ArrayStream(rng.random((5, 2))).batches(0))


class TestOnePassAlgorithm:
    @pytest.mark.parametrize("objective", [
        "remote-edge", "remote-clique", "remote-star",
        "remote-bipartition", "remote-tree", "remote-cycle",
    ])
    def test_runs_for_every_objective(self, objective):
        pts = sphere_shell(300, 4, dim=3, seed=7)
        algo = StreamingDiversityMaximizer(k=4, k_prime=8, objective=objective)
        result = algo.run(ArrayStream(pts.points))
        assert result.k == 4
        assert result.value > 0.0
        assert result.passes == 1
        assert result.points_processed == 300

    def test_sketch_choice_matches_objective(self):
        edge = StreamingDiversityMaximizer(k=2, k_prime=4, objective="remote-edge")
        clique = StreamingDiversityMaximizer(k=2, k_prime=4, objective="remote-clique")
        assert type(edge.make_sketch()) is SMM
        assert type(clique.make_sketch()) is SMMExt

    def test_quality_on_planted_instance(self):
        pts = sphere_shell(2000, 8, dim=3, seed=3)
        algo = StreamingDiversityMaximizer(k=8, k_prime=64, objective="remote-edge")
        result = algo.run(ArrayStream(pts.points))
        reference = reference_value(pts, 8, "remote-edge")
        assert reference / result.value <= 2.0  # streaming guarantee is ~2+eps

    def test_memory_independent_of_stream_length(self):
        peaks = []
        for n in (500, 5000):
            pts = sphere_shell(n, 8, dim=3, seed=1)
            algo = StreamingDiversityMaximizer(k=8, k_prime=16,
                                               objective="remote-edge")
            result = algo.run(ArrayStream(pts.points))
            peaks.append(result.peak_memory_points)
        bound = theoretical_memory_points("remote-edge", 8, 16)
        assert max(peaks) <= bound

    def test_throughput_reported(self):
        pts = sphere_shell(300, 4, dim=3, seed=0)
        algo = StreamingDiversityMaximizer(k=4, k_prime=8, objective="remote-edge")
        result = algo.run(ArrayStream(pts.points))
        assert result.kernel_throughput > 0
        assert result.kernel_seconds > 0

    def test_works_on_iterator_stream(self):
        pts = sphere_shell(200, 4, dim=3, seed=0)
        algo = StreamingDiversityMaximizer(k=4, k_prime=8, objective="remote-edge")
        result = algo.run(IteratorStream(iter(pts.points)))
        assert result.k == 4

    @pytest.mark.parametrize("objective", ["remote-edge", "remote-clique"])
    def test_batched_run_identical_to_point_wise(self, objective):
        """batch_size is a pure throughput knob: solution, value, core-set,
        and memory accounting must match the per-point run exactly."""
        pts = sphere_shell(800, 6, dim=3, seed=4)
        base = StreamingDiversityMaximizer(
            k=6, k_prime=18, objective=objective).run(ArrayStream(pts.points))
        batched = StreamingDiversityMaximizer(
            k=6, k_prime=18, objective=objective,
            batch_size=128).run(ArrayStream(pts.points))
        assert np.array_equal(batched.solution.points, base.solution.points)
        assert batched.value == base.value
        assert batched.coreset_size == base.coreset_size
        assert batched.peak_memory_points == base.peak_memory_points
        assert batched.points_processed == base.points_processed
        assert batched.extra["batch_size"] == 128

    def test_batched_run_on_iterator_stream(self):
        pts = sphere_shell(300, 4, dim=3, seed=0)
        algo = StreamingDiversityMaximizer(k=4, k_prime=8,
                                           objective="remote-edge",
                                           batch_size=64)
        result = algo.run(IteratorStream(iter(pts.points)))
        assert result.k == 4
        assert result.points_processed == 300

    def test_batch_size_must_be_positive(self):
        from repro.exceptions import ValidationError
        with pytest.raises(ValidationError):
            StreamingDiversityMaximizer(k=4, k_prime=8,
                                        objective="remote-edge",
                                        batch_size=0)


class TestTwoPassAlgorithm:
    def test_memory_saving_vs_one_pass(self):
        pts = sphere_shell(1500, 8, dim=3, seed=5)
        one_pass = StreamingDiversityMaximizer(k=8, k_prime=32,
                                               objective="remote-clique")
        two_pass = TwoPassStreamingDiversityMaximizer(k=8, k_prime=32,
                                                      objective="remote-clique")
        r1 = one_pass.run(ArrayStream(pts.points))
        r2 = two_pass.run(ArrayStream(pts.points))
        assert r2.peak_memory_points < r1.peak_memory_points
        assert r2.passes == 2
        # Quality within a factor ~2 of the one-pass answer.
        assert r2.value >= r1.value / 2.5

    def test_solution_has_k_points(self):
        pts = sphere_shell(500, 4, dim=3, seed=2)
        algo = TwoPassStreamingDiversityMaximizer(k=4, k_prime=16,
                                                  objective="remote-tree")
        result = algo.run(ArrayStream(pts.points))
        assert result.k == 4

    def test_rejects_non_injective_objective(self):
        with pytest.raises(ValueError):
            TwoPassStreamingDiversityMaximizer(k=4, k_prime=8,
                                               objective="remote-edge")

    def test_rejects_one_shot_stream(self):
        pts = sphere_shell(300, 4, dim=3, seed=2)
        algo = TwoPassStreamingDiversityMaximizer(k=4, k_prime=8,
                                                  objective="remote-clique")
        with pytest.raises(StreamExhaustedError):
            algo.run(IteratorStream(iter(pts.points)))

    def test_batched_run_identical_to_point_wise(self):
        """Both passes — the SMM-GEN sketch and the delegate
        instantiation — must pick the same points under batching."""
        pts = sphere_shell(900, 6, dim=3, seed=6)
        base = TwoPassStreamingDiversityMaximizer(
            k=6, k_prime=18, objective="remote-clique").run(
                ArrayStream(pts.points))
        batched = TwoPassStreamingDiversityMaximizer(
            k=6, k_prime=18, objective="remote-clique",
            batch_size=97).run(ArrayStream(pts.points))
        assert np.array_equal(batched.solution.points, base.solution.points)
        assert batched.value == base.value
        assert batched.points_processed == base.points_processed
        assert batched.peak_memory_points == base.peak_memory_points
        assert batched.extra["instantiation_shortfall"] == \
            base.extra["instantiation_shortfall"]


class TestMemoryAudit:
    def test_audit_passes_for_honest_sketch(self, rng):
        sketch = SMM(k=4, k_prime=8)
        sketch.process_batch(rng.random((300, 2)))
        observed = audit_memory(sketch, "remote-edge", 4, 8)
        assert observed <= theoretical_memory_points("remote-edge", 4, 8)

    def test_audit_raises_on_violation(self, rng):
        sketch = SMM(k=4, k_prime=8)
        sketch.process_batch(rng.random((300, 2)))
        sketch._peak_memory = 10**6  # simulate a violation
        with pytest.raises(MemoryBudgetExceededError):
            audit_memory(sketch, "remote-edge", 4, 8)

    def test_theoretical_bounds_ordering(self):
        """EXT needs ~k times the memory of plain/generalized sketches."""
        plain = theoretical_memory_points("remote-edge", 8, 32)
        ext = theoretical_memory_points("remote-clique", 8, 32)
        gen = theoretical_memory_points("remote-clique", 8, 32, generalized=True)
        assert gen == plain
        assert ext > 3 * plain


class TestThroughput:
    def test_reports_counts_and_rates(self, rng):
        sketch = SMM(k=4, k_prime=8)
        report = measure_throughput(sketch, ArrayStream(rng.random((200, 2))))
        assert report.points == 200
        assert report.batch_size == 0
        assert report.kernel_points_per_second > 0
        assert report.wall_points_per_second <= report.kernel_points_per_second

    def test_batched_measurement_same_sketch_state(self, rng):
        data = rng.random((500, 2))
        per_point, batched = SMM(k=4, k_prime=8), SMM(k=4, k_prime=8)
        measure_throughput(per_point, ArrayStream(data))
        report = measure_throughput(batched, ArrayStream(data), batch_size=64)
        assert report.points == 500
        assert report.batch_size == 64
        assert report.kernel_points_per_second > 0
        assert np.array_equal(batched.centers(), per_point.centers())
        assert batched.peak_memory_points == per_point.peak_memory_points


class TestDefaultBatchSize:
    """Ingestion uses 1024-point blocks, whatever the benchmarks recorded.

    A recorded batch-size sweep in which batching lost once switched
    ingestion to one point at a time.  Each test plants such a record
    where that lookup searched: ``$REPRO_BENCH_RESULTS_DIR``, or
    ``benchmarks/results`` under the working directory.
    """

    @pytest.fixture(params=["env", "cwd"])
    def block_sizes(self, request, tmp_path, monkeypatch):
        """Plant a losing trajectory; record every stream block size."""
        results = (tmp_path / "elsewhere" if request.param == "env"
                   else tmp_path / "benchmarks" / "results")
        results.mkdir(parents=True)
        (results / "BENCH_fig3_batched_speedup.json").write_text(
            json.dumps({"batch_size": 4096, "speedup": 0.6}))
        monkeypatch.chdir(tmp_path)
        if request.param == "env":
            monkeypatch.setenv("REPRO_BENCH_RESULTS_DIR", str(results))
        else:
            monkeypatch.delenv("REPRO_BENCH_RESULTS_DIR", raising=False)
        sizes: list[int] = []
        batches = ArrayStream.batches

        def spy(stream, batch_size):
            sizes.append(batch_size)
            return batches(stream, batch_size)

        monkeypatch.setattr(ArrayStream, "batches", spy)
        return sizes

    def test_stream_coreset(self, block_sizes, rng):
        stream_coreset(rng.normal(size=(300, 3)), k=4, k_prime=8)
        assert block_sizes == [1024]

    def test_coreset_index_extend(self, block_sizes, rng):
        index = build_coreset_index(PointSet(rng.normal(size=(400, 3))),
                                    k_max=4, k_min=4, parallelism=2, seed=0)
        block_sizes.clear()
        index.extend(PointSet(rng.normal(size=(200, 3))))
        assert len(block_sizes) == len(index.all_rungs())
        assert set(block_sizes) == {1024}

    def test_cli_run_streaming(self, block_sizes, tmp_path):
        data = str(tmp_path / "data")
        assert main(["generate", "sphere-shell", "--n", "400", "--k", "4",
                     "--out", data]) == 0
        assert main(["run", "streaming", "--data", data, "--k", "4"]) == 0
        assert block_sizes == [1024]

    def test_service_refresh(self, block_sizes, rng):
        index = build_coreset_index(PointSet(rng.normal(size=(400, 3))),
                                    k_max=4, k_min=4, parallelism=2, seed=0)
        block_sizes.clear()
        with DiversityService(index) as service:
            service.refresh(PointSet(rng.normal(size=(200, 3))))
            assert len(block_sizes) == len(service.index.all_rungs())
        assert set(block_sizes) == {1024}

    def test_cli_refresh(self, block_sizes, tmp_path):
        data, more, idx = (str(tmp_path / name)
                           for name in ("data", "more", "idx"))
        for out, seed in ((data, "0"), (more, "1")):
            assert main(["generate", "sphere-shell", "--n", "300", "--k",
                         "4", "--seed", seed, "--out", out]) == 0
        assert main(["index", "--data", data, "--k-max", "4", "--k-min", "4",
                     "--out", idx]) == 0
        block_sizes.clear()
        assert main(["refresh", "--index", idx, "--data", more]) == 0
        assert len(block_sizes) == len(load_index(idx).all_rungs())
        assert set(block_sizes) == {1024}
