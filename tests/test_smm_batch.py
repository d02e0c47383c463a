"""Batch/sequential equivalence for the SMM sketch family.

``process_batch`` promises *exact* sequential semantics: for any stream
and any batching of it, the resulting centers, threshold, phase count,
subclass payloads (delegates / counts), merge leftovers, and peak-memory
accounting are identical to point-at-a-time ingestion.  These tests pin
that promise with seeded sweeps and hypothesis-driven random streams,
random batch splits, and adversarial inputs (exact duplicates, integer
lattices with distance ties, hostile arrival orders).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coresets.smm import SMM
from repro.coresets.smm_ext import SMMExt
from repro.coresets.smm_gen import SMMGen
from repro.exceptions import NotFittedError, ValidationError

SKETCHES = (SMM, SMMExt, SMMGen)


def _make_stream(rng: np.random.Generator, n: int, dim: int, style: str) -> np.ndarray:
    if style == "gaussian":
        return rng.normal(size=(n, dim))
    if style == "lattice":
        # Small-integer coordinates: exact float arithmetic, lots of
        # distance ties and exact duplicates.
        return rng.integers(-6, 7, size=(n, dim)).astype(np.float64)
    # "duplicates": long runs of repeated rows, exercising the
    # initialization duplicate-absorb path and delegate capping.
    base = rng.normal(size=(max(1, n // 8), dim))
    return np.repeat(base, 8, axis=0)[:n]


def _split_batches(rng: np.random.Generator, data: np.ndarray) -> list[np.ndarray]:
    blocks = []
    index = 0
    while index < len(data):
        size = int(rng.integers(1, len(data) + 2))
        blocks.append(data[index:index + size])
        index += size
    return blocks


def _ingest_sequential(sketch, data: np.ndarray) -> None:
    for row in data:
        sketch.process(row)


def _assert_same_state(sequential, batched) -> None:
    assert batched.points_seen == sequential.points_seen
    assert batched.num_centers == sequential.num_centers
    assert batched.threshold == sequential.threshold
    assert batched.phases == sequential.phases
    assert batched.peak_memory_points == sequential.peak_memory_points
    assert np.array_equal(batched.centers(), sequential.centers())
    assert len(batched._removed) == len(sequential._removed)
    for ours, theirs in zip(batched._removed, sequential._removed):
        assert np.array_equal(ours, theirs)
    if isinstance(sequential, SMMExt):
        assert batched.delegate_sizes() == sequential.delegate_sizes()
        for ours, theirs in zip(batched._delegates, sequential._delegates):
            assert np.array_equal(np.vstack(ours), np.vstack(theirs))
    if isinstance(sequential, SMMGen):
        assert batched._counts == sequential._counts
        assert batched.radius_bound() == sequential.radius_bound()


class TestBatchEquivalence:
    @pytest.mark.parametrize("cls", SKETCHES)
    @pytest.mark.parametrize("style", ["gaussian", "lattice", "duplicates"])
    def test_seeded_sweep(self, cls, style):
        """Deterministic sweep over stream shapes and random batch splits."""
        for seed in range(8):
            rng = np.random.default_rng(1000 * seed + hash(style) % 1000)
            n = int(rng.integers(1, 500))
            dim = int(rng.integers(1, 5))
            k = int(rng.integers(1, 6))
            k_prime = k + int(rng.integers(0, 10))
            data = _make_stream(rng, n, dim, style)
            sequential, batched = cls(k, k_prime), cls(k, k_prime)
            _ingest_sequential(sequential, data)
            for block in _split_batches(rng, data):
                batched.process_batch(block)
            _assert_same_state(sequential, batched)

    @settings(deadline=None, max_examples=40)
    @given(
        cls=st.sampled_from(SKETCHES),
        metric=st.sampled_from(["euclidean", "manhattan", "chebyshev"]),
        style=st.sampled_from(["gaussian", "lattice", "duplicates"]),
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 200),
        dim=st.integers(1, 4),
        k=st.integers(1, 5),
        slack=st.integers(0, 7),
    )
    def test_property_random_streams_and_batchings(
            self, cls, metric, style, seed, n, dim, k, slack):
        """For random streams and random batch sizes, batched ingestion is
        bit-identical to sequential for SMM, SMM-EXT, and SMM-GEN."""
        rng = np.random.default_rng(seed)
        data = _make_stream(rng, n, dim, style)
        k_prime = k + slack
        sequential, batched = cls(k, k_prime, metric), cls(k, k_prime, metric)
        _ingest_sequential(sequential, data)
        for block in _split_batches(rng, data):
            batched.process_batch(block)
        _assert_same_state(sequential, batched)

    @pytest.mark.parametrize("cls", [SMM, SMMExt])
    def test_finalize_matches(self, cls, rng):
        data = _make_stream(rng, 400, 3, "gaussian")
        sequential, batched = cls(4, 9), cls(4, 9)
        _ingest_sequential(sequential, data)
        batched.process_batch(data)
        assert np.array_equal(batched.finalize().points,
                              sequential.finalize().points)

    def test_finalize_generalized_matches(self, rng):
        data = _make_stream(rng, 400, 3, "gaussian")
        sequential, batched = SMMGen(4, 9), SMMGen(4, 9)
        _ingest_sequential(sequential, data)
        batched.process_batch(data)
        ours = batched.finalize_generalized()
        theirs = sequential.finalize_generalized()
        assert np.array_equal(ours.points, theirs.points)
        assert np.array_equal(ours.multiplicities, theirs.multiplicities)

    def test_mixed_point_and_batch_ingestion(self, rng):
        """Interleaving process and process_batch matches pure sequential."""
        data = _make_stream(rng, 300, 2, "gaussian")
        sequential, mixed = SMMExt(3, 7), SMMExt(3, 7)
        _ingest_sequential(sequential, data)
        mixed.process(data[0])
        mixed.process_batch(data[1:200])
        mixed.process(data[200])
        mixed.process_batch(data[201:])
        _assert_same_state(sequential, mixed)

    def test_batch_spanning_initialization(self, rng):
        """One block larger than k'+1 crosses the init/update boundary."""
        data = _make_stream(rng, 100, 2, "gaussian")
        sequential, batched = SMM(2, 4), SMM(2, 4)
        _ingest_sequential(sequential, data)
        batched.process_batch(data)
        assert batched.threshold == sequential.threshold
        _assert_same_state(sequential, batched)


class TestBatchInterface:
    def test_rejects_after_finalize(self):
        sketch = SMM(k=1, k_prime=1)
        sketch.process_batch(np.asarray([[0.0]]))
        sketch.finalize()
        with pytest.raises(NotFittedError):
            sketch.process_batch(np.asarray([[1.0]]))

    def test_empty_batch_is_noop(self):
        sketch = SMM(k=2, k_prime=4)
        sketch.process_batch(np.empty((0, 3)))
        assert sketch.points_seen == 0
        sketch.process_batch(np.asarray([[0.0], [5.0]]))
        sketch.process_batch(np.empty((0, 1)))
        assert sketch.points_seen == 2

    def test_one_dimensional_input_is_a_column(self):
        """A 1-d array means n one-dimensional points, like the per-point
        row-wise reading."""
        flat, nested = SMM(2, 3), SMM(2, 3)
        flat.process_batch(np.asarray([0.0, 1.0, 5.0, 9.0]))
        nested.process_batch(np.asarray([[0.0], [1.0], [5.0], [9.0]]))
        assert np.array_equal(flat.centers(), nested.centers())

    def test_dimension_mismatch_rejected(self):
        sketch = SMM(k=2, k_prime=4)
        sketch.process_batch(np.asarray([[0.0, 1.0]]))
        with pytest.raises(ValidationError):
            sketch.process_batch(np.asarray([[0.0, 1.0, 2.0]]))

    def test_non_finite_rejected(self):
        sketch = SMM(k=2, k_prime=4)
        with pytest.raises(ValidationError):
            sketch.process_batch(np.asarray([[0.0], [np.nan]]))

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ValidationError):
            SMM(k=2, k_prime=4).process_batch(np.zeros((2, 3, 4)))
