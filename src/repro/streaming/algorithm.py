"""End-to-end streaming diversity maximization (Theorems 3 and 9).

One pass builds a core-set with the sketch matching the objective (SMM for
remote-edge/cycle, SMM-EXT for the injective-proxy objectives); the final
solution is computed on the core-set by the sequential ``alpha``-approximation,
giving an ``alpha + eps`` approximation overall.

:class:`TwoPassStreamingDiversityMaximizer` implements the memory-saving
variant of Theorem 9 for the four injective-proxy objectives: pass one runs
SMM-GEN (counts only, ``O(k')`` memory), the adapted sequential algorithm
picks a coherent subset of expanded size ``k`` (Fact 2), and pass two
re-materializes actual delegate points by ``delta``-instantiation
(Lemma 7).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.coresets.smm import SMM
from repro.coresets.smm_ext import SMMExt
from repro.coresets.smm_gen import SMMGen
from repro.diversity.generalized import solve_generalized
from repro.diversity.objectives import Objective, get_objective
from repro.diversity.sequential.registry import solve_sequential
from repro.metricspace.distance import Metric, get_metric
from repro.metricspace.points import PointSet
from repro.streaming.stream import ArrayStream, Stream
from repro.streaming.throughput import measure_throughput
from repro.utils.validation import as_float_array, check_positive_int

#: Ingestion block size used when a caller gives none.  Batched and
#: per-point ingestion build the same sketch, so this only sets speed.
DEFAULT_BATCH_SIZE = 1024


def stream_coreset(source: Stream | PointSet | np.ndarray, k: int,
                   k_prime: int, objective: str | Objective = "remote-edge",
                   metric: str | Metric | None = None,
                   batch_size: int | None = None) -> PointSet:
    """One-pass composable core-set of *source* via the batched SMM path.

    Runs the sketch matching *objective* (SMM for the non-injective
    objectives, SMM-EXT for the injective ones) over the input in blocks
    of *batch_size* points and returns the finalized core-set — the
    streaming-model counterpart of
    :func:`repro.coresets.composable.build_composable_coreset`, and the
    ingestion kernel behind :meth:`repro.service.index.CoresetIndex.extend`.

    Parameters
    ----------
    source:
        A :class:`~repro.streaming.stream.Stream`, a
        :class:`~repro.metricspace.points.PointSet`, or a point array.
    k, k_prime:
        Sketch parameters (``k' >= k``); the core-set has at least ``k``
        points, stream length permitting.
    objective:
        Diversity objective selecting the sketch family.
    metric:
        Metric override; defaults to the point set's own metric
        (``"euclidean"`` for raw arrays and streams).
    batch_size:
        Ingestion block size, default :data:`DEFAULT_BATCH_SIZE`.
        Batched and per-point ingestion produce identical sketches.
    """
    objective = get_objective(objective)
    if isinstance(source, PointSet):
        if metric is None:
            metric = source.metric
        stream: Stream = ArrayStream(source.points)
    elif isinstance(source, Stream):
        stream = source
    else:
        stream = ArrayStream(as_float_array(source))
    metric = get_metric("euclidean" if metric is None else metric)
    if batch_size is None:
        batch_size = DEFAULT_BATCH_SIZE
    maximizer = StreamingDiversityMaximizer(k=k, k_prime=k_prime,
                                            objective=objective,
                                            metric=metric,
                                            batch_size=batch_size)
    sketch = maximizer.make_sketch()
    for batch in stream.batches(maximizer.batch_size):
        sketch.process_batch(batch)
    return sketch.finalize()


@dataclass
class StreamingResult:
    """Outcome of a streaming run.

    Attributes
    ----------
    solution:
        The selected ``k`` points.
    value:
        Diversity of the solution under the chosen objective.
    coreset_size:
        Number of points in the core-set handed to the sequential solver.
    peak_memory_points:
        Maximum number of points held in memory during the pass(es).
    points_processed:
        Total points consumed (summed over passes).
    passes:
        Number of passes over the stream.
    kernel_seconds:
        Time spent inside the sketch's ``process`` calls (the "kernel"
        throughput measure of Figure 3 excludes stream I/O).
    extra:
        Free-form diagnostics (phase counts, instantiation flags, ...).
    """

    solution: PointSet
    value: float
    coreset_size: int
    peak_memory_points: int
    points_processed: int
    passes: int
    kernel_seconds: float
    extra: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.solution)

    @property
    def kernel_throughput(self) -> float:
        """Points per second through the sketch kernel."""
        if self.kernel_seconds <= 0.0:
            return float("inf")
        return self.points_processed / self.kernel_seconds


class StreamingDiversityMaximizer:
    """One-pass streaming algorithm (Theorem 3).

    Parameters
    ----------
    k:
        Solution size.
    k_prime:
        Core-set parameter ``k'``; small multiples of ``k`` suffice in
        practice (Figures 1-2).
    objective:
        One of the six diversity objectives (name or instance).
    metric:
        Metric of the point space.
    batch_size:
        If set, ingest the stream in blocks of this many points through
        the sketch's vectorized ``process_batch`` path.  For any finite
        stream the result is identical to point-wise ingestion (same
        solution, memory, and core-set); only the kernel throughput
        changes.  (Non-finite points are rejected eagerly on the batched
        path; replayable array streams reject them at construction
        either way.)

    Example
    -------
    >>> from repro.streaming import ArrayStream
    >>> import numpy as np
    >>> stream = ArrayStream(np.random.default_rng(0).normal(size=(200, 2)))
    >>> algo = StreamingDiversityMaximizer(k=4, k_prime=16, objective="remote-edge")
    >>> result = algo.run(stream)
    >>> result.k
    4
    """

    def __init__(self, k: int, k_prime: int, objective: str | Objective,
                 metric: str | Metric = "euclidean",
                 batch_size: int | None = None):
        self.k = check_positive_int(k, "k")
        self.k_prime = check_positive_int(k_prime, "k_prime")
        self.objective = get_objective(objective)
        self.metric = get_metric(metric)
        self.batch_size = (None if batch_size is None
                           else check_positive_int(batch_size, "batch_size"))

    def make_sketch(self) -> SMM:
        """The sketch matching the objective (SMM or SMM-EXT)."""
        if self.objective.requires_injective_proxy:
            return SMMExt(self.k, self.k_prime, self.metric)
        return SMM(self.k, self.k_prime, self.metric)

    def run(self, stream: Stream) -> StreamingResult:
        """Consume *stream* in one pass and return the solution."""
        sketch = self.make_sketch()
        kernel_seconds = measure_throughput(
            sketch, stream, batch_size=self.batch_size).kernel_seconds
        coreset = sketch.finalize()
        indices, value = solve_sequential(coreset, self.k, self.objective)
        return StreamingResult(
            solution=coreset.subset(indices),
            value=value,
            coreset_size=len(coreset),
            peak_memory_points=sketch.peak_memory_points,
            points_processed=sketch.points_seen,
            passes=1,
            kernel_seconds=kernel_seconds,
            extra={"phases": sketch.phases, "final_threshold": sketch.threshold,
                   "batch_size": self.batch_size},
        )


class TwoPassStreamingDiversityMaximizer:
    """Two-pass, low-memory streaming algorithm (Theorem 9).

    Only meaningful for the injective-proxy objectives; memory drops from
    ``Theta((1/eps)^D k^2)`` to ``Theta((1/eps)^D k)`` points.
    """

    def __init__(self, k: int, k_prime: int, objective: str | Objective,
                 metric: str | Metric = "euclidean",
                 batch_size: int | None = None):
        self.k = check_positive_int(k, "k")
        self.k_prime = check_positive_int(k_prime, "k_prime")
        self.objective = get_objective(objective)
        if not self.objective.requires_injective_proxy:
            raise ValueError(
                f"{self.objective.name} does not need the two-pass algorithm; "
                "use StreamingDiversityMaximizer"
            )
        self.metric = get_metric(metric)
        self.batch_size = (None if batch_size is None
                           else check_positive_int(batch_size, "batch_size"))

    def _blocks(self, stream: Stream):
        """The pass-2 reading grain: batches if batching, else single rows."""
        if self.batch_size:
            yield from stream.batches(self.batch_size)
        else:
            for point in stream:
                yield np.atleast_2d(as_float_array(point))

    def run(self, stream: Stream) -> StreamingResult:
        """Two passes: SMM-GEN sketch, then delegate instantiation."""
        # Pass 1: generalized core-set of counts.
        sketch = SMMGen(self.k, self.k_prime, self.metric)
        kernel_seconds = measure_throughput(
            sketch, stream, batch_size=self.batch_size).kernel_seconds
        coreset = sketch.finalize_generalized()
        radius = sketch.radius_bound()
        subset = solve_generalized(coreset, self.k, self.objective)

        # Pass 2: materialize m_p distinct delegates within `radius` of
        # each chosen kernel point, streaming again.  Distances are computed
        # one block at a time, but delegates are served strictly in stream
        # order (the serve order determines which points materialize), so
        # the batched pass selects exactly the point-wise delegates.
        needs = subset.multiplicities.copy()
        kernel_points = subset.points
        delegates: list[np.ndarray] = []
        second_pass_points = 0
        exhausted = False
        start = time.perf_counter()
        for block in self._blocks(stream.replay()):
            block_dist: np.ndarray | None = None
            for offset in range(block.shape[0]):
                second_pass_points += 1
                if not needs.any():
                    exhausted = True
                    break
                if block_dist is None:
                    block_dist = self.metric.cross(block, kernel_points)
                dist = block_dist[offset]
                # Serve the nearest kernel point that still needs delegates.
                candidates = np.flatnonzero((needs > 0) & (dist <= radius))
                if candidates.size == 0:
                    continue
                chosen = int(candidates[int(dist[candidates].argmin())])
                needs[chosen] -= 1
                delegates.append(as_float_array(block[offset]))
            if exhausted:
                break
        kernel_seconds += time.perf_counter() - start

        # Radius shortfalls can only arise from the greedy serve order;
        # fall back to the kernel points themselves (distance zero).
        shortfall = int(needs.sum())
        if shortfall:
            for kernel_index in np.flatnonzero(needs > 0):
                for _ in range(int(needs[kernel_index])):
                    delegates.append(kernel_points[kernel_index])
        solution = PointSet(np.vstack(delegates), self.metric)
        value = self.objective.value(solution.pairwise())
        return StreamingResult(
            solution=solution,
            value=value,
            coreset_size=coreset.size,
            peak_memory_points=sketch.peak_memory_points,
            points_processed=sketch.points_seen + second_pass_points,
            passes=2,
            kernel_seconds=kernel_seconds,
            extra={
                "phases": sketch.phases,
                "instantiation_radius": radius,
                "instantiation_shortfall": shortfall,
                "batch_size": self.batch_size,
            },
        )
