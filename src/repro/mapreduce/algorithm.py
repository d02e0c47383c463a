"""MapReduce diversity maximization (Theorems 6, 7, 8 and 10).

Four drivers over the composable core-set constructions:

* :meth:`MRDiversityMaximizer.run` — the deterministic 2-round algorithm:
  round one builds a per-partition core-set (GMM or GMM-EXT), round two
  solves sequentially on the union (Theorem 6).
* ``randomized=True`` — the randomized 2-round variant (Theorem 7): random
  partitioning lets every reducer keep only
  ``Theta(max(log n, k/l))`` delegates per kernel point.
* :meth:`MRDiversityMaximizer.run_three_round` — generalized core-sets
  (GMM-GEN) with a third round that re-materializes delegates, saving a
  factor ``sqrt(k)`` of local memory (Theorem 10).
* :meth:`MRDiversityMaximizer.run_multi_round` — the recursive strategy of
  Theorem 8 for local memories too small for one aggregation level.

All reducer work is dispatched through
:class:`~repro.mapreduce.engine.MapReduceEngine`, so per-round memory and
timing are recorded uniformly, and reducer functions are module-level (hence
picklable) for the process-pool executor.

Zero-copy execution
-------------------
With ``executor="process"`` the driver publishes the dataset to shared
memory once per job (:class:`~repro.mapreduce.shm.SharedDataset`), ships
partitions as :class:`~repro.mapreduce.shm.SharedPartition` descriptors,
and receives round outputs as *index sets* into the shared block wherever
the construction is a point subset (GMM / GMM-EXT rounds, and the 3-round
algorithm's delegate-instantiation round).  Only the generalized-core-set
payloads — ``O(k')`` kernel points with multiplicities — ever cross the
pipe as point data.  The engine's worker pool is persistent: it is reused
across rounds and across ``run`` / ``run_three_round`` / ``run_multi_round``
calls on the same maximizer (use the maximizer as a context manager, or
call :meth:`MRDiversityMaximizer.close`, to shut it down deterministically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from repro.coresets.composable import (
    build_composable_coreset,
    composable_coreset_indices,
    union_coresets,
)
from repro.coresets.generalized import GeneralizedCoreset
from repro.diversity.generalized import instantiate_offline, solve_generalized
from repro.diversity.objectives import Objective, get_objective
from repro.diversity.sequential.registry import solve_sequential
from repro.exceptions import ValidationError
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.model import JobStats
from repro.mapreduce.partition import (
    materialize_selector,
    partition_selectors,
)
from repro.mapreduce.shm import SharedDataset, SharedPartition, resolve_payload
from repro.metricspace.distance import Metric, get_metric
from repro.metricspace.points import PointSet
from repro.utils.rng import RngLike
from repro.utils.validation import check_positive_int


@dataclass
class MRResult:
    """Outcome of a MapReduce diversity run."""

    solution: PointSet
    value: float
    coreset_size: int
    partitions: int
    rounds: int
    stats: JobStats
    extra: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        """Size of the returned solution."""
        return len(self.solution)


@dataclass
class MRCoresetResult:
    """Outcome of a coreset-only MapReduce build (round one, no solve).

    The build-once/serve-many query service
    (:mod:`repro.service`) consumes these: the aggregated core-set is the
    cached substrate every ``k <= k'`` query is answered from, so the
    expensive round-1 pass is amortized across arbitrarily many queries.
    """

    coreset: PointSet
    k: int
    k_prime: int
    partitions: int
    stats: JobStats
    extra: dict = field(default_factory=dict)


def randomized_delegate_cap(n: int, k: int, parts: int) -> int:
    """Per-cluster delegate budget for the randomized 2-round algorithm.

    Theorem 7's balls-into-bins argument: with random partitioning, no
    partition holds more than ``Theta(max(log n, k/l))`` points of the
    optimal solution w.h.p., so that many delegates per kernel point
    suffice.  We use ``2 * max(ceil(ln n), ceil(k/l))``, capped at ``k``.
    """
    if n < 2:
        return 1
    cap = 2 * max(math.ceil(math.log(n)), math.ceil(k / parts))
    return max(1, min(k, cap))


# -- module-level reducers (picklable for the process executor) ---------------

def _coreset_reducer(partition: PointSet | SharedPartition, k: int, k_prime: int,
                     objective_name: str, use_generalized: bool,
                     delegate_cap: int | None) -> Any:
    """Round-1 reducer: build this partition's composable core-set."""
    return build_composable_coreset(
        resolve_payload(partition), k, k_prime, objective_name,
        use_generalized=use_generalized, delegate_cap=delegate_cap,
    )


def _coreset_indices_reducer(partition: SharedPartition, k: int, k_prime: int,
                             objective_name: str,
                             delegate_cap: int | None) -> np.ndarray:
    """Round-1 reducer, zero-copy reply path: global core-set indices.

    The partition arrives as a shared-memory descriptor and the reply is an
    index set into the shared dataset — point rows never cross the pipe.
    """
    local = composable_coreset_indices(
        partition.materialize(), k, k_prime, objective_name,
        delegate_cap=delegate_cap,
    )
    return partition.global_indices(local)


def _instantiation_reducer(payload: tuple[PointSet | SharedPartition,
                                          GeneralizedCoreset | None]) -> np.ndarray:
    """Round-3 reducer: materialize delegates for local kernel points."""
    partition, subset = payload
    partition = resolve_payload(partition)
    if subset is None or subset.size == 0:
        return np.empty((0, partition.dim), dtype=partition.points.dtype)
    indices, _ = instantiate_offline(subset, partition, delta=float("inf"))
    return partition.points[indices]


def _instantiation_indices_reducer(
        payload: tuple[SharedPartition, GeneralizedCoreset | None]) -> np.ndarray:
    """Round-3 reducer, zero-copy reply path: global delegate indices."""
    ref, subset = payload
    if subset is None or subset.size == 0:
        return np.empty(0, dtype=np.intp)
    indices, _ = instantiate_offline(subset, ref.materialize(),
                                     delta=float("inf"))
    return ref.global_indices(indices)


def _payload_size(payload: Any) -> int:
    """Memory of a reducer payload, in points."""
    if payload is None:
        return 0
    if isinstance(payload, GeneralizedCoreset):
        return payload.size
    if isinstance(payload, tuple):
        return sum(_payload_size(item) for item in payload)
    try:
        return len(payload)
    except TypeError:
        return 1


class MRDiversityMaximizer:
    """Composable-core-set MapReduce algorithm (CPPU in the paper's Table 4).

    Parameters
    ----------
    k:
        Solution size.
    k_prime:
        Kernel size ``k'`` per partition; Figure 4 explores multiples of k.
    objective:
        Diversity objective (name or instance).
    parallelism:
        Number of partitions ``l`` (= reducers in round one).
    metric:
        Metric of the point space.
    partition_strategy:
        ``"random"`` (default), ``"chunk"`` or ``"adversarial"``.
    executor:
        ``"serial"`` or ``"process"`` (see :class:`MapReduceEngine`).  The
        process executor keeps a persistent worker pool and ships
        partitions zero-copy through shared memory; results are identical
        to serial execution for the same seed.

    Example
    -------
    >>> import numpy as np
    >>> points = PointSet(np.random.default_rng(0).normal(size=(500, 3)))
    >>> algo = MRDiversityMaximizer(k=8, k_prime=16, objective="remote-edge",
    ...                             parallelism=4)
    >>> result = algo.run(points)
    >>> result.k, result.rounds
    (8, 2)
    """

    def __init__(self, k: int, k_prime: int, objective: str | Objective,
                 parallelism: int = 2, metric: str | Metric = "euclidean",
                 partition_strategy: str = "random", executor: str = "serial",
                 seed: RngLike = None):
        self.k = check_positive_int(k, "k")
        self.k_prime = check_positive_int(k_prime, "k_prime")
        if self.k_prime < self.k:
            raise ValidationError(f"k' must be at least k, got k'={k_prime} < k={k}")
        self.objective = get_objective(objective)
        self.parallelism = check_positive_int(parallelism, "parallelism")
        self.metric = get_metric(metric)
        self.partition_strategy = partition_strategy
        self.executor = executor
        self.seed = seed
        # One engine per maximizer: its worker pool persists across rounds
        # and across run()/run_three_round()/run_multi_round() calls.
        self.engine = MapReduceEngine(parallelism=self.parallelism,
                                      executor=executor)

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        self.engine.close()

    def __enter__(self) -> "MRDiversityMaximizer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def _zero_copy(self) -> bool:
        return self.engine.executor == "process"

    # -- coreset-only build (round one) ------------------------------------------
    def _build_union(self, points: PointSet, selectors: list,
                     k: int, k_prime: int,
                     delegate_cap: int | None) -> PointSet:
        """Run the core-set round and aggregate the partition core-sets.

        Serial and process executors produce bit-identical unions for the
        same selectors: the zero-copy path gathers per-partition *global
        index sets* in partition order and takes those rows from the shared
        block, which is row-for-row the serial path's subset-and-concat.
        """
        if self._zero_copy:
            with SharedDataset(points) as shared:
                reducer = partial(
                    _coreset_indices_reducer, k=k, k_prime=k_prime,
                    objective_name=self.objective.name,
                    delegate_cap=delegate_cap,
                )
                outputs = self.engine.run_round(shared.partitions(selectors),
                                                reducer, size_fn=_payload_size)
                return shared.point_set(np.concatenate(outputs))
        reducer = partial(
            _coreset_reducer, k=k, k_prime=k_prime,
            objective_name=self.objective.name, use_generalized=False,
            delegate_cap=delegate_cap,
        )
        coresets = self.engine.run_round(
            [materialize_selector(points, s) for s in selectors],
            reducer, size_fn=_payload_size)
        return union_coresets(coresets)

    def build_coreset(self, points: PointSet, randomized: bool = False,
                      k: int | None = None,
                      k_prime: int | None = None) -> MRCoresetResult:
        """Round one alone: build and aggregate the composable core-set.

        This is the ingest half of the build-once/serve-many split: the
        returned core-set is a valid substrate for *every* sequential query
        with ``k <= k'`` (Definition 2), so callers — most prominently
        :class:`repro.service.DiversityService` — cache it and amortize
        this pass across many queries.  *k* / *k_prime* override the
        constructor parameters per call, letting one maximizer (and its
        persistent worker pool) build a whole ladder of resolutions.
        """
        k = self.k if k is None else check_positive_int(k, "k")
        k_prime = (self.k_prime if k_prime is None
                   else check_positive_int(k_prime, "k_prime"))
        if k_prime < k:
            raise ValidationError(f"k' must be at least k, got k'={k_prime} < k={k}")
        stats = self.engine.begin_job()
        # Theorem 7's balls-into-bins bound needs genuinely random keys.
        strategy = "random" if randomized else self.partition_strategy
        selectors = partition_selectors(points, self.parallelism,
                                        strategy=strategy, seed=self.seed)
        delegate_cap = None
        if randomized and self.objective.requires_injective_proxy:
            delegate_cap = randomized_delegate_cap(len(points), k,
                                                   len(selectors))
        union = self._build_union(points, selectors, k, k_prime, delegate_cap)
        return MRCoresetResult(
            coreset=union, k=k, k_prime=k_prime, partitions=len(selectors),
            stats=stats,
            extra={"randomized": randomized, "delegate_cap": delegate_cap,
                   "zero_copy": self._zero_copy},
        )

    # -- 2-round algorithms ------------------------------------------------------
    def run(self, points: PointSet, randomized: bool = False) -> MRResult:
        """Deterministic (or randomized, Theorem 7) 2-round algorithm."""
        build = self.build_coreset(points, randomized=randomized)
        union = build.coreset
        # Round 2: one reducer solves sequentially on the aggregated core-set.
        outputs = self.engine.run_round(
            [union], partial(_solve_reducer, k=self.k,
                             objective_name=self.objective.name),
            size_fn=_payload_size,
        )
        indices, value = outputs[0]
        solution = union.subset(indices)
        return MRResult(
            solution=solution, value=value, coreset_size=len(union),
            partitions=build.partitions, rounds=2, stats=build.stats,
            extra=build.extra,
        )

    # -- 3-round generalized algorithm (Theorem 10) -------------------------------
    def run_three_round(self, points: PointSet) -> MRResult:
        """Generalized core-sets + delegate instantiation round."""
        if not self.objective.requires_injective_proxy:
            raise ValidationError(
                f"{self.objective.name} does not need generalized core-sets; "
                "use run()"
            )
        stats = self.engine.begin_job()
        selectors = partition_selectors(points, self.parallelism,
                                        strategy=self.partition_strategy,
                                        seed=self.seed)
        shared: SharedDataset | None = None
        try:
            if self._zero_copy:
                shared = SharedDataset(points)
                partitions: list[Any] = shared.partitions(selectors)
            else:
                partitions = [materialize_selector(points, s)
                              for s in selectors]
            reducer = partial(
                _coreset_reducer, k=self.k, k_prime=self.k_prime,
                objective_name=self.objective.name, use_generalized=True,
                delegate_cap=None,
            )
            # Generalized core-sets are O(k') kernel points + counts; they
            # are the one payload kind that still travels by value.
            coresets: list[GeneralizedCoreset] = self.engine.run_round(
                partitions, reducer, size_fn=_payload_size,
            )
            union = GeneralizedCoreset.union_all(coresets)
            # Round 2: the adapted sequential algorithm picks a coherent
            # subset with expanded size exactly k (Fact 2).
            subset = self.engine.run_round(
                [union], partial(_generalized_solve_reducer, k=self.k,
                                 objective_name=self.objective.name),
                size_fn=_payload_size,
            )[0]
            # Round 3: each partition materializes delegates for its own
            # kernel points; kernel provenance is recovered from the
            # per-partition core-set sizes (partitions are disjoint).
            offsets = np.cumsum([0] + [c.size for c in coresets])
            kernel_owner = np.empty(union.size, dtype=np.intp)
            for i in range(len(coresets)):
                kernel_owner[offsets[i]:offsets[i + 1]] = i
            # Map the chosen subset's kernel points back to global kernel rows.
            subset_global = _match_kernel_rows(union, subset)
            payloads: list[tuple[Any, GeneralizedCoreset | None]] = []
            for i, partition in enumerate(partitions):
                local_rows = [
                    row for row in range(union.size)
                    if kernel_owner[row] == i and subset_global.get(row, 0) > 0
                ]
                if local_rows:
                    local = GeneralizedCoreset(
                        points=union.points[local_rows],
                        multiplicities=np.asarray(
                            [subset_global[row] for row in local_rows],
                            dtype=np.int64
                        ),
                        metric=union.metric,
                    )
                else:
                    local = None
                payloads.append((partition, local))
            if shared is not None:
                index_arrays = self.engine.run_round(
                    payloads, _instantiation_indices_reducer,
                    size_fn=_payload_size)
                delegates = shared.take(
                    np.concatenate([a for a in index_arrays if a.size]))
            else:
                delegate_arrays = self.engine.run_round(
                    payloads, _instantiation_reducer, size_fn=_payload_size)
                delegates = np.vstack([a for a in delegate_arrays if a.size])
        finally:
            if shared is not None:
                shared.close()
        solution = PointSet(delegates, self.metric)
        value = self.objective.value(solution.pairwise())
        return MRResult(
            solution=solution, value=value, coreset_size=union.size,
            partitions=len(selectors), rounds=3, stats=stats,
            extra={"expanded_size": union.expanded_size,
                   "zero_copy": self._zero_copy},
        )

    # -- multi-round recursive algorithm (Theorem 8) -------------------------------
    def run_multi_round(self, points: PointSet, memory_target: int,
                        max_levels: int = 8) -> MRResult:
        """Recursively shrink the input until it fits in ``memory_target`` points.

        Each level partitions the current set into pieces of at most
        *memory_target* points and replaces each piece by its core-set;
        Theorem 8 shows ``O((1 - gamma) / gamma)`` levels suffice with an
        ``alpha + eps`` guarantee.  With the process executor every level
        republishes the (shrinking) current set to shared memory and
        gathers core-set indices back.
        """
        check_positive_int(memory_target, "memory_target")
        floor_size = self.k_prime * (self.k if self.objective.requires_injective_proxy else 1)
        if memory_target < max(floor_size, self.k):
            raise ValidationError(
                f"memory_target={memory_target} is below one core-set "
                f"(~{floor_size} points); no recursion level can shrink the input"
            )
        stats = self.engine.begin_job()
        current = points
        levels = 0
        while len(current) > memory_target and levels < max_levels:
            parts = max(2, math.ceil(len(current) / memory_target))
            parts = min(parts, len(current))
            selectors = partition_selectors(current, parts,
                                            strategy=self.partition_strategy,
                                            seed=self.seed)
            shrunk = self._build_union(current, selectors, self.k,
                                       self.k_prime, delegate_cap=None)
            if len(shrunk) >= len(current):
                break  # cannot shrink further; fall through to final solve
            current = shrunk
            levels += 1
        outputs = self.engine.run_round(
            [current], partial(_solve_reducer, k=self.k,
                               objective_name=self.objective.name),
            size_fn=_payload_size,
        )
        indices, value = outputs[0]
        return MRResult(
            solution=current.subset(indices), value=value,
            coreset_size=len(current), partitions=self.parallelism,
            rounds=levels + 1, stats=stats,
            extra={"levels": levels, "memory_target": memory_target,
                   "zero_copy": self._zero_copy},
        )


def _solve_reducer(coreset: PointSet, k: int,
                   objective_name: str) -> tuple[np.ndarray, float]:
    """Round-2 reducer: sequential approximation on the aggregated core-set."""
    return solve_sequential(coreset, k, objective_name)


def _generalized_solve_reducer(union: GeneralizedCoreset, k: int,
                               objective_name: str) -> GeneralizedCoreset:
    """Round-2 reducer for the 3-round algorithm (Fact 2 adaptation)."""
    return solve_generalized(union, k, objective_name)


def _match_kernel_rows(union: GeneralizedCoreset,
                       subset: GeneralizedCoreset) -> dict[int, int]:
    """Map each subset kernel point to its row in the union kernel.

    ``solve_generalized`` preserves kernel order, so a forward scan with
    exact coordinate comparison recovers provenance.
    """
    mapping: dict[int, int] = {}
    cursor = 0
    for s in range(subset.size):
        target = subset.points[s]
        while cursor < union.size and not np.array_equal(union.points[cursor], target):
            cursor += 1
        if cursor == union.size:
            raise ValidationError("subset kernel point not found in union kernel")
        mapping[cursor] = int(subset.multiplicities[s])
        cursor += 1
    return mapping
