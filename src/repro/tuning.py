"""Data-driven parameter tuning: choose ``k'`` and kernel tiles.

The theory prescribes ``k' = (c/eps')^D k``, which is pessimistic and needs
the (usually unknown) doubling dimension ``D``.  Section 7 of the paper
shows small multiples of ``k`` suffice in practice.  This module bridges
the two: it estimates ``D`` from a sample, evaluates the theoretical
sizing, and clamps it to a practical band and an optional memory budget,
giving users a one-call starting point instead of a guess.

:func:`recommend_tile_rows` plays the same role for the blocked
distance-kernel layer: given a metric and a cross-product shape it derives
the row-tile size from a memory budget, as a recordable
:class:`KernelTuning`.  It is a pure function of its arguments: nothing is
read from or written to disk.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.coresets.composable import coreset_size_for
from repro.diversity.objectives import Objective, get_objective
from repro.metricspace.blocked import get_default_memory_budget, tile_rows_for
from repro.metricspace.distance import Metric, get_metric
from repro.metricspace.doubling import estimate_doubling_dimension
from repro.metricspace.points import PointSet
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_in_range, check_positive_int


@dataclass(frozen=True)
class TuningAdvice:
    """Recommended parameters for a core-set pipeline.

    Attributes
    ----------
    k_prime:
        Recommended core-set parameter.
    estimated_dimension:
        Doubling-dimension estimate from the sample.
    theoretical_k_prime:
        The untruncated Theorem 1-5 sizing (often astronomically large —
        reported for transparency).
    memory_points:
        Predicted sketch memory (in points) at the recommendation.
    """

    k_prime: int
    estimated_dimension: float
    theoretical_k_prime: int
    memory_points: int


def recommend_k_prime(
    points: PointSet,
    k: int,
    objective: str | Objective = "remote-edge",
    epsilon: float = 0.5,
    model: str = "streaming",
    sample_size: int = 2048,
    memory_budget_points: int | None = None,
    seed: RngLike = None,
) -> TuningAdvice:
    """Recommend ``k'`` for a dataset, objective and accuracy target.

    The recommendation is ``min(theoretical, practical band, memory cap)``
    where the practical band is ``[2k, 16k]`` scaled by the estimated
    dimension (higher-dimensional data benefits from more kernel points —
    the empirical lesson of Figures 1-2).

    Parameters
    ----------
    points:
        The dataset (or any representative sample of it).
    k:
        Target solution size.
    objective, epsilon, model:
        Passed to :func:`repro.coresets.composable.coreset_size_for`.
    sample_size:
        Points sampled for the doubling-dimension estimate.
    memory_budget_points:
        Optional hard cap on sketch memory in points; the recommendation
        respects it (EXT sketches cost ``~k`` points per kernel point).

    Example
    -------
    >>> import numpy as np
    >>> ps = PointSet(np.random.default_rng(0).random((500, 2)))
    >>> advice = recommend_k_prime(ps, k=4, seed=0)
    >>> advice.k_prime >= 8
    True
    """
    objective = get_objective(objective)
    check_positive_int(k, "k")
    check_in_range(epsilon, "epsilon", 0.0, 1.0)
    rng = ensure_rng(seed)
    n = len(points)
    if n > sample_size:
        sample = points.subset(rng.choice(n, size=sample_size, replace=False))
    else:
        sample = points
    dimension = estimate_doubling_dimension(sample, num_balls=24,
                                            quantile=0.9, seed=rng)

    theoretical = coreset_size_for(k, epsilon, dimension, objective,
                                   model=model)
    # Practical band: 2k at dimension ~1, widening toward 16k by dim ~6.
    band_multiplier = int(np.clip(2 + 2 * dimension, 2, 16))
    practical = band_multiplier * k
    recommendation = min(theoretical, practical)
    recommendation = max(recommendation, k)

    from repro.streaming.memory import theoretical_memory_points

    if memory_budget_points is not None:
        check_positive_int(memory_budget_points, "memory_budget_points")
        # Shrink k' until the sketch bound fits the budget (or k is hit).
        while (recommendation > k and
               theoretical_memory_points(objective, k, recommendation)
               > memory_budget_points):
            recommendation -= 1
    return TuningAdvice(
        k_prime=int(recommendation),
        estimated_dimension=float(dimension),
        theoretical_k_prime=int(min(theoretical, np.iinfo(np.int64).max)),
        memory_points=theoretical_memory_points(objective, k, recommendation),
    )


def recommend_matrix_budget_mb(rung_point_counts: list[int],
                               resident_rungs: int = 2,
                               dtype: str | np.dtype = "float64") -> int:
    """Matrix-cache budget (MiB) keeping the largest rungs resident.

    The service's rung distance matrices cost ``itemsize * n^2`` bytes
    for a rung of ``n`` core-set points stored in *dtype* (8 bytes for
    float64, 4 for the float32 fast path — a float32 index needs half
    the budget); this sizes ``REPRO_MATRIX_BUDGET_MB``
    (or ``DiversityService(matrix_budget_mb=...)``) so the
    *resident_rungs* largest matrices fit simultaneously while smaller
    rungs cycle through the remaining headroom.  ``repro index`` prints
    this next to the rung table so operators can start from a measured
    number instead of a guess.

    Parameters
    ----------
    rung_point_counts:
        Core-set sizes of the index's rungs (``len(rung.coreset)``).
    resident_rungs:
        How many of the largest matrices the budget must hold at once.
    dtype:
        Matrix element dtype (the index's storage dtype).

    Returns
    -------
    int
        A MiB budget, always at least 1.

    Raises
    ------
    ValidationError
        If *rung_point_counts* is empty or *resident_rungs* is not a
        positive int.
    """
    from repro.exceptions import ValidationError

    if not rung_point_counts:
        raise ValidationError("rung_point_counts must be non-empty")
    check_positive_int(resident_rungs, "resident_rungs")
    itemsize = np.dtype(dtype).itemsize
    sizes = sorted((check_positive_int(n, "rung_point_count")
                    for n in rung_point_counts), reverse=True)
    needed = sum(itemsize * n * n for n in sizes[:resident_rungs])
    return max(1, -(-needed // 2**20))


def recommend_registry_budget_mb(
        tenant_rung_point_counts: list[list[int]],
        hot_tenants: int = 2, resident_rungs: int = 2,
        dtype: str | np.dtype = "float64") -> int:
    """Global matrix budget (MiB) for a multi-tenant registry.

    In registry mode every tenant's rung matrices compete under ONE
    ``REPRO_MATRIX_BUDGET_MB``; the operational sweet spot sizes that
    budget for the expected *hot set*, not the whole fleet — cold
    tenants' matrices are evicted and recomputed on demand.  This sums
    :func:`recommend_matrix_budget_mb` over the *hot_tenants* most
    expensive tenants, so a skewed workload keeps its heavy hitters'
    matrices resident while the long tail cycles through the headroom
    (the shape ``benchmarks/bench_registry.py`` gates: 8 tenants served
    correctly under a budget sized for ~2).

    Parameters
    ----------
    tenant_rung_point_counts:
        One list of rung core-set sizes per tenant
        (``[len(rung.coreset) for rung in index.all_rungs()]``).
    hot_tenants:
        How many tenants the budget should hold fully resident at once.
    resident_rungs:
        Per-tenant resident-rung count (see
        :func:`recommend_matrix_budget_mb`).
    dtype:
        Matrix element dtype (the tenants' storage dtype).

    Returns
    -------
    int
        A MiB budget, always at least 1.

    Raises
    ------
    ValidationError
        If *tenant_rung_point_counts* is empty, any tenant's list is
        empty, or the counts are not positive ints.
    """
    from repro.exceptions import ValidationError

    if not tenant_rung_point_counts:
        raise ValidationError("tenant_rung_point_counts must be non-empty")
    check_positive_int(hot_tenants, "hot_tenants")
    per_tenant = sorted(
        (recommend_matrix_budget_mb(counts, resident_rungs, dtype)
         for counts in tenant_rung_point_counts), reverse=True)
    return max(1, sum(per_tenant[:hot_tenants]))


def recommend_tenant_weights(per_tenant_hits: dict[str, int],
                             max_weight: int = 4) -> dict[str, int]:
    """Seed manifest-v2 QoS weights from observed per-tenant traffic.

    Maps each tenant's lifetime hit count (the ``per_tenant`` ``hits``
    counters of :meth:`IndexRegistry.stats
    <repro.service.registry.IndexRegistry.stats>`) onto a small integer
    weight in ``[1, max_weight]``, proportional to its share of the
    busiest tenant's traffic.  The point is a *starting* manifest for
    ``repro serve --qos`` that keeps measured heavy hitters from
    queueing behind the long tail, while the clamp to ``max_weight``
    stops a zipf-hot tenant from monopolizing dispatch — isolation
    (per-tenant ``max_queue`` / ``rate_limit_qps``) is the operator's
    lever for misbehaving tenants, not an unbounded weight.

    Parameters
    ----------
    per_tenant_hits:
        Lifetime query hits keyed by ``dataset_id``.  Negative counts
        are invalid; an all-zero map yields weight 1 everywhere.
    max_weight:
        Largest weight assigned (to the busiest tenant).

    Returns
    -------
    dict[str, int]
        A weight per tenant, each in ``[1, max_weight]``.

    Raises
    ------
    ValidationError
        If *per_tenant_hits* is empty, any count is negative, or
        *max_weight* is not a positive int.
    """
    from repro.exceptions import ValidationError

    if not per_tenant_hits:
        raise ValidationError("per_tenant_hits must be non-empty")
    check_positive_int(max_weight, "max_weight")
    if any(hits < 0 for hits in per_tenant_hits.values()):
        raise ValidationError("hit counts must be non-negative")
    busiest = max(per_tenant_hits.values())
    if busiest == 0:
        return {tenant: 1 for tenant in per_tenant_hits}
    return {tenant: max(1, round(max_weight * hits / busiest))
            for tenant, hits in per_tenant_hits.items()}


@dataclass(frozen=True)
class KernelTuning:
    """Chosen tiling for one blocked-kernel workload.

    Attributes
    ----------
    metric:
        Registry name of the metric.
    tile_rows:
        Left-operand rows per tile.
    tiles:
        Number of tiles the ``(n_rows, n_cols)`` cross product splits into.
    memory_budget_bytes:
        The budget the tile size was derived from.
    accumulating:
        Whether the metric uses the per-dimension accumulation kernel
        (coordinate-wise metrics) or tiled calls to the naive kernel.
    dtype:
        Element dtype the tiling was sized for; float32 intermediates
        cost half the bytes per row, so the same budget yields 2x-wider
        tiles than float64.
    """

    metric: str
    tile_rows: int
    tiles: int
    memory_budget_bytes: int
    accumulating: bool
    dtype: str = "float64"

    def as_dict(self) -> dict:
        """JSON-ready form, for benchmarks to record beside wall times."""
        return asdict(self)


def recommend_tile_rows(metric: str | Metric, n_rows: int, n_cols: int,
                        dim: int,
                        memory_budget_bytes: int | None = None,
                        dtype: str | np.dtype = "float64") -> KernelTuning:
    """Tile sizing for a blocked ``cross``/``pairwise`` of the given shape.

    Thin, recordable wrapper over
    :func:`repro.metricspace.blocked.tile_rows_for`: benchmarks call this
    once per workload and embed the result in their result payloads so
    the tiling is versioned alongside wall times.
    """
    metric = get_metric(metric)
    check_positive_int(n_rows, "n_rows")
    check_positive_int(n_cols, "n_cols")
    check_positive_int(dim, "dim")
    dtype = np.dtype(dtype)
    budget = (get_default_memory_budget() if memory_budget_bytes is None
              else check_positive_int(memory_budget_bytes, "memory_budget_bytes"))
    tile = tile_rows_for(metric, n_rows, n_cols, dim, budget,
                         itemsize=dtype.itemsize)
    return KernelTuning(
        metric=metric.name,
        tile_rows=tile,
        tiles=int(np.ceil(n_rows / tile)),
        memory_budget_bytes=budget,
        accumulating=metric.accumulates_per_dimension,
        dtype=str(dtype),
    )
