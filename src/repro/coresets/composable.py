"""Composable core-set helpers: parameter sizing and partition-wise builds.

:func:`coreset_size_for` computes the theoretical ``k'`` of Theorems 1-5
from ``(k, eps, D)``; experiments usually override it with the small
practical values Section 7 shows are sufficient.  :func:`build_composable_coreset`
applies the correct construction (GMM / GMM-EXT / GMM-GEN) to one partition,
and :func:`union_coresets` aggregates partition core-sets, mirroring the
composability definition (Definition 2).
"""

from __future__ import annotations

import math
import sys
from typing import Literal

import numpy as np

from repro.coresets.generalized import GeneralizedCoreset
from repro.coresets.gmm import gmm
from repro.coresets.gmm_ext import gmm_ext
from repro.coresets.gmm_gen import gmm_gen
from repro.diversity.objectives import Objective, get_objective
from repro.metricspace.points import PointSet
from repro.utils.validation import check_in_range, check_positive_int

Model = Literal["mapreduce", "streaming"]


def epsilon_prime_for(epsilon: float, alpha: float = 1.0) -> float:
    """Convert a target approximation slack ``eps`` into ``eps'``.

    Theorems 1-6 set ``1/(1 - eps') = 1 + eps/alpha``, i.e.
    ``eps' = eps / (alpha + eps)``; with ``alpha = 1`` this is the core-set
    lemmas' own relation ``(1 - eps') = 1/(1 + eps)``.
    """
    check_in_range(epsilon, "epsilon", 0.0, 1.0)
    if alpha < 1.0:
        raise ValueError(f"alpha must be at least 1, got {alpha}")
    return epsilon / (alpha + epsilon)


def coreset_size_for(k: int, epsilon: float, doubling_dimension: float,
                     objective: str | Objective, model: Model = "mapreduce",
                     alpha: float | None = None) -> int:
    """Theoretical ``k' = (c/eps')^D * k`` for the requested construction.

    ``c`` is 8/16 (MapReduce) or 32/64 (streaming) depending on whether the
    objective needs injective proxies.  This grows quickly with ``D``; the
    paper's experiments (and ours) show small constant multiples of ``k``
    already give excellent ratios, so treat this as an upper bound.
    Sizes beyond :data:`sys.maxsize` are clamped to it, including those
    a float cannot hold (a tiny ``eps``, down to the subnormals), so the
    size never shrinks as ``eps`` does.
    """
    objective = get_objective(objective)
    check_positive_int(k, "k")
    if alpha is None:
        alpha = objective.sequential_alpha
    eps_prime = epsilon_prime_for(epsilon, alpha)
    if model == "mapreduce":
        constant = objective.mr_constant
    elif model == "streaming":
        constant = objective.streaming_constant
    else:
        raise ValueError(f"model must be 'mapreduce' or 'streaming', got {model!r}")
    try:
        size = math.ceil((constant / eps_prime) ** doubling_dimension * k)
    except (OverflowError, ZeroDivisionError):  # eps' underflows to 0
        return sys.maxsize
    return min(size, sys.maxsize)


def practical_coreset_size(k: int, epsilon: float, doubling_dimension: float,
                           objective: str | Objective,
                           model: Model = "mapreduce",
                           base_multiplier: int = 4) -> int:
    """The ``k'`` a query actually needs: theory clamped to practice.

    :func:`coreset_size_for` grows like ``(c/eps')^D`` and is astronomically
    pessimistic for moderate ``D``; Section 7 shows small multiples of ``k``
    suffice — ``4k`` already gives ratios near 1.  So the effective
    multiplier starts at *base_multiplier* for the default slack
    (``eps = 1``) and widens as ``base_multiplier / eps`` for tighter
    requests, capped by the dimension band (``2 + 2D``, clipped to
    ``[2, 16]`` — higher-dimensional data benefits from more kernel
    points, the empirical lesson of Figures 1-2, but a query can never
    demand more than the band justifies).  The query-routing layer of
    :mod:`repro.service` uses this to pick the cheapest ladder rung that
    still covers a ``(k, eps)`` request: generous slack routes to the
    first covering rung, tight slack climbs the ladder.
    """
    check_positive_int(base_multiplier, "base_multiplier")
    theoretical = coreset_size_for(k, epsilon, doubling_dimension, objective,
                                   model=model)
    band = np.clip(2 + 2 * doubling_dimension, 2, 16)
    multiplier = np.clip(base_multiplier / epsilon, base_multiplier,
                         max(band, base_multiplier))
    return max(k, min(theoretical, int(multiplier) * k))


def ladder_parameters(k_max: int, multiplier: int = 4, growth: int = 2,
                      k_min: int = 4) -> list[tuple[int, int]]:
    """Ladder of ``(k_cap, k_prime)`` rungs covering queries with ``k <= k_max``.

    Composability (Definition 2) makes one core-set built for ``k'`` a valid
    substrate for *every* query with ``k <= k'``, so a build-once/serve-many
    index only needs a small geometric ladder of resolutions: rung caps grow
    by *growth* from *k_min* up to (and including) *k_max*, and each rung's
    kernel size is ``multiplier * k_cap`` (Figure 4 explores exactly these
    multiples).  Returns rungs sorted by increasing ``k_cap`` — i.e. by
    increasing query cost, since the round-2 solver is quadratic in ``k'``.

    >>> ladder_parameters(32)
    [(4, 16), (8, 32), (16, 64), (32, 128)]
    >>> ladder_parameters(24, multiplier=2, k_min=8)
    [(8, 16), (16, 32), (24, 48)]
    """
    check_positive_int(k_max, "k_max")
    check_positive_int(multiplier, "multiplier")
    check_positive_int(k_min, "k_min")
    if growth < 2:
        raise ValueError(f"growth must be at least 2, got {growth}")
    caps: list[int] = []
    cap = min(k_min, k_max)
    while cap < k_max:
        caps.append(cap)
        cap *= growth
    caps.append(k_max)
    return [(cap, multiplier * cap) for cap in caps]


def composable_coreset_indices(
    partition: PointSet, k: int, k_prime: int,
    objective: str | Objective,
    delegate_cap: int | None = None,
) -> np.ndarray:
    """Local row indices of the partition's composable core-set.

    Index-level form of :func:`build_composable_coreset` for the
    point-subset constructions (GMM / GMM-EXT).  The zero-copy MapReduce
    path uses this so reducers can reply with index sets into the shared
    dataset instead of shipping point rows back through IPC.  Generalized
    (multiplicity) core-sets are not index-representable; ask
    :func:`build_composable_coreset` for those.
    """
    objective = get_objective(objective)
    n = len(partition)
    if not objective.requires_injective_proxy:
        # The plain-GMM core-set must itself contain k points.
        if k_prime < k:
            raise ValueError(f"k' must be at least k, got k'={k_prime} < k={k}")
        if n <= k_prime:
            return np.arange(n, dtype=np.intp)
        return np.asarray(gmm(partition, k_prime).indices, dtype=np.intp)
    cap = k if delegate_cap is None else max(int(delegate_cap), 1)
    if n <= k_prime:
        return np.arange(n, dtype=np.intp)
    return np.asarray(gmm_ext(partition, cap, k_prime).indices, dtype=np.intp)


def build_composable_coreset(
    partition: PointSet, k: int, k_prime: int,
    objective: str | Objective,
    use_generalized: bool = False,
    delegate_cap: int | None = None,
) -> PointSet | GeneralizedCoreset:
    """Build the partition core-set prescribed for *objective*.

    * non-injective objectives (remote-edge, remote-cycle): plain ``GMM``;
    * injective objectives: ``GMM-EXT`` (delegates), or ``GMM-GEN``
      (multiplicities) when *use_generalized* is set.

    *delegate_cap* overrides the per-cluster delegate budget (defaults to
    ``k``); the randomized MapReduce algorithm of Theorem 7 passes the
    smaller ``Theta(max(log n, k/l))`` budget here.

    When the partition has at most ``k'`` points it is its own (perfect)
    core-set.
    """
    objective = get_objective(objective)
    n = len(partition)
    if objective.requires_injective_proxy and use_generalized:
        cap = k if delegate_cap is None else max(int(delegate_cap), 1)
        if n <= k_prime:
            return GeneralizedCoreset(
                points=partition.points,
                multiplicities=np.ones(n, dtype=np.int64),
                metric=partition.metric,
            )
        return gmm_gen(partition, cap, k_prime)
    indices = composable_coreset_indices(partition, k, k_prime, objective,
                                         delegate_cap=delegate_cap)
    if len(indices) == n:
        return partition  # the partition is its own (perfect) core-set
    return partition.subset(indices)


def merge_coresets(parts: list[PointSet], k: int, k_prime: int,
                   objective: str | Objective,
                   max_points: int | None = None) -> PointSet:
    """Union point-subset core-sets, re-reducing when the union is oversized.

    The incremental-maintenance form of composability (Definition 2): the
    union of valid ``(k, k')`` core-sets is itself a valid core-set of the
    concatenated data, so an index rung can absorb a core-set of freshly
    ingested points by plain union.  To keep rungs bounded across many
    such merges, a union larger than *max_points* is re-reduced with the
    family's own construction (:func:`build_composable_coreset`) — a
    core-set of a core-set, which composes with a summed slack.  With
    ``max_points=None`` the union is returned untouched.

    Used by :meth:`repro.service.index.CoresetIndex.extend`; only the
    point-subset families (GMM / GMM-EXT) are supported here, since
    generalized (multiplicity) core-sets cannot be re-reduced by a point
    construction.
    """
    for part in parts:
        if not isinstance(part, PointSet):
            raise ValueError(
                "merge_coresets supports point-subset core-sets only; "
                f"got {type(part).__name__}")
    union = union_coresets(parts)
    if max_points is not None and len(union) > max(int(max_points), k_prime):
        reduced = build_composable_coreset(union, k, k_prime, objective)
        assert isinstance(reduced, PointSet)
        return reduced
    return union  # type: ignore[return-value]


def union_coresets(parts: list[PointSet | GeneralizedCoreset]) -> PointSet | GeneralizedCoreset:
    """Union per-partition core-sets into the aggregate core-set.

    All parts must be of the same kind (plain point sets or generalized
    core-sets).
    """
    if not parts:
        raise ValueError("cannot union an empty list of core-sets")
    if isinstance(parts[0], GeneralizedCoreset):
        if not all(isinstance(part, GeneralizedCoreset) for part in parts):
            raise ValueError("cannot mix plain and generalized core-sets")
        return GeneralizedCoreset.union_all(parts)  # type: ignore[arg-type]
    union = parts[0]
    for part in parts[1:]:
        union = union.concat(part)  # type: ignore[union-attr]
    return union
