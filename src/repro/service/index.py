"""The sharded core-set index: a ladder of resolutions per objective family.

Composability (Definition 2) is the asset this module productizes: a
GMM / GMM-EXT core-set built for ``k'`` is a valid substrate for *every*
query with ``k <= k'``, so one expensive MapReduce build can serve
arbitrarily many ``(objective, k, eps)`` queries.  Two constructions cover
all six objectives:

* ``"gmm"`` — plain GMM kernels, valid for the non-injective objectives
  (remote-edge, remote-cycle);
* ``"gmm-ext"`` — GMM-EXT kernels with delegates, valid for the injective
  objectives (remote-clique/-star/-bipartition/-tree).

Per family the index holds a small geometric ladder of rungs
(:func:`repro.coresets.composable.ladder_parameters`); query routing picks
the *cheapest* rung whose capacity covers the request
(:meth:`CoresetIndex.route`), trading a slightly larger build for much
cheaper queries at small ``k``.  Builds run through
:meth:`~repro.mapreduce.algorithm.MRDiversityMaximizer.build_coreset`, so
the ``executor="process"`` path ships partitions zero-copy over shared
memory and reuses one persistent worker pool across the whole ladder —
and produces rungs bit-identical to a serial build for the same seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.coresets.composable import (
    ladder_parameters,
    merge_coresets,
    practical_coreset_size,
)
from repro.diversity.objectives import Objective, get_objective
from repro.exceptions import ValidationError
from repro.mapreduce.algorithm import MRDiversityMaximizer
from repro.metricspace.doubling import estimate_doubling_dimension
from repro.metricspace.points import PointSet
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int

#: Construction families and the representative objective whose
#: ``requires_injective_proxy`` flag selects the right round-1 reducer.
FAMILY_GMM = "gmm"
FAMILY_GMM_EXT = "gmm-ext"
FAMILIES = (FAMILY_GMM, FAMILY_GMM_EXT)
_REPRESENTATIVE = {FAMILY_GMM: "remote-edge", FAMILY_GMM_EXT: "remote-clique"}


def family_of(objective: str | Objective) -> str:
    """The construction family whose core-sets serve *objective*."""
    objective = get_objective(objective)
    return FAMILY_GMM_EXT if objective.requires_injective_proxy else FAMILY_GMM


@dataclass
class LadderRung:
    """One resolution of the index: a cached core-set serving ``k <= k_cap``."""

    family: str
    k_cap: int
    k_prime: int
    coreset: PointSet
    build_seconds: float = 0.0

    @property
    def key(self) -> tuple[str, int, int]:
        """Hashable identity used by result/matrix caches."""
        return (self.family, self.k_cap, self.k_prime)

    def describe(self) -> dict:
        """JSON-ready rung summary (parameters and core-set size)."""
        return {"family": self.family, "k_cap": self.k_cap,
                "k_prime": self.k_prime, "coreset_points": len(self.coreset),
                "build_seconds": self.build_seconds}


@dataclass
class CoresetIndex:
    """Build-once index: per-family ladders of core-set rungs.

    Instances come from :func:`build_coreset_index` (fresh build) or
    :func:`repro.service.persist.load_index` (warm start); queries go
    through :meth:`route`, which never touches the source dataset.
    """

    metric_name: str
    dimension_estimate: float
    rungs: dict[str, list[LadderRung]]
    ladder: dict
    source: dict
    seed: int | None = None
    build_calls: int = 0
    build_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def families(self) -> list[str]:
        """Construction families the index holds ladders for, sorted."""
        return sorted(self.rungs)

    @property
    def dtype(self) -> str:
        """Storage dtype of the rung core-sets (``"float64"`` default).

        Derived from the arrays themselves rather than recorded metadata,
        so it can never drift from what the kernels actually compute on.
        """
        for family in self.families:
            for rung in self.rungs[family]:
                return str(rung.coreset.points.dtype)
        return "float64"

    def astype(self, dtype: str | np.dtype) -> "CoresetIndex":
        """A copy of this index with every rung core-set cast to *dtype*.

        Metadata (ladder, dimension estimate, build history) is shared or
        copied verbatim — casting never changes routing, only the storage
        and kernel dtype.  Returns ``self`` when already in *dtype*.
        """
        dtype = np.dtype(dtype)
        if str(dtype) == self.dtype:
            return self
        rungs = {
            family: [LadderRung(family=rung.family, k_cap=rung.k_cap,
                                k_prime=rung.k_prime,
                                coreset=rung.coreset.astype(dtype),
                                build_seconds=rung.build_seconds)
                     for rung in self.rungs[family]]
            for family in self.families
        }
        return CoresetIndex(
            metric_name=self.metric_name,
            dimension_estimate=self.dimension_estimate,
            rungs=rungs,
            ladder=dict(self.ladder),
            source=dict(self.source),
            seed=self.seed,
            build_calls=self.build_calls,
            build_seconds=self.build_seconds,
            extra=dict(self.extra),
        )

    def all_rungs(self) -> list[LadderRung]:
        """Every rung across families, in family-then-cost order."""
        return [rung for family in self.families for rung in self.rungs[family]]

    def covering_rungs(self, objective: str | Objective,
                       k: int) -> list[LadderRung]:
        """Every rung able to serve ``(objective, k)``, cheapest first.

        A rung covers the query when its capacity admits ``k``: its
        ``k_cap >= k`` and its core-set holds at least ``k`` points.
        :meth:`route` narrows this list by the epsilon sizing; the
        epsilon-aware result reuse of the query service scans it for
        cached answers of larger (tighter-eps) rungs.

        Raises
        ------
        ValidationError
            If the index holds no ladder for the objective's family, or
            no rung admits ``k``.
        """
        objective = get_objective(objective)
        check_positive_int(k, "k")
        family = family_of(objective)
        ladder = self.rungs.get(family, [])
        if not ladder:
            raise ValidationError(
                f"index has no {family!r} ladder (families: {self.families}); "
                f"rebuild with families including {family!r}")
        candidates = [rung for rung in ladder
                      if rung.k_cap >= k and len(rung.coreset) >= k]
        if not candidates:
            raise ValidationError(
                f"no ladder rung serves k={k} for {objective.name} "
                f"(largest k_cap is {ladder[-1].k_cap}); "
                "rebuild the index with a larger k_max")
        return candidates

    def route(self, objective: str | Objective, k: int,
              epsilon: float = 1.0) -> LadderRung:
        """The cheapest rung that covers an ``(objective, k, eps)`` query.

        A rung covers the query when its capacity admits ``k``
        (``k_cap >= k`` and the core-set holds at least ``k`` points) and
        its kernel size meets the practical sizing
        ``k' >= practical_coreset_size(k, eps, D)`` — which starts at the
        ladder's own multiplier for the default slack (so ``eps = 1``
        routes to the first covering rung, the Section 7 sweet spot) and
        climbs the ladder as ``eps`` tightens.  Rungs are scanned in
        ascending cost; if none meets the sizing (an aggressive ``eps``),
        the largest admissible rung is the best the index can do and is
        returned rather than failing the query.
        """
        candidates = self.covering_rungs(objective, k)
        return self.select_rung(candidates, objective, k, epsilon)

    def select_rung(self, candidates: list[LadderRung],
                    objective: str | Objective, k: int,
                    epsilon: float = 1.0) -> LadderRung:
        """Pick the serving rung among precomputed covering *candidates*.

        The epsilon-sizing half of :meth:`route`, split out so callers
        that already hold the covering list (the query service resolves
        routing and epsilon-aware reuse from one traversal) do not scan
        the ladder twice per query.  *candidates* must come from
        :meth:`covering_rungs` for the same ``(objective, k)``.
        """
        objective = get_objective(objective)
        required = practical_coreset_size(
            k, epsilon, self.dimension_estimate, objective,
            base_multiplier=int(self.ladder.get("multiplier", 4)))
        for rung in candidates:
            if rung.k_prime >= required:
                return rung
        return candidates[-1]

    def extend(self, new_points: PointSet, *,
               batch_size: int | None = None,
               compact_above: int | None = None) -> "CoresetIndex":
        """A new index covering the grown dataset — no MapReduce rebuild.

        Composability (Definition 2) licenses incremental maintenance:
        per rung, *new_points* stream through the batched SMM / SMM-EXT
        sketch (:func:`repro.streaming.algorithm.stream_coreset`) with the
        rung's own ``(k_cap, k')`` parameters, and the resulting core-set
        of the new data is merged into the rung by union — a valid
        core-set of the concatenated dataset.  Rungs whose merged size
        exceeds *compact_above* (default: the cold-build union bound,
        ``parallelism`` per-partition core-sets) are re-reduced with the
        family's construction so repeated extends stay bounded.

        Routing-dimension maintenance: the doubling-dimension estimate
        that drives :func:`~repro.coresets.composable.practical_coreset_size`
        is computed once at build time, which goes stale when refreshes
        shift the data distribution.  When the refresh history shows the
        dataset has grown to at least **2x** its size at the last
        estimate, the dimension is re-estimated from a sample of the
        grown dataset — the fresh points concatenated with the largest
        rung core-sets, which are by construction a geometric summary of
        everything ingested before — and recorded in
        ``extra["dimension_reestimates"]``.

        Parameters
        ----------
        new_points:
            Fresh data in the same metric space as the indexed dataset.
        batch_size:
            Sketch ingestion block size; ``None`` uses
            :data:`repro.streaming.algorithm.DEFAULT_BATCH_SIZE`.
        compact_above:
            Per-rung point-count threshold above which the merged
            core-set is re-reduced; ``None`` derives the cold-build bound
            per rung.

        Returns
        -------
        CoresetIndex
            A *new* index; ``self`` is left untouched, so a service can
            swap atomically between the two under concurrent queries.

        Raises
        ------
        ValidationError
            If *new_points* is empty or disagrees with the index on
            metric or dimensionality.
        """
        from repro.streaming.algorithm import stream_coreset

        if not isinstance(new_points, PointSet) or len(new_points) == 0:
            raise ValidationError(
                "extend needs a non-empty PointSet of new data")
        if new_points.metric.name != self.metric_name:
            raise ValidationError(
                f"metric mismatch: index uses {self.metric_name!r}, "
                f"new points use {new_points.metric.name!r}")
        expected_dim = self.source.get("dim")
        if expected_dim is not None and new_points.dim != expected_dim:
            raise ValidationError(
                f"dimension mismatch: index holds {expected_dim}-d points, "
                f"new points are {new_points.dim}-d")
        # Ingest in the index's own storage dtype so merged rungs never
        # silently upcast (a float32 plane must stay float32 across epochs).
        new_points = new_points.astype(self.dtype)
        parallelism = max(int(self.ladder.get("parallelism", 4)), 1)
        started = time.perf_counter()
        rungs: dict[str, list[LadderRung]] = {}
        sketch_builds = 0
        for family in self.families:
            objective = _REPRESENTATIVE[family]
            new_rungs = []
            for rung in self.rungs[family]:
                t0 = time.perf_counter()
                fresh = stream_coreset(new_points, k=rung.k_cap,
                                       k_prime=rung.k_prime,
                                       objective=objective,
                                       batch_size=batch_size)
                sketch_builds += 1
                # Re-reduce to the cold build's size class: a cold rung is
                # the union of `parallelism` per-partition core-sets of k'
                # kernels each, so compaction targets p*k' kernel points
                # (GMM-EXT kernels additionally carry up to k_cap
                # delegates each, for both the trigger and the target).
                compact_k_prime = parallelism * rung.k_prime
                if compact_above is None:
                    per_partition = rung.k_prime
                    if family == FAMILY_GMM_EXT:
                        per_partition *= 1 + rung.k_cap
                    threshold = parallelism * per_partition
                else:
                    threshold = compact_above
                merged = merge_coresets([rung.coreset, fresh], rung.k_cap,
                                        compact_k_prime, objective,
                                        max_points=threshold)
                new_rungs.append(LadderRung(
                    family=family, k_cap=rung.k_cap, k_prime=rung.k_prime,
                    coreset=merged,
                    build_seconds=time.perf_counter() - t0))
            rungs[family] = new_rungs
        elapsed = time.perf_counter() - started
        extra = dict(self.extra)
        history = list(extra.get("refreshes", []))
        history.append({"points_added": len(new_points),
                        "sketch_builds": sketch_builds,
                        "seconds": elapsed})
        extra["refreshes"] = history
        n_after = int(self.source.get("n", 0)) + len(new_points)
        dimension = self._maybe_reestimate_dimension(new_points, rungs,
                                                     n_after, extra)
        return CoresetIndex(
            metric_name=self.metric_name,
            dimension_estimate=dimension,
            rungs=rungs,
            ladder=dict(self.ladder),
            source={**self.source,
                    "n": int(self.source.get("n", 0)) + len(new_points)},
            seed=self.seed,
            build_calls=self.build_calls,
            build_seconds=self.build_seconds + elapsed,
            extra=extra,
        )

    def _maybe_reestimate_dimension(self, new_points: PointSet,
                                    rungs: dict[str, list[LadderRung]],
                                    n_after: int, extra: dict) -> float:
        """Re-estimate the routing dimension when the data has grown >= 2x.

        Called by :meth:`extend` with the already-extended rungs and the
        mutable ``extra`` block of the index under construction.  The
        growth baseline is the dataset size at the last estimate (build
        time, or the last re-estimate recorded in
        ``extra["dim_estimate_n"]``); below the 2x threshold the current
        estimate is kept unchanged.  The sample combines *new_points*
        with the largest rung core-set of each family — the core-sets
        summarize every previously ingested point, so the sample reflects
        the concatenated dataset without the index having to retain it.
        """
        history = extra.get("refreshes", [])
        previously_added = sum(int(entry.get("points_added", 0))
                               for entry in history[:-1])
        build_n = max(int(self.source.get("n", 0)) - previously_added, 1)
        n_at_estimate = int(extra.get("dim_estimate_n", build_n))
        if n_after < 2 * n_at_estimate:
            return self.dimension_estimate
        summaries = [rungs[family][-1].coreset.points
                     for family in sorted(rungs) if rungs[family]]
        pool = np.vstack([new_points.points, *summaries])
        rng = ensure_rng(self.seed)
        sample_size = min(len(pool), 2048)
        sample = PointSet(pool[rng.choice(len(pool), size=sample_size,
                                          replace=False)],
                          metric=new_points.metric)
        dimension = float(estimate_doubling_dimension(sample, num_balls=24,
                                                      quantile=0.9, seed=rng))
        reestimates = list(extra.get("dimension_reestimates", []))
        reestimates.append({"n": n_after,
                            "previous": self.dimension_estimate,
                            "estimate": dimension})
        extra["dimension_reestimates"] = reestimates
        extra["dim_estimate_n"] = n_after
        return dimension

    def describe(self) -> dict:
        """JSON-ready summary (the metadata block persistence writes)."""
        return {
            "metric": self.metric_name,
            "dtype": self.dtype,
            "dimension_estimate": self.dimension_estimate,
            "seed": self.seed,
            "ladder": self.ladder,
            "source": self.source,
            "build_calls": self.build_calls,
            "build_seconds": self.build_seconds,
            "extra": self.extra,
            "rungs": {family: [rung.describe() for rung in self.rungs[family]]
                      for family in self.families},
        }


def build_coreset_index(
    points: PointSet,
    k_max: int,
    families: tuple[str, ...] = FAMILIES,
    multiplier: int = 4,
    growth: int = 2,
    k_min: int = 4,
    parallelism: int = 4,
    executor: str = "serial",
    partition_strategy: str = "random",
    seed: int | None = 0,
    sample_size: int = 2048,
    dtype: str | np.dtype | None = None,
) -> CoresetIndex:
    """Ingest *points* once: build every ladder rung for every family.

    One :class:`~repro.mapreduce.algorithm.MRDiversityMaximizer` per family
    builds its whole ladder through
    :meth:`~repro.mapreduce.algorithm.MRDiversityMaximizer.build_coreset`,
    so the process executor's worker pool is created once per family and
    reused across rungs.  The doubling dimension estimated here is stored
    on the index and drives query routing forever after — the source
    dataset is not needed again.

    With ``dtype="float32"`` the source is cast up front and the whole
    build — sketches, kernels, rung core-sets — runs in float32 (the
    fast path: half the bandwidth and residency of float64).
    """
    for family in families:
        if family not in FAMILIES:
            raise ValidationError(
                f"unknown family {family!r}; known: {FAMILIES}")
    if dtype is not None:
        points = points.astype(dtype)
    ladder_params = ladder_parameters(k_max, multiplier=multiplier,
                                      growth=growth, k_min=k_min)
    rng = ensure_rng(seed)
    n = len(points)
    sample = (points.subset(rng.choice(n, size=sample_size, replace=False))
              if n > sample_size else points)
    dimension = estimate_doubling_dimension(sample, num_balls=24,
                                            quantile=0.9, seed=rng)
    started = time.perf_counter()
    rungs: dict[str, list[LadderRung]] = {}
    build_calls = 0
    for family in families:
        first_cap, first_prime = ladder_params[0]
        with MRDiversityMaximizer(
                k=first_cap, k_prime=first_prime,
                objective=_REPRESENTATIVE[family],
                parallelism=parallelism, metric=points.metric,
                partition_strategy=partition_strategy, executor=executor,
                seed=seed) as builder:
            family_rungs = []
            for k_cap, k_prime in ladder_params:
                t0 = time.perf_counter()
                build = builder.build_coreset(points, k=k_cap, k_prime=k_prime)
                build_calls += 1
                family_rungs.append(LadderRung(
                    family=family, k_cap=k_cap, k_prime=k_prime,
                    coreset=build.coreset,
                    build_seconds=time.perf_counter() - t0))
        rungs[family] = family_rungs
    return CoresetIndex(
        metric_name=points.metric.name,
        dimension_estimate=float(dimension),
        rungs=rungs,
        ladder={"k_max": k_max, "k_min": k_min, "multiplier": multiplier,
                "growth": growth, "parallelism": parallelism,
                "partition_strategy": partition_strategy,
                "executor": executor},
        source={"n": n, "dim": points.dim},
        seed=seed,
        build_calls=build_calls,
        build_seconds=time.perf_counter() - started,
    )
