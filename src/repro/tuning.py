"""Data-driven parameter tuning: choose ``k'`` and kernel tiles.

The theory prescribes ``k' = (c/eps')^D k``, which is pessimistic and needs
the (usually unknown) doubling dimension ``D``.  Section 7 of the paper
shows small multiples of ``k`` suffice in practice.  This module bridges
the two: it estimates ``D`` from a sample, evaluates the theoretical
sizing, and clamps it to a practical band and an optional memory budget,
giving users a one-call starting point instead of a guess.

:func:`recommend_tile_rows` plays the same role for the blocked
distance-kernel layer: given a metric and a cross-product shape it derives
the row-tile size from a memory budget, and the benchmark harness records
the chosen tiling in the ``BENCH_*.json`` trajectory so kernel-layer
regressions are visible per PR.  Derived tilings additionally persist to
a per-machine profile (``.repro_profile.json``, ``REPRO_PROFILE_PATH`` to
relocate) that later runs reuse, and :func:`recommend_batch_size` feeds
the recorded ``BENCH_fig3_*.json`` trajectory back into the SMM family's
ingestion batch size (the CLI's ``--batch-size`` default).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

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
        """JSON-ready form, recorded into ``BENCH_*.json`` trajectories."""
        return asdict(self)


# -- per-machine tile profile --------------------------------------------------
#
# The ``kernel_tuning`` blocks benchmarks record into ``BENCH_*.json`` are a
# per-PR trajectory; the *profile* is the per-machine distillation: every
# tiling :func:`recommend_tile_rows` derives is keyed by
# ``metric:shape:budget`` and persisted to ``.repro_profile.json`` (path
# overridable via ``REPRO_PROFILE_PATH``), so later runs on the same machine
# reuse the recorded tiling instead of re-deriving it.

PROFILE_ENV_VAR = "REPRO_PROFILE_PATH"
DEFAULT_PROFILE_FILENAME = ".repro_profile.json"
# Version 2: entries gained a ``dtype`` field and keys a ``:dtype=``
# component — float64-derived tilings must not be replayed for float32
# workloads (they would leave half the budgeted tile width unused).
# Version 3: the profile gained a top-level ``planner_calibration`` block,
# which no code reads any more.  v2 and v3 share the ``kernel_tuning``
# layout, so both load; saves keep the block like any other unknown one.
_PROFILE_FORMAT_VERSION = 3
_COMPATIBLE_PROFILE_VERSIONS = (2, 3)


def tile_profile_path() -> Path:
    """Resolved profile location (env override, else CWD dotfile)."""
    return Path(os.environ.get(PROFILE_ENV_VAR) or DEFAULT_PROFILE_FILENAME)


def _profile_key(metric_name: str, n_rows: int, n_cols: int, dim: int,
                 budget_bytes: int, dtype: str = "float64") -> str:
    return (f"{metric_name}:{n_rows}x{n_cols}x{dim}"
            f":budget={budget_bytes}:dtype={dtype}")


def _read_profile_payload(path: Path) -> dict:
    """The raw profile payload, or ``{}`` for any unusable file.

    Reads are best-effort by design: a missing, truncated or foreign file
    must never break a caller, so malformed profiles degrade to "no
    profile" rather than raising.  Files of an incompatible format
    version (pre-dtype v1, or anything newer than this build writes) are
    treated as absent — old entries must not pin outdated derivations.
    """
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    if not isinstance(payload, dict):
        return {}
    if payload.get("format_version") not in _COMPATIBLE_PROFILE_VERSIONS:
        return {}
    return payload


def load_tile_profile(path: str | Path | None = None) -> dict[str, dict]:
    """The profile's ``kernel_tuning`` entries (empty on any read problem)."""
    path = tile_profile_path() if path is None else Path(path)
    entries = _read_profile_payload(path).get("kernel_tuning")
    return entries if isinstance(entries, dict) else {}


def save_tile_profile(entries: dict[str, dict],
                      path: str | Path | None = None) -> Path:
    """Write the profile atomically (temp file + ``os.replace``).

    Concurrent writers (a benchmark run and a CLI run sharing the default
    profile) may interleave, but a reader can never observe a torn file —
    the failure mode that would silently reset the accumulated profile.
    Other top-level blocks of a compatible file are preserved; the write
    upgrades the file to the current format.
    """
    path = tile_profile_path() if path is None else Path(path)
    payload = _read_profile_payload(path)
    payload.update({"format_version": _PROFILE_FORMAT_VERSION,
                    "kernel_tuning": entries})
    tmp = path.parent / f"{path.name}.tmp{os.getpid()}"
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def record_kernel_tuning(tuning: KernelTuning, n_rows: int, n_cols: int,
                         dim: int, path: str | Path | None = None) -> None:
    """Merge one derived tiling into the per-machine profile (best effort).

    IO failures (read-only checkout, sandboxed CI) are swallowed: the
    profile is an accelerator, never a requirement.
    """
    key = _profile_key(tuning.metric, n_rows, n_cols, dim,
                       tuning.memory_budget_bytes, tuning.dtype)
    try:
        entries = load_tile_profile(path)
        entries[key] = tuning.as_dict()
        save_tile_profile(entries, path)
    except OSError:
        pass


def recommend_tile_rows(metric: str | Metric, n_rows: int, n_cols: int,
                        dim: int,
                        memory_budget_bytes: int | None = None,
                        use_profile: bool = True,
                        dtype: str | np.dtype = "float64") -> KernelTuning:
    """Tile sizing for a blocked ``cross``/``pairwise`` of the given shape.

    Thin, recordable wrapper over
    :func:`repro.metricspace.blocked.tile_rows_for`: benchmarks call this
    once per workload and embed the result in their ``BENCH_*.json``
    payloads so the tuning trajectory is versioned alongside wall times.

    With *use_profile* (the default) the per-machine profile is consulted
    first — an exact ``metric:shape:budget`` match short-circuits the
    derivation — and the derived tiling is recorded back on a miss, so
    repeated runs on one machine converge on a stable, shared tiling.
    """
    metric = get_metric(metric)
    check_positive_int(n_rows, "n_rows")
    check_positive_int(n_cols, "n_cols")
    check_positive_int(dim, "dim")
    dtype = np.dtype(dtype)
    budget = (get_default_memory_budget() if memory_budget_bytes is None
              else check_positive_int(memory_budget_bytes, "memory_budget_bytes"))
    if use_profile:
        entry = load_tile_profile().get(
            _profile_key(metric.name, n_rows, n_cols, dim, budget, str(dtype)))
        if entry is not None:
            try:
                tuning = KernelTuning(**entry)
                if (tuning.tile_rows >= 1 and tuning.metric == metric.name
                        and tuning.dtype == str(dtype)):
                    return tuning
            except TypeError:
                pass  # stale profile written by an older layout
    tile = tile_rows_for(metric, n_rows, n_cols, dim, budget,
                         itemsize=dtype.itemsize)
    tuning = KernelTuning(
        metric=metric.name,
        tile_rows=tile,
        tiles=int(np.ceil(n_rows / tile)),
        memory_budget_bytes=budget,
        accumulating=metric.accumulates_per_dimension,
        dtype=str(dtype),
    )
    if use_profile:
        record_kernel_tuning(tuning, n_rows, n_cols, dim)
    return tuning


# -- batch-size auto-tuning from the recorded benchmark trajectory -------------

BATCH_RESULTS_ENV_VAR = "REPRO_BENCH_RESULTS_DIR"
DEFAULT_BATCH_SIZE = 1024


def _batch_observations(directory: Path) -> list[tuple[int, float]]:
    """``(batch_size, speedup)`` pairs recorded in ``BENCH_fig3_*.json``."""
    observations: list[tuple[int, float]] = []
    for path in sorted(directory.glob("BENCH_fig3_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(payload, dict):
            continue
        if isinstance(payload.get("sweep"), list):
            # The speedup probe's batch-size sweep: the richest signal.
            for entry in payload["sweep"]:
                if (isinstance(entry, dict)
                        and isinstance(entry.get("batch_size"), int)
                        and entry["batch_size"] >= 1
                        and isinstance(entry.get("speedup"), (int, float))):
                    observations.append((entry["batch_size"],
                                         float(entry["speedup"])))
            continue
        batch_size = payload.get("batch_size")
        if not isinstance(batch_size, int) or batch_size < 1:
            continue
        if isinstance(payload.get("speedup"), (int, float)):
            # Single-point speedup record (pre-sweep layout).
            observations.append((batch_size, float(payload["speedup"])))
        elif isinstance(payload.get("cells"), list):
            # The throughput sweep: average the per-cell ratios.
            ratios = [cell["batched_pps"] / cell["per_point_pps"]
                      for cell in payload["cells"]
                      if isinstance(cell, dict)
                      and isinstance(cell.get("per_point_pps"), (int, float))
                      and cell["per_point_pps"] > 0
                      and isinstance(cell.get("batched_pps"), (int, float))]
            if ratios:
                observations.append((batch_size, float(np.mean(ratios))))
    return observations


def recommend_batch_size(results_dir: str | Path | None = None,
                         default: int | None = DEFAULT_BATCH_SIZE) -> int | None:
    """SMM-family ingestion batch size, tuned from the benchmark trajectory.

    Scans ``BENCH_fig3_*.json`` (the throughput sweep and the batched-
    speedup gate CI records every PR) for measured ``(batch_size, speedup)``
    observations and returns the batch size with the best speedup — or
    ``1`` (per-point ingestion) should the trajectory ever show batching
    losing.  With no trajectory available, returns *default* (pass
    ``default=None`` to distinguish "no measurement" from a genuine
    recommendation, as the CLI does).  An explicit
    *results_dir* (or ``$REPRO_BENCH_RESULTS_DIR``) is authoritative;
    otherwise ``benchmarks/results`` is probed under the CWD, then under
    the repo root.  The CLI uses this as the ``--batch-size`` default, so
    a machine that has run the benchmarks streams at its own measured
    sweet spot.
    """
    env = os.environ.get(BATCH_RESULTS_ENV_VAR)
    if results_dir is not None:
        candidates = [Path(results_dir)]
    elif env:
        candidates = [Path(env)]
    else:
        candidates = [Path("benchmarks") / "results",
                      Path(__file__).resolve().parents[2]
                      / "benchmarks" / "results"]
    for directory in candidates:
        if not directory.is_dir():
            continue
        observations = _batch_observations(directory)
        if observations:
            batch_size, speedup = max(observations, key=lambda pair: pair[1])
            return int(batch_size) if speedup >= 1.0 else 1
    return None if default is None else check_positive_int(default, "default")
