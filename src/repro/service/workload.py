"""Reproducible query workloads and latency percentile summaries.

:func:`make_workload` draws a mix of distinct ``(objective, k)`` queries;
:func:`latency_summary` folds latency samples into the percentile block
that the serving daemon's stats and the QoS tenant stats report.  The
throughput and latency harnesses built on them live with the benchmarks,
in ``benchmarks/service_harness.py``.
"""

from __future__ import annotations

import numpy as np

from repro.diversity.objectives import list_objectives
from repro.service.service import Query
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int


def make_workload(k_max: int, num_queries: int,
                  objectives: list[str] | None = None,
                  epsilon: float = 1.0,
                  seed: RngLike = None) -> list[Query]:
    """A reproducible mix of distinct ``(objective, k)`` queries.

    Queries are drawn without replacement from the
    ``objectives x [2, k_max]`` grid while possible (so a "warm" pass is
    not accidentally a cache-hit pass), then with replacement once the
    grid is exhausted.
    """
    check_positive_int(k_max, "k_max")
    check_positive_int(num_queries, "num_queries")
    rng = ensure_rng(seed)
    objectives = list(objectives) if objectives else list_objectives()
    k_low = min(2, k_max)
    grid = [(name, k) for name in objectives
            for k in range(k_low, k_max + 1)]
    order = rng.permutation(len(grid))
    workload: list[Query] = []
    while len(workload) < num_queries:
        take = min(num_queries - len(workload), len(grid))
        workload.extend(
            Query(grid[i][0], grid[i][1], epsilon)
            for i in order[:take])
        order = rng.permutation(len(grid))
    return workload


def latency_summary(seconds: list[float]) -> dict:
    """Summarize observed latencies (in seconds) as milliseconds.

    Returns ``{"count", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
    "max_ms"}`` — the percentile block every latency-reporting surface
    (the serving daemon's stats, the QoS tenant stats, the latency
    benchmarks) emits.  Percentiles are linearly interpolated
    (:func:`numpy.percentile` defaults); an empty sample yields ``count
    == 0`` with ``None`` everywhere else, so callers can emit the block
    unconditionally.
    """
    samples = np.asarray(list(seconds), dtype=np.float64) * 1e3
    if samples.size == 0:
        return {"count": 0, "mean_ms": None, "p50_ms": None,
                "p95_ms": None, "p99_ms": None, "max_ms": None}
    return {
        "count": int(samples.size),
        "mean_ms": float(samples.mean()),
        "p50_ms": float(np.percentile(samples, 50)),
        "p95_ms": float(np.percentile(samples, 95)),
        "p99_ms": float(np.percentile(samples, 99)),
        "max_ms": float(samples.max()),
    }
