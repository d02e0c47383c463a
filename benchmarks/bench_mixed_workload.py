"""Mixed ingest/query (HTAP) workload — query p99 under concurrent refresh.

The serving layers promise that ingest never blocks reads: a
:meth:`~repro.service.DiversityService.refresh` builds the next epoch's
index off to the side and swaps it in atomically, while queries in
flight keep their epoch's snapshot.  This benchmark prices that promise.
For each dtype (float64, and the float32 fast path cast from the same
index) it runs ``service_harness.measure_mixed_workload``:

* a **query-only** open-loop pass — requests arrive at a fixed rate on a
  warm service and the scheduled-send-to-answer latency is sampled;
* a **mixed** pass — the identical request schedule, while a background
  refresher ingests a deterministic stream of new points at a fixed rate
  through the epoch'd plane.

Gates:

* **epoch purity** (unconditional): zero requests whose answers span
  more than one epoch — every batch sees one consistent index;
* **verify** (unconditional): the float32 mixed pass runs with the
  float64 shadow verify on every sampled solve; zero value and zero
  index mismatches while epochs churn underneath;
* **tail latency** (>= 4-cpu runners): mixed-pass query p99 <=
  ``REPRO_MIXED_P99_FACTOR`` (default 5.0) x the query-only p99, for
  both dtypes.  On smaller machines the refresher and the query pool
  timeshare one core, so the factor is recorded without the gate.

Arrival rate via ``REPRO_MIXED_RATE_QPS`` (default 40 — comfortably
under-capacity on the CI runners, so the baseline tail is queueing-free
and the factor isolates refresh interference).  Machine-readable results
land in ``benchmarks/results/BENCH_mixed_workload.json`` with both dtype
blocks head-to-head.
"""

from __future__ import annotations

import os

import numpy as np
from common import emit, emit_json, run_once
from repro.datasets.synthetic import sphere_shell
from repro.experiments.report import format_table
from repro.metricspace.points import PointSet
from repro.service import build_coreset_index
from service_harness import measure_mixed_workload

K_MAX = 8
NUM_REQUESTS = 48
QUERIES_PER_REQUEST = 2
REFRESH_HZ = 2.0
INGEST_BATCH = 400
GATED_CPUS = 4


def _available_cpus() -> int:
    """CPUs this process may actually schedule on (cgroup-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _refresh_source(ingest_round: int) -> PointSet:
    """Deterministic ingest batch per round (identical across dtypes)."""
    rng = np.random.default_rng(7_000 + ingest_round)
    return PointSet(rng.normal(size=(INGEST_BATCH, 3)))


def _measure():
    n = int(os.environ.get("REPRO_SERVICE_N", "20000"))
    rate_qps = float(os.environ.get("REPRO_MIXED_RATE_QPS", "40"))
    points = sphere_shell(n, K_MAX, dim=3, seed=23)
    index64 = build_coreset_index(points, K_MAX, parallelism=4, seed=0)
    index32 = index64.astype("float32")
    reports = {}
    for label, index in (("float64", index64), ("float32", index32)):
        reports[label] = measure_mixed_workload(
            index, _refresh_source,
            rate_qps=rate_qps,
            num_requests=NUM_REQUESTS,
            queries_per_request=QUERIES_PER_REQUEST,
            refresh_hz=REFRESH_HZ,
            verify_dtype=(label == "float32"),
            seed=0,
        )
    return n, rate_qps, reports


def test_mixed_workload(benchmark):
    n, rate_qps, reports = run_once(benchmark, _measure)
    emit("mixed_workload", format_table(
        ["dtype / pass", "p99 ms", "p99 factor"],
        [row
         for label, report in reports.items()
         for row in (
             [f"{label} query-only",
              f"{report.query_only_latency['p99_ms']:.2f}", "1.00x"],
             [f"{label} mixed (+{report.refreshes_completed} refreshes)",
              f"{report.mixed_latency['p99_ms']:.2f}",
              f"{report.p99_factor:.2f}x"])],
        title=f"Mixed ingest/query workload (n={n}, {rate_qps:.0f} req/s, "
              f"{NUM_REQUESTS}x{QUERIES_PER_REQUEST} queries, "
              f"refresh {REFRESH_HZ:.0f} Hz, {_available_cpus()} cpu)",
    ))
    emit_json("mixed_workload", {
        "n": n,
        "rate_qps": rate_qps,
        "cpu_count": _available_cpus(),
        "float64": reports["float64"].as_dict(),
        "float32": reports["float32"].as_dict(),
    })
    factor_bound = float(os.environ.get("REPRO_MIXED_P99_FACTOR", "5.0"))
    for label, report in reports.items():
        # Gate 1 (unconditional): every request's answers came from one
        # epoch — refresh never leaks a half-swapped index into a batch.
        assert report.epochs_mixed == 0, (
            f"{label}: {report.epochs_mixed} requests mixed epochs")
        # Gate 2 (unconditional): ingest actually happened during the
        # mixed pass, or the factor gates nothing.
        assert report.refreshes_completed >= 1, (
            f"{label}: refresher completed no ingest rounds")
        # Gate 3 (multi-core only): refresh interference is bounded.
        if _available_cpus() >= GATED_CPUS:
            assert report.p99_factor <= factor_bound, (
                f"{label}: mixed p99 {report.p99_factor:.2f}x query-only "
                f"(gate: <= {factor_bound:.2f}x on {_available_cpus()} "
                f"schedulable cpus)")
    # Gate 4 (unconditional): the float32 mixed pass was float64-shadow
    # verified across epoch churn — zero mismatches.
    verify = reports["float32"].verify
    assert verify["enabled"] and verify["checks"] > 0, (
        "float32 mixed pass must run the float64 shadow verify")
    assert verify["value_mismatches"] == 0, (
        f"{verify['value_mismatches']} float64-verify value mismatches")
    assert verify["index_mismatches"] == 0, (
        f"{verify['index_mismatches']} float64-verify index mismatches")
