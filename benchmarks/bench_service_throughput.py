"""Query-service throughput — the build-once/serve-many payoff.

The paper's composability result (Definition 2) says one core-set build
serves every query with ``k <= k'``; this benchmark measures what that is
worth as a system.  A mixed ``(objective, k)`` workload is served over the
same dataset:

* **rebuild-per-query** — the pre-service baseline: every query runs its
  own 2-round core-set build over the full dataset;
* **warm** — the :class:`~repro.service.DiversityService` path: queries
  route into a prebuilt ladder index and solve on shared, cached blocked
  distance matrices;
* **cached** — the identical workload replayed, answered from the LRU;
* **concurrent** — the warm workload again, through
  ``query_concurrent`` at 1 / 2 / 4 worker threads vs serial
  ``query_batch`` (matrix-cold services each time).

Gates (the acceptance criteria of the service PRs):

* warm-path queries/sec >= 5x the rebuild-per-query baseline;
* zero core-set builds happen during queries (build-call counter);
* the cached replay beats the warm pass;
* concurrent answers are identical to serial, every query counts exactly
  one cache hit or miss, and each touched rung's matrix is computed
  exactly once under contention (asserted by the harness itself);
* on runners with at least 4 cpus (e.g. CI's ubuntu runners), 4 workers
  reach >= ``REPRO_SERVICE_CONCURRENCY_MIN_SPEEDUP`` (default 2.0) x the
  serial throughput — the warm workload is dominated by numpy reductions
  over the large rung matrices, which release the GIL.  With fewer cores
  the sweep is recorded without the speed gate — threads cannot beat
  serial on one core.

A ``dtype`` block additionally races float32 against float64 on a
single-rung, bandwidth-bound configuration (one large gmm rung whose
matrix oversizes a 1 MiB budget, so every query recomputes it):

* float32 rung-matrix residency must be <= 0.55x float64 under identical
  (unbudgeted) settings — asserted from the matrix cache's byte
  accounting and tracemalloc's retained bytes, unconditionally;
* on >= 4-cpu runners, float32 warm queries/sec must reach
  ``REPRO_DTYPE_MIN_SPEEDUP`` (default 1.3) x float64;
* both dtypes' answers are float64-shadow-verified during the measured
  pass (``REPRO_VERIFY_DTYPE`` path): zero mismatches, unconditionally.

Machine-readable results (including the ``concurrency`` and ``dtype``
blocks) land in
``benchmarks/results/BENCH_service_throughput.json`` for the CI artifact.
Dataset size via ``REPRO_SERVICE_N`` (default 100,000 — the CI smoke size;
the rebuild baseline scales with ``n`` while the warm path does not, so
larger datasets only widen the measured gap).
"""

from __future__ import annotations

import os
import time

from common import emit, emit_json, run_once
from repro.datasets.synthetic import sphere_shell
from repro.experiments.report import format_table
from repro.service import DiversityService, build_coreset_index
from service_harness import (
    measure_concurrent_throughput,
    measure_service_throughput,
)
from repro.service.workload import make_workload

K_MAX = 8
NUM_QUERIES = 24
REBUILD_QUERIES = 3
WORKER_COUNTS = (1, 2, 4)
GATED_WORKERS = 4


def _available_cpus() -> int:
    """CPUs this process may actually schedule on.

    ``sched_getaffinity`` respects cgroup quotas and CPU pinning
    (containerized CI), where ``cpu_count`` reports the host's cores.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _measure_dtype():
    """Race float32 against float64 on a bandwidth-bound rung.

    One big gmm-only rung (multiplier 64 -> a few thousand core-set
    points) whose pairwise matrix oversizes a 1 MiB budget: every warm
    query recomputes the full matrix, so throughput is dominated by the
    blocked kernels' memory traffic — exactly where halving the itemsize
    pays.  The float32 index is the float64 one cast, so both runs serve
    identical geometry; the float32 service runs with the float64 shadow
    verify enabled on every sampled solve.
    """
    import tracemalloc

    n = min(int(os.environ.get("REPRO_SERVICE_N", "100000")), 20_000)
    points = sphere_shell(n, K_MAX, dim=3, seed=17)
    index64 = build_coreset_index(points, K_MAX, families=("gmm",),
                                  multiplier=64, k_min=K_MAX,
                                  parallelism=4, seed=0)
    index32 = index64.astype("float32")
    rung = index64.all_rungs()[0]
    rung_points = len(rung.coreset)
    workload = make_workload(K_MAX, 12,
                             objectives=["remote-edge", "remote-cycle"],
                             seed=0)

    blocks = {}
    for label, index in (("float64", index64), ("float32", index32)):
        # Throughput: a 1 MiB budget the rung matrix cannot fit, so each
        # query pays the full blocked pairwise recompute.  The float64
        # shadow verify runs in its own pass below — inside the timed
        # region it would bill float64 recomputes to the float32 side.
        with DiversityService(index, cache_size=len(workload),
                              matrix_budget_mb=1,
                              verify_dtype=False) as service:
            started = time.perf_counter()
            for query in workload:
                service.query_batch([query])
            seconds = time.perf_counter() - started
        with DiversityService(index, cache_size=len(workload),
                              verify_dtype=(label == "float32"),
                              verify_fraction=1.0) as checker:
            for query in workload[:6]:
                checker.query_batch([query])
            verify = checker.stats()["verify"]
        # Residency: an unbudgeted service retains the rung matrix; its
        # byte accounting (plus a tracemalloc peak over the compute) is
        # the local half of the 0.55x gate.
        # tracemalloc's *retained* bytes after the query are dominated by
        # the cached rung matrix (the residency claim); the *peak* also
        # spans the tile temporaries, which by design fill the same
        # kernel budget for both dtypes, so it rides along uninstated.
        with DiversityService(index, cache_size=4) as resident:
            tracemalloc.start()
            resident.query("remote-edge", 4)
            traced_current, traced_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            local = resident.stats()["matrices"]["local"]
        blocks[label] = {
            "qps": len(workload) / max(seconds, 1e-9),
            "resident_bytes": local["resident_bytes"],
            "tracemalloc_retained_bytes": traced_current,
            "tracemalloc_peak_bytes": traced_peak,
            "verify": verify,
        }
    return {
        "n": n,
        "rung_points": rung_points,
        "float64": blocks["float64"],
        "float32": blocks["float32"],
        "speedup": blocks["float32"]["qps"] / blocks["float64"]["qps"],
        "residency_ratio": (blocks["float32"]["resident_bytes"]
                            / max(blocks["float64"]["resident_bytes"], 1)),
    }


def _measure():
    n = int(os.environ.get("REPRO_SERVICE_N", "100000"))
    points = sphere_shell(n, K_MAX, dim=3, seed=11)
    # One ladder build, shared by both harnesses (the build dominates the
    # job's cost; measure_service_throughput would otherwise rebuild it).
    started = time.perf_counter()
    index = build_coreset_index(points, K_MAX, parallelism=4, seed=0)
    index_build_seconds = time.perf_counter() - started
    report = measure_service_throughput(
        points, K_MAX, num_queries=NUM_QUERIES,
        rebuild_queries=REBUILD_QUERIES, parallelism=4, executor="serial",
        seed=0, index=index,
    )
    # matrix_budget_mb=0 pins the gated runs to unbudgeted regardless of
    # any REPRO_MATRIX_BUDGET_MB in the environment: under a binding
    # budget, evictions trigger recomputes and the exactly-once matrix
    # gate below would fail spuriously.
    concurrency = measure_concurrent_throughput(
        points, K_MAX, num_queries=NUM_QUERIES,
        worker_counts=WORKER_COUNTS, seed=0, index=index,
        matrix_budget_mb=0,
    )
    dtype_block = _measure_dtype()
    return n, index_build_seconds, report, concurrency, dtype_block


def test_service_throughput(benchmark):
    (n, index_build_seconds, report, concurrency,
     dtype_block) = run_once(benchmark, _measure)
    emit("service_throughput", format_table(
        ["serving mode", "queries/s", "speedup"],
        [["rebuild-per-query", f"{report.rebuild_qps:.1f}", "1.0x"],
         ["warm service", f"{report.warm_qps:.1f}",
          f"{report.warm_speedup:.1f}x"],
         ["LRU-cached replay", f"{report.cached_qps:.1f}",
          f"{report.cached_speedup:.1f}x"],
         ["serial query_batch", f"{concurrency.serial_qps:.1f}", "—"],
         *[[f"query_concurrent x{workers} threads", f"{qps:.1f}",
            f"{concurrency.speedup(workers):.2f}x vs serial"]
           for workers, qps in sorted(concurrency.qps_by_workers.items())],
         ["recompute-bound float64", f"{dtype_block['float64']['qps']:.1f}",
          "1.0x"],
         ["recompute-bound float32", f"{dtype_block['float32']['qps']:.1f}",
          f"{dtype_block['speedup']:.2f}x vs float64"]],
        title=f"Query service throughput (n={n}, k_max={K_MAX}, "
              f"{report.num_queries} queries, "
              f"{_available_cpus()} cpu)",
    ))
    payload = {
        "n": n,
        "k_max": K_MAX,
        "cpu_count": _available_cpus(),
        "concurrency": concurrency.as_dict(),
        "dtype": dtype_block,
        **report.as_dict(),
    }
    payload["index_build_seconds"] = index_build_seconds  # the shared build
    emit_json("service_throughput", payload)
    # Gate 1 (acceptance): amortizing the build is worth >= 5x.
    assert report.warm_speedup >= 5.0, (
        f"warm path only {report.warm_speedup:.2f}x over rebuild-per-query")
    # Gate 2 (acceptance): the warm path never rebuilds a core-set —
    # serial or concurrent (the harness asserts the concurrent side too).
    assert report.build_calls_during_queries == 0
    assert concurrency.build_calls_during_queries == 0
    # Gate 3: the LRU turns repeats into lookups — faster than solving.
    assert report.cached_qps > report.warm_qps
    assert report.cache["hits"] >= report.num_queries
    # Gate 4: single-flight — one matrix compute per rung touched, even
    # at the widest worker count.
    assert concurrency.matrix_computes == concurrency.distinct_rungs
    # Gate 5 (acceptance, multi-core only): 4 workers beat serial >= 2x.
    # Fewer cores than workers cannot honestly clear a 2x bar, so the
    # sweep is recorded there but the speedup is not gated.
    min_speedup = float(os.environ.get(
        "REPRO_SERVICE_CONCURRENCY_MIN_SPEEDUP", "2.0"))
    speedup = concurrency.speedup(GATED_WORKERS)
    if _available_cpus() >= GATED_WORKERS:
        assert speedup >= min_speedup, (
            f"query_concurrent x{GATED_WORKERS} only {speedup:.2f}x over "
            f"serial query_batch (gate: {min_speedup:.2f}x on "
            f"{_available_cpus()} schedulable cpus)")
    # Gate 6 (acceptance): float32 halves resident matrix bytes — local
    # cache accounting and tracemalloc's retained bytes agree, on any
    # machine.
    assert dtype_block["residency_ratio"] <= 0.55, (
        f"float32 rung-matrix residency {dtype_block['residency_ratio']:.3f}x "
        "float64 (gate: <= 0.55x)")
    assert (dtype_block["float32"]["tracemalloc_retained_bytes"]
            <= 0.55 * dtype_block["float64"]["tracemalloc_retained_bytes"]), (
        "float32 tracemalloc retained bytes after the rung-matrix compute "
        "exceed 0.55x the float64 retained bytes")
    # Gate 7: the float32 pass ran with the float64 shadow verify on —
    # sampled solves must agree (values within rtol, selections identical
    # or tie-explained), unconditionally.
    assert dtype_block["float32"]["verify"]["checks"] > 0
    assert dtype_block["float32"]["verify"]["value_mismatches"] == 0
    assert dtype_block["float32"]["verify"]["index_mismatches"] == 0
    # Gate 8 (acceptance, multi-core only): the bandwidth-bound rung must
    # convert the halved itemsize into throughput.
    dtype_min = float(os.environ.get("REPRO_DTYPE_MIN_SPEEDUP", "1.3"))
    if _available_cpus() >= GATED_WORKERS:
        assert dtype_block["speedup"] >= dtype_min, (
            f"float32 warm queries/sec only {dtype_block['speedup']:.2f}x "
            f"float64 (gate: {dtype_min:.2f}x on {_available_cpus()} "
            f"schedulable cpus)")
