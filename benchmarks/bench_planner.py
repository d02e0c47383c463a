"""Query planner benchmark — predicted-vs-measured error and auto speedup.

Calibrates the cost model on this machine (``repro calibrate``'s
:func:`repro.service.run_calibration`), then replays one mixed workload
— solve-heavy large batches on the biggest ladder rungs interleaved with
single-query requests — twice over the same prebuilt index: once with
today's static routing (``plan="static"``, serial default) and once with
the cost-model planner choosing the executor per batch
(``plan="auto"``).  Matrices, the process pool and the mode's executor
are warmed before timing, so the replay prices dispatch and solve work,
not cold builds.

Gates:

* **bit-identity** (unconditional): the auto replay's answers — indices
  and objective values — equal the static replay's, query for query.
  The planner moves work, never results.
* **prediction error** (unconditional): the planner's running mean
  predicted-vs-measured relative error stays <=
  ``REPRO_PLANNER_MAX_REL_ERROR`` (default 0.5) across the replay —
  the same ``stats()["planner"]["mean_rel_error"]`` metric a serving
  daemon exports.
* **speedup** (>= 4-cpu runners): auto throughput >=
  ``REPRO_PLANNER_MIN_SPEEDUP`` (default 1.1) x static throughput.  On
  smaller machines the process backend has no cores to win with, so the
  ratio is recorded without the gate.

Machine-readable results land in
``benchmarks/results/BENCH_planner.json``: both replays' qps, the
calibrated model, and the planner's per-batch
predicted-vs-measured sample log.
"""

from __future__ import annotations

import os
import time

from common import emit, emit_json, run_once
from repro.datasets.synthetic import sphere_shell
from repro.experiments.report import format_table
from repro.service import (
    CostModel,
    DiversityService,
    Query,
    QueryPlanner,
    build_coreset_index,
    run_calibration,
)

K_MAX = 32
WORKERS = 4
GATED_CPUS = 4
#: Solve-heavy batches: the three most expensive sequential solvers on
#: their mid-ladder gmm-ext rung (k' = 64; about 30 ms per solve at
#: n = 20000) — enough work for the process backend to amortize its
#: dispatch.
LARGE_OBJECTIVES = ("remote-star", "remote-clique", "remote-bipartition")
LARGE_K_RANGE = range(9, 13)
LARGE_BATCHES = 2
SMALL_QUERIES = 12
#: Answered once per mode before timing, on the large batches' rung: in
#: auto mode it fills that rung's shared process segment.  Remote-tree
#: uses only the rung's farthest-point order, so the replay still pays
#: the matching the large batches share.
WARM_QUERY = Query("remote-tree", 16)


def _available_cpus() -> int:
    """CPUs this process may actually schedule on (cgroup-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _workload() -> list[list[Query]]:
    """The replayed batch sequence — identical for both modes."""
    large = [Query(objective, k)
             for objective in LARGE_OBJECTIVES
             for k in LARGE_K_RANGE]
    batches: list[list[Query]] = [large] * LARGE_BATCHES
    batches += [[Query("remote-edge", 4 + i % 6)]
                for i in range(SMALL_QUERIES)]
    return batches


def _replay(index, *, plan: str, planner=None):
    """Run the workload once; returns (results, wall, planner stats)."""
    with DiversityService(index, cache_size=512, plan=plan,
                          planner=planner,
                          executor_workers=WORKERS) as service:
        for rung in index.all_rungs():
            service._matrix_for(service._matrices, 0, rung)
        service.warm_executor("process", WORKERS)
        # An explicit executor bypasses the planner: the warm-up is
        # neither planned nor recorded.
        service.query_batch([WARM_QUERY], executor=(
            "process" if plan == "auto" else "serial"))
        service.cache = service.cache.successor()
        results = []
        started = time.perf_counter()
        for batch in _workload():
            results.extend(service.query_batch(batch))
            # Fresh result-cache per batch: every replayed batch pays
            # its solves, in both modes alike.
            service.cache = service.cache.successor()
        wall = time.perf_counter() - started
        stats = service.stats()["planner"]
        samples = service._planner.samples()
    return results, wall, stats, samples


def _measure():
    n = int(os.environ.get("REPRO_SERVICE_N", "20000"))
    points = sphere_shell(n, K_MAX, dim=3, seed=29)
    index = build_coreset_index(points, K_MAX, parallelism=4, seed=0)
    calibration = run_calibration(workers=WORKERS)
    auto_planner = QueryPlanner(CostModel.from_payload(calibration))
    static_results, static_wall, _, _ = _replay(index, plan="static")
    auto_results, auto_wall, planner_stats, samples = _replay(
        index, plan="auto", planner=auto_planner)
    return {
        "n": n,
        "calibration": calibration,
        "static": (static_results, static_wall),
        "auto": (auto_results, auto_wall),
        "planner": planner_stats,
        "samples": samples,
    }


def test_planner(benchmark):
    measured = run_once(benchmark, _measure)
    static_results, static_wall = measured["static"]
    auto_results, auto_wall = measured["auto"]
    planner = measured["planner"]
    queries = sum(len(batch) for batch in _workload())
    static_qps = queries / static_wall
    auto_qps = queries / auto_wall
    speedup = auto_qps / static_qps
    cpus = _available_cpus()

    emit("planner", format_table(
        ["mode", "wall s", "qps", "plans"],
        [["static", f"{static_wall:.2f}", f"{static_qps:.1f}", "serial"],
         ["auto", f"{auto_wall:.2f}", f"{auto_qps:.1f}",
          ", ".join(f"{name} x{count}"
                    for name, count in planner["plans"].items() if count)]],
        title=f"Query planner replay (n={measured['n']}, {queries} queries "
              f"in {LARGE_BATCHES + SMALL_QUERIES} batches, {cpus} cpu; "
              f"auto {speedup:.2f}x static, "
              f"mean rel error {planner['mean_rel_error']:.2f})",
    ))
    emit_json("planner", {
        "n": measured["n"],
        "cpu_count": cpus,
        "queries": queries,
        "static_qps": static_qps,
        "auto_qps": auto_qps,
        "speedup": speedup,
        "planner": planner,
        "calibration": measured["calibration"],
        "samples": measured["samples"],
    })

    # Gate 1 (unconditional): the planner never changes answers.
    assert len(static_results) == len(auto_results)
    for expected, actual in zip(static_results, auto_results):
        assert list(expected.indices) == list(actual.indices), (
            "auto selection differs from static for "
            f"({expected.objective}, k={expected.k})")
        assert expected.value == actual.value

    # Gate 2 (unconditional): predictions track measurements.
    max_rel_error = float(
        os.environ.get("REPRO_PLANNER_MAX_REL_ERROR", "0.5"))
    assert planner["planned"] == LARGE_BATCHES + SMALL_QUERIES
    assert planner["mean_rel_error"] is not None
    assert planner["mean_rel_error"] <= max_rel_error, (
        f"planner mean rel error {planner['mean_rel_error']:.3f} "
        f"(gate: <= {max_rel_error})")

    # Gate 3 (multi-core only): planning pays for itself on the mixed
    # workload.  One- or two-core runners have nothing to win with.
    min_speedup = float(os.environ.get("REPRO_PLANNER_MIN_SPEEDUP", "1.1"))
    if cpus >= GATED_CPUS:
        assert speedup >= min_speedup, (
            f"auto replay {speedup:.2f}x static "
            f"(gate: >= {min_speedup:.2f}x on {cpus} schedulable cpus)")
