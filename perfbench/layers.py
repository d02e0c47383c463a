"""Where the traced run puts its spans, and the per-layer metrics they give.

Each entry of :data:`PATCHES` names a layer's public function at the
place its caller looks it up: ``service.service`` imports
``solve_on_matrix`` by name, ``remote_clique`` imports
``greedy_max_matching`` by name, and ``PointSet.pairwise`` reaches
``blocked_pairwise`` through ``repro.metricspace.points``.  Methods are
patched on their class.  :func:`layer_metrics` turns the recorded spans,
plus the counters a workload reads from ``stats()``, into the
``per_layer`` metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import statistics
import time

from spans import Span, Tracer, self_times

OBJECTIVES = ("remote-bipartition", "remote-clique", "remote-cycle",
              "remote-edge", "remote-star", "remote-tree")


def _matrix_side(args, kwargs, result) -> dict:
    """``solve_on_matrix(dist, k, objective)``: side and objective name."""
    objective = args[2] if len(args) > 2 else kwargs["objective"]
    return {"n": int(args[0].shape[0]),
            "objective": getattr(objective, "name", str(objective))}


def _rows(args, kwargs, result) -> dict:
    """``blocked_pairwise(metric, points)``: rows of the square result."""
    return {"n": int(result.shape[0])}


def _merge(args, kwargs, result) -> dict:
    """``merge_coresets(parts, ...)``: whether the union was re-reduced."""
    return {"compacted": len(result) < sum(len(part) for part in args[0])}


def _decoded(args, kwargs, result) -> dict:
    return {"request": result.id}


def _encoded(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


#: ``(target, span name, attribute extractor)`` for every traced layer.
PATCHES = (
    ("repro.service.service.solve_on_matrix", "diversity.sequential",
     _matrix_side),
    ("repro.diversity.sequential.remote_clique.greedy_max_matching",
     "graph.matching", None),
    ("repro.diversity.objectives:Objective.value", "diversity.objectives",
     None),
    ("repro.metricspace.points.blocked_pairwise", "metricspace.blocked",
     _rows),
    ("repro.service.service:DiversityService.query_batch", "service.service",
     None),
    ("repro.service.service:DiversityService._lookup", "service.cache", None),
    ("repro.service.service:DiversityService._matrix_for", "service.matrices",
     None),
    ("repro.service.index.estimate_doubling_dimension", "metricspace.doubling",
     None),
    ("repro.service.index:CoresetIndex.extend", "service.index.extend", None),
    ("repro.streaming.algorithm.stream_coreset", "streaming", None),
    ("repro.service.index.merge_coresets", "coresets.composable.merge",
     _merge),
)

#: Extra call sites that only the daemon reaches.
DAEMON_PATCHES = (
    ("repro.service.protocol.decode_request", "service.protocol.decode",
     _decoded),
    ("repro.service.protocol.encode_results", "service.protocol.encode",
     _encoded),
    ("repro.cli.load_index", "service.persist.load", None),
)


def install(tracer: Tracer, *, daemon: bool = False) -> None:
    """Patch every layer of :data:`PATCHES` (and the daemon's, if asked)."""
    for target, name, describe in PATCHES + (DAEMON_PATCHES if daemon
                                            else ()):
        tracer.patch(target, functools.partial(tracer.wrap, name,
                                               describe=describe))
    if daemon:
        _install_dispatch(tracer)


def _install_dispatch(tracer: Tracer) -> None:
    """Record each micro-batch dispatch with its requests' queue waits.

    ``DiversityServer._dispatch`` is a coroutine; coroutines share the
    event-loop thread, so the span is recorded without a parent stack.
    """
    def traced(original):
        async def _dispatch(self, batch):
            start = time.monotonic()
            waits = [time.perf_counter() - work.admitted_at
                     for work in batch]
            try:
                return await original(self, batch)
            finally:
                tracer.record("service.server.dispatch", start,
                              time.monotonic(), requests=len(batch),
                              queue_wait_s=waits)

        _dispatch.__wrapped_by_perfbench__ = True
        return _dispatch

    tracer.patch("repro.service.server:DiversityServer._dispatch", traced)


def _within(span: Span, windows) -> bool:
    return any(lo <= span.start < hi for lo, hi in windows)


def _median_per_window(spans: list[Span], name: str, windows) -> float:
    """Median over *windows* of the time spent in *name* inside each."""
    if not windows:
        return 0.0
    return statistics.median(
        sum((span.duration for span in spans
             if span.name == name and lo <= span.start < hi), 0.0)
        for lo, hi in windows)


def layer_metrics(spans: list[Span], setup_windows, timed_windows,
                  counters: dict) -> dict[str, float]:
    """The ``per_layer`` metrics of one traced run.

    Call-level layers (busy time, calls, cost per matrix cell) count
    spans that start inside a timed window; a traced run's timed windows
    hold a fixed amount of work, so these totals move only when the work
    a layer does for it moves.  Build-layer times are the median over
    the repeated set-ups, like ``setup_s``.  *counters* carries what the
    workload read from ``stats()``; missing ones are 0, which is also
    what a layer the workload never reaches reports.
    """
    timed = [span for span in spans if _within(span, timed_windows)]
    by_name: dict[str, list[Span]] = {}
    for span in timed:
        by_name.setdefault(span.name, []).append(span)
    wall = sum(hi - lo for lo, hi in timed_windows)

    def busy(name: str) -> float:
        return sum((span.duration for span in by_name.get(name, [])), 0.0)

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def mean_us(name: str) -> float:
        group = by_name.get(name, [])
        return 1e6 * busy(name) / len(group) if group else 0.0

    def ns_per_cell(name: str) -> float:
        cells = sum(span.attrs["n"] ** 2 for span in by_name.get(name, []))
        return 1e9 * busy(name) / cells if cells else 0.0

    service_spans = by_name.get("service.service", [])
    selfs = self_times(timed)
    dispatches = by_name.get("service.server.dispatch", [])
    waits = [wait for span in dispatches
             for wait in span.attrs["queue_wait_s"]]
    encodes = by_name.get("service.protocol.encode", [])
    merges = by_name.get("coresets.composable.merge", [])
    metrics = {
        "graph.matching.busy_s": busy("graph.matching"),
        "graph.matching.calls": calls("graph.matching"),
        "diversity.sequential.busy_s": busy("diversity.sequential"),
        "diversity.sequential.calls": calls("diversity.sequential"),
        "diversity.sequential.ns_per_cell": ns_per_cell("diversity.sequential"),
    }
    for objective in OBJECTIVES:
        metrics[f"diversity.sequential.{objective}.busy_s"] = sum(
            (span.duration for span in by_name.get("diversity.sequential", [])
             if span.attrs["objective"] == objective), 0.0)
    metrics.update({
        "diversity.objectives.busy_s": busy("diversity.objectives"),
        "diversity.objectives.calls": calls("diversity.objectives"),
        "metricspace.blocked.busy_s": busy("metricspace.blocked"),
        "metricspace.blocked.calls": calls("metricspace.blocked"),
        "metricspace.blocked.ns_per_cell": ns_per_cell("metricspace.blocked"),
        "service.matrices.computes": counters.get("matrices.computes", 0),
        "service.matrices.hits": counters.get("matrices.hits", 0),
        "service.matrices.recomputes": counters.get("matrices.recomputes", 0),
        "service.matrices.resident_mb": counters.get("matrices.resident_mb",
                                                     0.0),
        "service.cache.hit_rate": counters.get("cache.hit_rate", 0.0),
        "service.cache.eps_hits": counters.get("cache.eps_hits", 0),
        "service.cache.probe_us": mean_us("service.cache"),
        "service.service.self_us": (
            1e6 * statistics.fmean(selfs[span.id] for span in service_spans)
            if service_spans else 0.0),
        "service.service.batches": len(service_spans),
        "service.server.batches_dispatched": len(dispatches),
        "service.server.batch_size_mean": (
            statistics.fmean(span.attrs["requests"] for span in dispatches)
            if dispatches else 0.0),
        "service.server.queue_wait_ms": (1e3 * statistics.fmean(waits)
                                         if waits else 0.0),
        "service.server.rejected": counters.get("server.rejected", 0),
        "service.protocol.decode_us": mean_us("service.protocol.decode"),
        "service.protocol.encode_us": mean_us("service.protocol.encode"),
        "service.protocol.response_bytes": (
            statistics.fmean(span.attrs["bytes"] for span in encodes)
            if encodes else 0.0),
        "service.index.build_s": _median_per_window(
            spans, "service.index.build", setup_windows),
        "service.index.top_rung_points": counters.get("index.top_rung_points",
                                                      0),
        "metricspace.doubling.busy_s": _median_per_window(
            spans, "metricspace.doubling", setup_windows),
        "service.persist.save_s": _median_per_window(
            spans, "service.persist.save", setup_windows),
        "service.persist.load_s": _median_per_window(
            spans, "service.persist.load", setup_windows),
        "service.index.extend_s": busy("service.index.extend"),
        "service.index.dimension_reestimates": counters.get(
            "index.dimension_reestimates", 0),
        "streaming.busy_s": busy("streaming"),
        "coresets.composable.merge_s": busy("coresets.composable.merge"),
        "coresets.composable.compactions": sum(
            1 for span in merges if span.attrs["compacted"]),
        "trace.solver_share": (busy("diversity.sequential") / wall
                               if wall else 0.0),
        "trace.refresh_share": (busy("service.index.extend") / wall
                                if wall else 0.0),
    })
    return metrics
