"""Service throughput and latency harnesses for the service benchmarks.

A randomized mix of ``(objective, k)`` requests is served several ways —

* **rebuild-per-query** — the pre-service baseline: every query pays a
  fresh core-set build over the full dataset before solving;
* **warm** — the service path: queries route into a prebuilt index and
  solve on shared, cached distance matrices;
* **cached** — the same workload replayed, served from the LRU;
* **concurrent** — the same warm workload pushed through
  :meth:`~repro.service.service.DiversityService.query_concurrent` at
  several worker counts (:func:`measure_concurrent_throughput`), with the
  build-calls and matrices-computed-once invariants asserted under
  contention;
* **open loop** — a serving daemon (:func:`measure_serve_latency`, which
  ends with one pipelined burst) or an in-process service under
  concurrent ingest (:func:`measure_mixed_workload`) driven at a fixed
  request rate.

Each harness asserts its own invariants, so a benchmark that runs one is
also a test.  ``bench_service_throughput.py``, ``bench_serve_latency.py``
and ``bench_mixed_workload.py`` run them and gate their speed.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

from repro.diversity.sequential.registry import solve_sequential
from repro.mapreduce.algorithm import MRDiversityMaximizer
from repro.metricspace.points import PointSet
from repro.service import protocol
from repro.service.index import build_coreset_index
from repro.service.server import DiversityServer, ServerConfig
from repro.service.service import DiversityService, Query
from repro.service.workload import latency_summary, make_workload
from repro.utils.validation import check_positive_int


@dataclass
class ThroughputReport:
    """Queries/sec for the three serving modes, plus provenance.

    ``warm_latency`` and ``cached_latency`` are per-query wall-latency
    percentile blocks (:func:`latency_summary`) for the two service
    passes — the queries are answered one at a time so every query
    contributes a client-observed latency sample.
    """

    num_queries: int
    rebuild_queries: int
    index_build_seconds: float
    rebuild_qps: float
    warm_qps: float
    cached_qps: float
    build_calls_during_queries: int
    cache: dict
    warm_latency: dict = field(default_factory=dict)
    cached_latency: dict = field(default_factory=dict)

    @property
    def warm_speedup(self) -> float:
        """Warm-path queries/sec over the rebuild-per-query baseline."""
        return self.warm_qps / self.rebuild_qps

    @property
    def cached_speedup(self) -> float:
        """LRU-replay queries/sec over the rebuild-per-query baseline."""
        return self.cached_qps / self.rebuild_qps

    def as_dict(self) -> dict:
        """JSON-ready form, with the derived speedups materialized."""
        payload = asdict(self)
        payload["warm_speedup"] = self.warm_speedup
        payload["cached_speedup"] = self.cached_speedup
        return payload


def measure_service_throughput(
    points: PointSet,
    k_max: int,
    num_queries: int = 24,
    rebuild_queries: int = 3,
    objectives: list[str] | None = None,
    seed: int | None = 0,
    index=None,
    matrix_budget_mb: int | None = None,
    **build_options,
) -> ThroughputReport:
    """Measure rebuild-per-query vs warm vs cached queries/sec.

    The rebuild baseline runs the first *rebuild_queries* workload entries
    the pre-service way (fresh 2-round MapReduce job per query over the
    full dataset); the warm pass answers the whole workload through a
    prebuilt :class:`DiversityService`; the cached pass replays it.
    *build_options* go to :func:`repro.service.index.build_coreset_index`
    (and the baseline builder inherits ``parallelism``/``executor``).
    Pass a prebuilt *index* to skip the index build (callers sharing one
    index across harnesses, e.g. the throughput benchmark); the reported
    ``index_build_seconds`` is then ~0.  *matrix_budget_mb* configures
    the measured service's matrix cache (see :class:`DiversityService`).
    """
    workload = make_workload(k_max, num_queries, objectives=objectives,
                             seed=seed)
    rebuild_queries = min(check_positive_int(rebuild_queries,
                                             "rebuild_queries"),
                          len(workload))
    multiplier = build_options.get("multiplier", 4)
    parallelism = build_options.get("parallelism", 4)
    executor = build_options.get("executor", "serial")

    # Baseline: every query pays its own core-set build (no amortization).
    started = time.perf_counter()
    for query in workload[:rebuild_queries]:
        with MRDiversityMaximizer(
                k=query.k, k_prime=multiplier * query.k,
                objective=query.objective, parallelism=parallelism,
                metric=points.metric, executor=executor,
                seed=seed) as builder:
            build = builder.build_coreset(points)
        solve_sequential(build.coreset, query.k, query.objective)
    rebuild_seconds = time.perf_counter() - started

    started = time.perf_counter()
    if index is None:
        index = build_coreset_index(points, k_max, seed=seed, **build_options)
    index_build_seconds = time.perf_counter() - started

    service = DiversityService(index, cache_size=max(128, len(workload)),
                               matrix_budget_mb=matrix_budget_mb)

    def _timed_pass(queries: list[Query]) -> tuple[list, float, list[float]]:
        """One query at a time, recording per-query wall latency."""
        results, latencies = [], []
        started = time.perf_counter()
        for query in queries:
            t0 = time.perf_counter()
            results.extend(service.query_batch([query]))
            latencies.append(time.perf_counter() - t0)
        return results, time.perf_counter() - started, latencies

    warm, warm_seconds, warm_latencies = _timed_pass(workload)
    build_calls_during_queries = service.build_calls

    cached, cached_seconds, cached_latencies = _timed_pass(workload)

    assert all(result.cached for result in cached), \
        "replayed workload must be served entirely from the LRU"
    assert len(warm) == len(workload)

    def _qps(count: int, seconds: float) -> float:
        return count / max(seconds, 1e-9)

    return ThroughputReport(
        num_queries=len(workload),
        rebuild_queries=rebuild_queries,
        index_build_seconds=index_build_seconds,
        rebuild_qps=_qps(rebuild_queries, rebuild_seconds),
        warm_qps=_qps(len(workload), warm_seconds),
        cached_qps=_qps(len(workload), cached_seconds),
        build_calls_during_queries=build_calls_during_queries,
        cache=service.cache.stats.as_dict(),
        warm_latency=latency_summary(warm_latencies),
        cached_latency=latency_summary(cached_latencies),
    )


@dataclass
class ConcurrencyReport:
    """Serial vs concurrent queries/sec over one warm workload.

    ``qps_by_workers`` maps each measured worker count to its
    ``query_concurrent`` throughput on the thread backend; ``serial_qps``
    is the ``query_batch`` baseline on an identically cold service.  The
    invariants checked during measurement ride along:
    ``build_calls_during_queries`` (must be 0 — queries never rebuild)
    and ``matrix_computes`` vs ``distinct_rungs`` (each rung's matrix is
    computed exactly once under contention when unbudgeted).
    ``serial_latency`` is the per-query wall-latency percentile block of
    the serial baseline;
    ``solve_latency_by_workers`` holds per-worker-count percentile
    blocks over ``QueryResult.solve_seconds`` (solver time only —
    client-observed latency is not well-defined inside one
    ``query_concurrent`` call).
    """

    num_queries: int
    serial_qps: float
    qps_by_workers: dict[int, float]
    build_calls_during_queries: int
    distinct_rungs: int
    matrix_computes: int
    matrices: dict
    serial_latency: dict = field(default_factory=dict)
    solve_latency_by_workers: dict[int, dict] = field(default_factory=dict)

    def speedup(self, workers: int) -> float:
        """Concurrent throughput at *workers* over the serial baseline."""
        return self.qps_by_workers[workers] / self.serial_qps

    def as_dict(self) -> dict:
        """JSON-ready form (the ``concurrency`` block of the benchmark)."""
        return {
            "num_queries": self.num_queries,
            "serial_qps": self.serial_qps,
            "serial_latency": self.serial_latency,
            "workers": {
                str(workers): {
                    "qps": qps,
                    "speedup": self.speedup(workers),
                    "solve_latency": self.solve_latency_by_workers.get(
                        workers, {}),
                }
                for workers, qps in self.qps_by_workers.items()},
            "build_calls_during_queries": self.build_calls_during_queries,
            "distinct_rungs": self.distinct_rungs,
            "matrix_computes": self.matrix_computes,
            "matrices": self.matrices,
        }


def measure_concurrent_throughput(
    points: PointSet,
    k_max: int,
    num_queries: int = 32,
    worker_counts: tuple[int, ...] = (1, 2, 4),
    objectives: list[str] | None = None,
    seed: int | None = 0,
    matrix_budget_mb: int | None = None,
    index=None,
    **build_options,
) -> ConcurrencyReport:
    """Measure ``query_concurrent`` against serial ``query_batch``.

    One index is built (or taken from *index*), then the same workload is
    served by a fresh, matrix-cold :class:`DiversityService` per mode:
    once serially through :meth:`~DiversityService.query_batch`, and once
    per entry of *worker_counts* through
    :meth:`~DiversityService.query_concurrent` on threads.  Every
    concurrent run is checked against the serial answers (identical
    values and rungs — the determinism contract), every service must
    report zero build calls, and the widest run must have computed each
    touched rung's matrix exactly once (single-flight; only asserted
    when unbudgeted).

    Raises
    ------
    AssertionError
        If any of those invariants fails — this harness *is* the test.
    """
    workload = make_workload(k_max, num_queries, objectives=objectives,
                             seed=seed)
    if index is None:
        index = build_coreset_index(points, k_max, seed=seed, **build_options)
    cache_size = max(128, len(workload))

    def _fresh_service() -> DiversityService:
        return DiversityService(index, cache_size=cache_size,
                                matrix_budget_mb=matrix_budget_mb)

    serial_service = _fresh_service()
    serial_results: list = []
    serial_latencies: list[float] = []
    started = time.perf_counter()
    for query in workload:
        t0 = time.perf_counter()
        serial_results.extend(serial_service.query_batch([query]))
        serial_latencies.append(time.perf_counter() - t0)
    serial_seconds = time.perf_counter() - started
    expected = [(result.value, result.rung) for result in serial_results]

    qps_by_workers: dict[int, float] = {}
    solve_latency_by_workers: dict[int, dict] = {}
    build_calls = serial_service.build_calls
    widest_service = serial_service
    for workers in sorted(worker_counts):
        service = _fresh_service()
        started = time.perf_counter()
        results = service.query_concurrent(workload, max_workers=workers)
        seconds = time.perf_counter() - started
        widest_service = service
        assert [(result.value, result.rung) for result in results] == expected, \
            "concurrent answers must be identical to the serial baseline"
        stats = service.cache.stats
        assert stats.hits + stats.misses == len(workload), \
            "every query must count exactly one cache hit or miss"
        build_calls = max(build_calls, service.build_calls)
        qps_by_workers[workers] = len(workload) / max(seconds, 1e-9)
        solve_latency_by_workers[workers] = latency_summary(
            [result.solve_seconds for result in results])

    assert build_calls == 0, "queries must never rebuild a core-set"
    distinct_rungs = len({index.route(q.objective, q.k, q.epsilon).key
                          for q in workload})
    matrices = widest_service.stats()["matrices"]["local"]
    if matrices["budget_bytes"] is None:
        assert matrices["computes"] == distinct_rungs, (
            f"expected exactly one matrix compute per rung "
            f"({distinct_rungs}), saw {matrices['computes']}")
    return ConcurrencyReport(
        num_queries=len(workload),
        serial_qps=len(workload) / max(serial_seconds, 1e-9),
        qps_by_workers=qps_by_workers,
        build_calls_during_queries=build_calls,
        distinct_rungs=distinct_rungs,
        matrix_computes=matrices["computes"],
        matrices=matrices,
        serial_latency=latency_summary(serial_latencies),
        solve_latency_by_workers=solve_latency_by_workers,
    )


@dataclass
class ServeLatencyReport:
    """Open-loop load-test results against a running serving daemon.

    ``latency`` is the client-observed percentile block
    (:func:`latency_summary`): each sample runs from the request's
    *scheduled* send time to its response — so queueing delay from an
    overloaded server shows up in the tail instead of silently slowing
    the arrival process (the open-loop property).  ``rejected`` counts
    ``overloaded``/``shutting_down`` responses (explicit backpressure),
    ``errors`` everything else that was not an answer, ``mismatches``
    answers that differed from the in-process expectation (must be 0 —
    the harness *is* the bit-identity test).  ``requests`` and the
    counters include the ``burst`` requests sent in one write after the
    open loop; ``latency`` samples the open loop only.  ``server`` is the
    daemon's final ``stats()["server"]`` block; its ``batched_requests``
    counter is the proof that micro-batching coalesced the burst.
    """

    rate_qps: float
    requests: int
    burst: int
    queries_per_request: int
    answered: int
    rejected: int
    errors: int
    mismatches: int
    duration_seconds: float
    latency: dict
    server: dict

    def as_dict(self) -> dict:
        """JSON-ready form (the payload of ``BENCH_serve_latency.json``)."""
        return asdict(self)


async def open_loop_load(host: str, port: int, requests: list[list[Query]],
                         rate_qps: float,
                         expected: dict | None = None) -> dict:
    """Drive an open-loop request schedule at a serving daemon.

    Sends one NDJSON ``query`` request per entry of *requests* on a
    single pipelined connection, at fixed ``1 / rate_qps`` intervals
    anchored to the wall clock — send times never wait for responses, so
    a slow server accumulates queueing delay rather than throttling the
    generator.  A concurrent reader matches responses to requests by
    ``id`` and samples scheduled-send-to-response latency.  When
    *expected* maps request index to the in-process ``(value, indices)``
    list, every answer is checked against it.

    Returns ``{"answered", "rejected", "errors", "mismatches",
    "latencies", "duration_seconds"}`` — raw material for
    :class:`ServeLatencyReport`.
    """
    interval = 1.0 / rate_qps
    reader, writer = await asyncio.open_connection(host, port)
    loop = asyncio.get_running_loop()
    sent_at: dict[int, float] = {}
    counts = {"answered": 0, "rejected": 0, "errors": 0, "mismatches": 0}
    latencies: list[float] = []

    async def produce() -> None:
        """Write each request at its scheduled (open-loop) instant."""
        start = loop.time()
        for index, queries in enumerate(requests):
            scheduled = start + index * interval
            delay = scheduled - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            sent_at[index] = scheduled
            writer.write(protocol.encode_request(
                "query", index, queries=queries).encode())
            await writer.drain()

    async def consume() -> None:
        """Match responses to requests by id; sample and classify."""
        for _ in range(len(requests)):
            line = await reader.readline()
            if not line:
                counts["errors"] += len(requests) - sum(
                    (counts["answered"], counts["rejected"],
                     counts["errors"]))
                return
            response = protocol.decode_response(line)
            if _tally(response, counts, expected):
                latencies.append(loop.time() - sent_at[response["id"]])

    started = loop.time()
    producer = asyncio.ensure_future(produce())
    try:
        await consume()
    finally:
        producer.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, OSError):  # pragma: no cover
            pass
    return {**counts, "latencies": latencies,
            "duration_seconds": loop.time() - started}


def _tally(response: dict, counts: dict, expected: dict | None) -> bool:
    """Count one response into *counts*; ``True`` when it is an answer.

    Answers are checked against *expected* (request id to the in-process
    ``(value, indices)`` list) when given.
    """
    if response.get("ok"):
        counts["answered"] += 1
        request_id = response.get("id")
        if expected is not None and request_id in expected:
            got = [(result.value, tuple(result.indices))
                   for result in protocol.results_of(response)]
            if got != expected[request_id]:
                counts["mismatches"] += 1
        return True
    if response["error"]["code"] in ("overloaded", "shutting_down"):
        counts["rejected"] += 1
    else:
        counts["errors"] += 1
    return False


async def pipelined_burst(host: str, port: int,
                          requests: dict[int, list[Query]],
                          expected: dict | None = None) -> dict:
    """Send *requests* (id to queries) in one write and tally the replies.

    The daemon forms batches from its backlog, so an under-capacity open
    loop — each request alone on an idle daemon — never coalesces; a
    burst longer than ``max_batch`` queues behind its own first request
    and must.  Returns ``{"answered", "rejected", "errors",
    "mismatches"}``, checked against *expected* like
    :func:`open_loop_load`.
    """
    counts = {"answered": 0, "rejected": 0, "errors": 0, "mismatches": 0}
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write("".join(
            protocol.encode_request("query", request_id, queries=queries)
            for request_id, queries in requests.items()).encode())
        await writer.drain()
        for received in range(len(requests)):
            line = await reader.readline()
            if not line:
                counts["errors"] += len(requests) - received
                break
            _tally(protocol.decode_response(line), counts, expected)
    finally:
        writer.close()
        await writer.wait_closed()
    return counts


@dataclass
class MixedWorkloadReport:
    """Query latency under concurrent ingest (the HTAP gate).

    Two open-loop passes over the same request schedule: a *query-only*
    baseline, then a *mixed* pass where a background refresher ingests
    new points at ``refresh_hz`` through
    :meth:`~repro.service.service.DiversityService.refresh` while
    queries keep arriving.  Latency samples run from each request's
    scheduled send instant to its completed answer, so refresh-induced
    stalls surface in the tail instead of slowing the arrival process.
    ``p99_factor`` (mixed p99 over query-only p99) is the number the
    mixed-workload benchmark gates; ``epochs_mixed`` counts requests
    whose answers spanned more than one epoch (must be 0 — the epoch'd
    plane promises every batch a single consistent index), and
    ``verify`` is the mixed service's float64 shadow-check block
    (mismatches must be 0 when enabled on a float32 index).
    """

    dtype: str
    rate_qps: float
    requests: int
    queries_per_request: int
    refresh_hz: float
    refreshes_completed: int
    epochs_mixed: int
    query_only_latency: dict
    mixed_latency: dict
    verify: dict
    query_only_seconds: float
    mixed_seconds: float

    @property
    def p99_factor(self) -> float:
        """Mixed-pass p99 latency over the query-only baseline's."""
        baseline = self.query_only_latency.get("p99_ms") or 0.0
        mixed = self.mixed_latency.get("p99_ms") or 0.0
        return mixed / max(baseline, 1e-9)

    def as_dict(self) -> dict:
        """JSON-ready form (one dtype block of the mixed benchmark)."""
        payload = asdict(self)
        payload["p99_factor"] = self.p99_factor
        return payload


def _open_loop_pass(service: DiversityService, requests: list[list[Query]],
                    rate_qps: float) -> tuple[list[float], int, float]:
    """Drive *requests* at the service open-loop from a thread pool.

    Returns ``(latencies, epochs_mixed, duration_seconds)``.  Send
    instants are anchored to the wall clock (``start + i / rate_qps``)
    and never wait for responses; each latency sample is
    scheduled-send-to-answer, and a request whose answers span multiple
    epochs counts toward ``epochs_mixed``.
    """
    interval = 1.0 / rate_qps
    latencies: list[float | None] = [None] * len(requests)
    mixed_flags = [False] * len(requests)

    def _serve(i: int, queries: list[Query], scheduled: float) -> None:
        results = service.query_batch(queries)
        latencies[i] = time.perf_counter() - scheduled
        mixed_flags[i] = len({result.epoch for result in results}) > 1

    with ThreadPoolExecutor(max_workers=8) as pool:
        start = time.perf_counter()
        futures = []
        for i, queries in enumerate(requests):
            scheduled = start + i * interval
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(pool.submit(_serve, i, queries, scheduled))
        for future in futures:
            future.result()
        duration = time.perf_counter() - start
    return [s for s in latencies if s is not None], sum(mixed_flags), duration


def measure_mixed_workload(
    index,
    refresh_source,
    *,
    rate_qps: float = 50.0,
    num_requests: int = 64,
    queries_per_request: int = 2,
    refresh_hz: float = 2.0,
    matrix_budget_mb: int | None = None,
    verify_dtype: bool | None = None,
    seed: int | None = 0,
) -> MixedWorkloadReport:
    """Query p99 under concurrent ingest vs a query-only baseline.

    *refresh_source* is a callable ``(ingest_round) -> PointSet``
    supplying each refresh's new points (deterministic per round, so
    both dtype runs of the benchmark ingest identical data).  The
    query-only pass and the mixed pass each get a fresh
    :class:`DiversityService` over *index* so neither inherits the
    other's caches; the mixed pass runs a refresher thread calling
    :meth:`~DiversityService.refresh` every ``1 / refresh_hz`` seconds
    until the open loop drains.  *verify_dtype* forwards to the mixed
    service (enable it on float32 indexes to shadow-check sampled
    solves against float64 while ingest churns epochs).
    """
    check_positive_int(num_requests, "num_requests")
    check_positive_int(queries_per_request, "queries_per_request")
    k_max = int(index.ladder.get("k_max", 4))
    workload = make_workload(k_max, num_requests * queries_per_request,
                             seed=seed)
    requests = [workload[i * queries_per_request:
                         (i + 1) * queries_per_request]
                for i in range(num_requests)]

    with DiversityService(index, cache_size=max(128, len(workload)),
                          matrix_budget_mb=matrix_budget_mb,
                          executor="thread") as baseline:
        only_latencies, only_mixed, only_seconds = _open_loop_pass(
            baseline, requests, rate_qps)

    mixed_service = DiversityService(
        index, cache_size=max(128, len(workload)),
        matrix_budget_mb=matrix_budget_mb, executor="thread",
        verify_dtype=verify_dtype)
    stop = threading.Event()
    refreshed = [0]

    def _refresher() -> None:
        while not stop.wait(1.0 / refresh_hz):
            mixed_service.refresh(refresh_source(refreshed[0]))
            refreshed[0] += 1

    refresher = threading.Thread(target=_refresher, daemon=True)
    try:
        refresher.start()
        mixed_latencies, mixed_count, mixed_seconds = _open_loop_pass(
            mixed_service, requests, rate_qps)
    finally:
        stop.set()
        refresher.join()
    verify = mixed_service.stats()["verify"]
    mixed_service.close()

    return MixedWorkloadReport(
        dtype=index.dtype,
        rate_qps=rate_qps,
        requests=num_requests,
        queries_per_request=queries_per_request,
        refresh_hz=refresh_hz,
        refreshes_completed=refreshed[0],
        epochs_mixed=only_mixed + mixed_count,
        query_only_latency=latency_summary(only_latencies),
        mixed_latency=latency_summary(mixed_latencies),
        verify=verify,
        query_only_seconds=only_seconds,
        mixed_seconds=mixed_seconds,
    )


def measure_serve_latency(index, *, num_requests: int = 64,
                          queries_per_request: int = 1,
                          rate_qps: float = 100.0,
                          max_queue: int = 256,
                          seed: int | None = 0,
                          verify: bool = True) -> ServeLatencyReport:
    """End-to-end serve latency: daemon + open-loop client, one call.

    Starts a :class:`~repro.service.server.DiversityServer` over *index*
    on an ephemeral localhost port, drives it with
    :func:`open_loop_load` at *rate_qps*, then sends one
    :func:`pipelined_burst` of ``2 * max_batch`` more requests (the
    backlog the daemon must coalesce), drains the server, and folds
    the client samples and the daemon's final ``server`` stats block
    into a :class:`ServeLatencyReport`.  With *verify* (the default)
    every answer is compared against an in-process
    ``DiversityService.query_batch`` on the same index — daemon answers
    must be bit-identical.  ``bench_serve_latency.py`` is a thin wrapper
    over this.
    """
    check_positive_int(num_requests, "num_requests")
    check_positive_int(queries_per_request, "queries_per_request")
    config = ServerConfig(max_queue=max_queue)
    burst = 2 * config.max_batch
    total = num_requests + burst
    k_max = int(index.ladder.get("k_max", 4))
    workload = make_workload(k_max, total * queries_per_request, seed=seed)
    requests = [workload[i * queries_per_request:
                         (i + 1) * queries_per_request]
                for i in range(total)]
    expected = None
    if verify:
        with DiversityService(index,
                              cache_size=max(128, len(workload))) as oracle:
            answers = oracle.query_batch(workload)
        expected = {
            i: [(result.value, tuple(result.indices))
                for result in answers[i * queries_per_request:
                                      (i + 1) * queries_per_request]]
            for i in range(total)}

    async def run() -> tuple[dict, dict, dict]:
        """Start the daemon, run the open loop and the burst, drain."""
        service = DiversityService(index, cache_size=max(128, len(workload)))
        server = DiversityServer(service, config)
        host, port = await server.start()
        try:
            outcome = await open_loop_load(
                host, port, requests[:num_requests], rate_qps, expected)
            burst_counts = await pipelined_burst(
                host, port, {i: requests[i]
                             for i in range(num_requests, total)},
                expected)
        finally:
            await server.shutdown()
        return outcome, burst_counts, server.stats()["server"]

    outcome, burst_counts, server_stats = asyncio.run(run())
    return ServeLatencyReport(
        rate_qps=rate_qps,
        requests=total,
        burst=burst,
        queries_per_request=queries_per_request,
        answered=outcome["answered"] + burst_counts["answered"],
        rejected=outcome["rejected"] + burst_counts["rejected"],
        errors=outcome["errors"] + burst_counts["errors"],
        mismatches=outcome["mismatches"] + burst_counts["mismatches"],
        duration_seconds=outcome["duration_seconds"],
        latency=latency_summary(outcome["latencies"]),
        server=server_stats,
    )
