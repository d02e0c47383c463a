"""Multi-tenant registry under zipf-skewed load — the ``registry-smoke`` gate.

The :class:`~repro.service.IndexRegistry` promises that serving many
datasets under one shared matrix budget costs only tiering (faults and
evictions at the cold tail), never correctness or unbounded memory.
This benchmark registers ``REPRO_REGISTRY_TENANTS`` tenants (default 8)
under a matrix budget sized for only
``recommend_registry_budget_mb(..., hot_tenants=2)`` of them, drives an
open-loop query schedule whose tenant choices follow a zipf law (a few
hot tenants, a long cold tail), and compares the observed tail against a
single-tenant always-hot baseline registry driven at the same rate.

Gates (the acceptance criteria of the registry PR):

* zero mismatches — every answer from the tiered multi-tenant registry
  is bit-identical to a per-tenant :class:`DiversityService` oracle;
* global resident matrix bytes (the shared in-process cache), sampled
  after every request, never exceed the 2-hot-tenant budget even with 8
  tenants registered;
* tiering demonstrably ran: faults and evictions are non-zero and the
  resident count respects ``max_resident``;
* ``build_calls == 0`` on every tenant — the query path never rebuilds
  a core-set;
* on runners with >= ``GATED_CPUS`` schedulable cpus, the skewed
  multi-tenant p99 stays within ``REPRO_REGISTRY_P99_FACTOR`` (default
  25x) of the single-tenant hot p99.  Single-core machines record the
  percentiles without the factor gate.

A second experiment (:func:`test_registry_qos_hot_flood`, the CI
``qos-smoke`` step) gates the tenant-QoS layer: a hot tenant drives a
pipelined retry storm against its own small queue while a cold tenant
trickles at a fixed rate, once through the classic shared FIFO and once
under ``--qos`` weighted deficit-round-robin.  Gates: answered cold
requests bit-identical to the in-process oracle in every configuration;
under WDRR zero cold rejections with every rejection attributed to the
hot tenant; and (>= ``GATED_CPUS`` cpus) the flooded cold p99 within
``REPRO_QOS_COLD_P99_FACTOR`` (default 20x) of the unloaded cold p99.

Machine-readable results land in
``benchmarks/results/BENCH_registry.json`` and
``benchmarks/results/BENCH_registry_qos.json`` for the CI artifacts.
Knobs: ``REPRO_REGISTRY_TENANTS`` (default 8), ``REPRO_REGISTRY_N``
points per tenant (default 1500), ``REPRO_REGISTRY_REQUESTS`` (default
240), ``REPRO_REGISTRY_QPS`` offered rate (default 120),
``REPRO_REGISTRY_MAX_RESIDENT`` (default 3), ``REPRO_REGISTRY_ZIPF_S``
skew exponent (default 1.5); for the QoS block ``REPRO_QOS_N`` (default 1200),
``REPRO_QOS_COLD_REQUESTS`` (default 40), ``REPRO_QOS_COLD_QPS``
(default 50) and ``REPRO_QOS_FLOOD_WAVE`` (default 32).
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np

from common import emit, emit_json, run_once
from repro.datasets.synthetic import sphere_shell
from repro.experiments.report import format_table
from repro.service import (
    DiversityServer,
    DiversityService,
    IndexRegistry,
    ServerConfig,
    TenantQuota,
    build_coreset_index,
    protocol,
)
from repro.service.workload import latency_summary, make_workload
from repro.tuning import recommend_registry_budget_mb

K_MAX = 6
HOT_TENANTS = 2
QUERIES_PER_TENANT = 6
GATED_CPUS = 4


def _available_cpus() -> int:
    """CPUs this process may actually schedule on (cgroup-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _result_key(result) -> tuple:
    return (result.value, tuple(result.indices), result.rung)


def _resident_bytes(registry: IndexRegistry) -> int:
    """Global matrix residency: the registry's one shared cache."""
    return registry.stats()["matrices"]["local"]["resident_bytes"]


def _drive(registry: IndexRegistry, names: list[str], queries: list,
           schedule, expected: dict, rate_qps: float,
           sample=None) -> tuple[list[float], int]:
    """Open-loop client: send times follow the schedule, not completions."""
    latencies = []
    mismatches = 0
    start = time.perf_counter()
    for step, (tenant_pick, query_pick) in enumerate(schedule):
        due = start + step / rate_qps
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        name = names[tenant_pick]
        result = registry.query_batch([queries[query_pick]], name)[0]
        latencies.append(time.perf_counter() - due)
        if _result_key(result) != expected[name][query_pick]:
            mismatches += 1
        if sample is not None:
            sample(registry)
    return latencies, mismatches


def _measure():
    tenants = int(os.environ.get("REPRO_REGISTRY_TENANTS", "8"))
    n = int(os.environ.get("REPRO_REGISTRY_N", "1500"))
    requests = int(os.environ.get("REPRO_REGISTRY_REQUESTS", "240"))
    rate_qps = float(os.environ.get("REPRO_REGISTRY_QPS", "120"))
    max_resident = int(os.environ.get("REPRO_REGISTRY_MAX_RESIDENT", "3"))
    zipf_s = float(os.environ.get("REPRO_REGISTRY_ZIPF_S", "1.5"))

    names = [f"tenant-{i:02d}" for i in range(tenants)]
    indexes = {
        name: build_coreset_index(sphere_shell(n, K_MAX, dim=3, seed=11 + i),
                                  K_MAX, parallelism=2, seed=0)
        for i, name in enumerate(names)}
    # The whole point: a budget sized for the two hottest tenants only.
    budget_mb = recommend_registry_budget_mb(
        [[len(rung.coreset) for rung in index.all_rungs()]
         for index in indexes.values()],
        hot_tenants=HOT_TENANTS)

    queries = make_workload(K_MAX, QUERIES_PER_TENANT, seed=3)
    expected = {}
    for name, index in indexes.items():
        with DiversityService(index, cache_size=32) as oracle:
            expected[name] = [_result_key(result)
                              for result in oracle.query_batch(queries)]

    # Zipf-skewed tenant choices: tenant rank r drawn with weight r^-s.
    rng = np.random.default_rng(0)
    weights = 1.0 / np.arange(1, tenants + 1, dtype=np.float64) ** zipf_s
    weights /= weights.sum()
    tenant_picks = rng.choice(tenants, size=requests, p=weights)
    query_picks = rng.integers(0, len(queries), size=requests)
    schedule = list(zip(tenant_picks.tolist(), query_picks.tolist()))

    peak = {"bytes": 0}

    def sample(registry: IndexRegistry) -> None:
        peak["bytes"] = max(peak["bytes"], _resident_bytes(registry))

    registry = IndexRegistry(matrix_budget_mb=budget_mb,
                             max_resident=max_resident)
    try:
        for name, index in indexes.items():
            registry.register(name, index)
        # Warm the hottest tenant before the clock starts (the baseline
        # primes its sole tenant the same way, keeping the comparison
        # symmetric).
        registry.query_batch([queries[0]], names[0])
        multi_latencies, multi_mismatches = _drive(
            registry, names, queries, schedule, expected, rate_qps,
            sample=sample)
        stats = registry.stats()
        build_calls = {}
        for name in names:
            with registry.attach(name) as service:
                build_calls[name] = \
                    service.stats()["counters"]["build_calls"]
    finally:
        registry.close()

    # Single-tenant hot baseline: the same rate and query picks, every
    # request aimed at one always-resident tenant.
    solo_schedule = [(0, query_pick) for _, query_pick in schedule]
    solo = IndexRegistry(matrix_budget_mb=budget_mb)
    try:
        solo.register(names[0], indexes[names[0]])
        solo.query_batch([queries[0]], names[0])
        solo_latencies, solo_mismatches = _drive(
            solo, names, queries, solo_schedule, expected, rate_qps)
    finally:
        solo.close()

    return {
        "tenants": tenants, "n": n, "requests": requests,
        "rate_qps": rate_qps, "max_resident": max_resident,
        "zipf_s": zipf_s,
        "budget_mb": budget_mb, "budget_bytes": budget_mb * 2**20,
        "peak_resident_bytes": peak["bytes"],
        "multi": latency_summary(multi_latencies),
        "multi_mismatches": multi_mismatches,
        "solo": latency_summary(solo_latencies),
        "solo_mismatches": solo_mismatches,
        "build_calls": build_calls,
        "tenant_stats": stats["tenants"],
        "matrices": stats["matrices"],
    }


def test_registry_tiering(benchmark):
    report = run_once(benchmark, _measure)
    tenant_stats = report["tenant_stats"]
    multi, solo = report["multi"], report["solo"]
    emit("registry", format_table(
        ["metric", "value"],
        [["tenants (budget sized for)",
          f"{report['tenants']} ({HOT_TENANTS} hot)"],
         ["matrix budget", f"{report['budget_mb']} MiB"],
         ["peak resident matrices",
          f"{report['peak_resident_bytes']} B"],
         ["offered rate", f"{report['rate_qps']:.0f} req/s"],
         ["requests (zipf s={})".format(report["zipf_s"]),
          str(report["requests"])],
         ["mismatches (multi / solo)",
          f"{report['multi_mismatches']} / {report['solo_mismatches']}"],
         ["faults / evictions",
          f"{tenant_stats['faults']} / {tenant_stats['evictions']}"],
         ["resident / max_resident",
          f"{tenant_stats['resident']} / {tenant_stats['max_resident']}"],
         ["multi-tenant p50 / p99",
          f"{multi['p50_ms']:.2f} / {multi['p99_ms']:.2f} ms"],
         ["single-tenant p50 / p99",
          f"{solo['p50_ms']:.2f} / {solo['p99_ms']:.2f} ms"]],
        title=f"Multi-tenant registry, zipf-skewed open loop "
              f"(n={report['n']}, k_max={K_MAX}, "
              f"{_available_cpus()} cpu)",
    ))
    emit_json("registry", {
        "k_max": K_MAX,
        "hot_tenants": HOT_TENANTS,
        "cpu_count": _available_cpus(),
        **report,
    })
    # Gate 1 (acceptance): tiering never changes answers — bit-identical
    # to the per-tenant single-index oracles, in both runs.
    assert report["multi_mismatches"] == 0, (
        f"{report['multi_mismatches']} multi-tenant answers differed "
        f"from the single-tenant oracle")
    assert report["solo_mismatches"] == 0
    # Gate 2 (acceptance): 8 tenants, a budget sized for 2 — the global
    # matrix cache never exceeds it.
    assert report["peak_resident_bytes"] <= report["budget_bytes"], (
        f"resident matrices peaked at {report['peak_resident_bytes']} B, "
        f"over the {report['budget_bytes']} B budget")
    # Gate 3: tiering demonstrably ran and respected max_resident.
    assert tenant_stats["faults"] > 0, "no tenant ever faulted in"
    assert tenant_stats["evictions"] > 0, "no tenant was ever evicted"
    assert tenant_stats["resident"] <= report["max_resident"]
    # Gate 4 (acceptance): the query path never rebuilds a core-set.
    assert set(report["build_calls"].values()) == {0}, report["build_calls"]
    # Gate 5 (multi-core only): the skewed tail stays within a bounded
    # factor of the always-hot baseline.  Faults (load .npz, rebuild the
    # service, recompute matrices) dominate the cold tail, so the factor
    # is generous; single-core runners record without gating.
    factor = float(os.environ.get("REPRO_REGISTRY_P99_FACTOR", "25"))
    if _available_cpus() >= GATED_CPUS:
        assert multi["p99_ms"] <= factor * solo["p99_ms"], (
            f"multi-tenant p99 {multi['p99_ms']:.1f}ms over "
            f"{factor:.0f}x the single-tenant hot p99 "
            f"{solo['p99_ms']:.2f}ms ({_available_cpus()} cpus)")


# ------------------------------------------------------------ tenant QoS


def _qos_drive(hot_index, cold_index, queries, hot_queries, expected, *,
               qos: bool, with_flood: bool, cold_qps: float,
               cold_requests: int, wave: int) -> dict:
    """One daemon run: optional hot retry-storm + a paced cold trickle.

    The flood client pipelines waves of hot requests for as long as the
    cold client is still running (rejected requests are immediately
    re-offered — a retry storm), so the hot backlog stays saturated for
    the whole cold window.  Returns cold latencies/mismatches, flood
    counters and the daemon's own stats snapshot.
    """

    async def run():
        registry = IndexRegistry()
        registry.register("hot", hot_index,
                          quota=TenantQuota(weight=1.0, max_queue=16))
        registry.register("cold", cold_index)
        server = DiversityServer(registry, ServerConfig(
            qos=qos, max_batch=8, max_queue=16))
        host, port = await server.start()
        cold_done = asyncio.Event()
        try:
            async def flood_client():
                reader, writer = await asyncio.open_connection(host, port)
                answered = rejected = sent = 0
                while not cold_done.is_set():
                    for _ in range(wave):
                        writer.write(protocol.encode_request(
                            "query", sent,
                            queries=[hot_queries[sent % len(hot_queries)]],
                            dataset="hot").encode())
                        sent += 1
                    await writer.drain()
                    for _ in range(wave):
                        response = protocol.decode_response(
                            await reader.readline())
                        if response["ok"]:
                            answered += 1
                        else:
                            rejected += 1
                writer.close()
                await writer.wait_closed()
                return {"sent": sent, "answered": answered,
                        "rejected": rejected}

            async def cold_client():
                reader, writer = await asyncio.open_connection(host, port)
                loop = asyncio.get_running_loop()
                latencies, mismatches, rejected = [], 0, 0
                start = loop.time()
                for i in range(cold_requests):
                    due = start + i / cold_qps
                    await asyncio.sleep(max(0.0, due - loop.time()))
                    query_pick = i % len(queries)
                    writer.write(protocol.encode_request(
                        "query", i, queries=[queries[query_pick]],
                        dataset="cold").encode())
                    await writer.drain()
                    response = protocol.decode_response(
                        await reader.readline())
                    latencies.append(loop.time() - due)
                    if not response["ok"]:
                        rejected += 1
                    elif _result_key(protocol.results_of(response)[0]) != \
                            expected[query_pick]:
                        mismatches += 1
                writer.close()
                await writer.wait_closed()
                cold_done.set()
                return latencies, mismatches, rejected

            if with_flood:
                flood_task = asyncio.create_task(flood_client())
            latencies, mismatches, cold_rejected = await cold_client()
            flood = await flood_task if with_flood else \
                {"sent": 0, "answered": 0, "rejected": 0}
            stats = server.stats()["server"]
        finally:
            await server.shutdown()
        return {
            "qos": qos, "with_flood": with_flood,
            "cold": latency_summary(latencies),
            "cold_mismatches": mismatches,
            "cold_rejected": cold_rejected,
            "flood": flood,
            "rejected_datasets": stats["rejected_datasets"],
            "scheduler": stats["qos"],
        }

    return asyncio.run(run())


def _qos_measure():
    n = int(os.environ.get("REPRO_QOS_N", "1200"))
    cold_requests = int(os.environ.get("REPRO_QOS_COLD_REQUESTS", "40"))
    cold_qps = float(os.environ.get("REPRO_QOS_COLD_QPS", "50"))
    wave = int(os.environ.get("REPRO_QOS_FLOOD_WAVE", "32"))

    hot_index = build_coreset_index(sphere_shell(n, K_MAX, dim=3, seed=21),
                                    K_MAX, parallelism=2, seed=0)
    cold_index = build_coreset_index(sphere_shell(n, K_MAX, dim=3, seed=22),
                                     K_MAX, parallelism=2, seed=0)
    queries = make_workload(K_MAX, QUERIES_PER_TENANT, seed=5)
    # A wide hot workload defeats the result cache so the flood keeps
    # the daemon genuinely busy rather than replaying memoized answers.
    hot_queries = make_workload(K_MAX, 48, seed=7)
    with DiversityService(cold_index, cache_size=64) as oracle:
        expected = [_result_key(result)
                    for result in oracle.query_batch(queries)]

    kwargs = dict(cold_qps=cold_qps, cold_requests=cold_requests, wave=wave)
    unloaded = _qos_drive(hot_index, cold_index, queries, hot_queries,
                          expected, qos=True, with_flood=False, **kwargs)
    fifo = _qos_drive(hot_index, cold_index, queries, hot_queries,
                      expected, qos=False, with_flood=True, **kwargs)
    wdrr = _qos_drive(hot_index, cold_index, queries, hot_queries,
                      expected, qos=True, with_flood=True, **kwargs)
    return {
        "n": n, "cold_requests": cold_requests, "cold_qps": cold_qps,
        "flood_wave": wave,
        "unloaded": unloaded, "fifo": fifo, "wdrr": wdrr,
    }


def test_registry_qos_hot_flood(benchmark):
    report = run_once(benchmark, _qos_measure)
    unloaded, fifo, wdrr = \
        report["unloaded"], report["fifo"], report["wdrr"]

    def row(label, run):
        cold = run["cold"]
        return [label,
                f"{cold['p50_ms']:.2f} / {cold['p99_ms']:.2f} ms",
                str(run["cold_rejected"]),
                str(run["flood"]["rejected"])]

    emit("registry_qos", format_table(
        ["configuration", "cold p50 / p99", "cold rejected",
         "hot rejected"],
        [row("unloaded (no flood)", unloaded),
         row("flood, shared FIFO", fifo),
         row("flood, WDRR QoS", wdrr)],
        title=f"Hot-tenant retry storm vs cold trickle "
              f"(n={report['n']}, k_max={K_MAX}, "
              f"cold {report['cold_qps']:.0f} qps, "
              f"{_available_cpus()} cpu)",
    ))
    emit_json("registry_qos", {
        "k_max": K_MAX,
        "cpu_count": _available_cpus(),
        **report,
    })
    # Gate 1 (acceptance): QoS never changes answers — every answered
    # cold request is bit-identical to the in-process oracle, in every
    # configuration.
    for run in (unloaded, fifo, wdrr):
        assert run["cold_mismatches"] == 0, run
    # Gate 2 (acceptance): under WDRR the flooded hot tenant cannot
    # starve the under-quota cold tenant — zero cold rejections, and
    # every rejection the daemon did issue is attributed to ``hot``.
    assert wdrr["cold_rejected"] == 0, (
        f"{wdrr['cold_rejected']} cold requests rejected under QoS")
    assert set(wdrr["rejected_datasets"]) <= {"hot"}
    assert wdrr["flood"]["rejected"] > 0, \
        "flood never saturated the hot tenant's queue"
    # Gate 3: the scheduler block is live — per-tenant percentiles were
    # recorded for both tenants.
    scheduler = wdrr["scheduler"]
    assert scheduler["per_tenant"]["cold"]["latency"]["count"] == \
        report["cold_requests"]
    assert scheduler["per_tenant"]["cold"]["rejected"] == 0
    # Gate 4 (multi-core only): the cold tenant's p99 under a hot flood
    # stays within a bounded factor of its unloaded p99.  Dispatch still
    # shares one executor, so the factor is generous; slower runners
    # record the percentiles without the gate.
    factor = float(os.environ.get("REPRO_QOS_COLD_P99_FACTOR", "20"))
    if _available_cpus() >= GATED_CPUS:
        assert wdrr["cold"]["p99_ms"] <= \
            factor * max(unloaded["cold"]["p99_ms"], 1.0), (
            f"cold p99 under flood {wdrr['cold']['p99_ms']:.1f}ms over "
            f"{factor:.0f}x the unloaded cold p99 "
            f"{unloaded['cold']['p99_ms']:.2f}ms "
            f"({_available_cpus()} cpus)")
