"""Lifecycle tests for the ``repro serve`` daemon.

Each test drives a real :class:`~repro.service.server.DiversityServer`
over loopback TCP inside ``asyncio.run`` (no pytest-asyncio in the
toolchain).  Covered contracts:

* daemon answers — NDJSON and HTTP — are bit-identical to in-process
  ``query_batch`` on the same index;
* micro-batching forms batches from the backlog: pipelined requests
  coalesce (and the batched-request counter proves it), a lone request
  dispatches alone without waiting for company, and a backlog behind a
  running batch splits into batches of at most ``max_batch``;
* a full admission queue rejects cleanly with ``overloaded`` +
  ``retry_after_ms`` while every admitted request is still answered;
* graceful drain answers everything admitted, exactly once, and a
  SIGTERM'd CLI daemon exits 0 the same way;
* a mid-load ``refresh`` swaps epochs without ever mixing epochs inside
  one response;
* registry mode — ``dataset`` envelopes route to the named tenant,
  unknown tenants map to ``unknown_dataset`` (HTTP 404), ``tenants`` /
  ``GET /tenants`` serve the registry counters, refreshes land on one
  tenant only, and single-index daemons reject tenant routing;
* dispatch groups a coalesced batch by dataset alone — one
  ``query_batch`` call per dataset, whatever its queries' objectives,
  k or rungs;
* a wire ``k`` that is not a positive int is refused at decode with
  ``bad_request`` (HTTP 400), and the valid requests batched beside it
  are still answered;
* wire input past the limits gets one error reply, never a crashed
  connection handler: requests up to ``_MAX_LINE`` are served, a longer
  line gets ``bad_request`` (HTTP 400) and a close, and a
  ``Content-Length`` that is not a non-negative integer gets HTTP 400.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.cli import build_parser
from repro.datasets.loaders import save_points
from repro.metricspace.points import PointSet
from repro.service import (
    DiversityServer,
    DiversityService,
    IndexRegistry,
    Query,
    ServerConfig,
    TenantQuota,
    build_coreset_index,
    make_workload,
)
from repro.service import protocol
from repro.service.server import _MAX_LINE, _Work


@pytest.fixture(scope="module")
def index():
    rng = np.random.default_rng(11)
    points = PointSet(rng.normal(size=(150, 3)))
    return build_coreset_index(points, 5, seed=0)


def fresh_server(index, **config) -> DiversityServer:
    service = DiversityService(index, cache_size=256)
    return DiversityServer(service, ServerConfig(**config))


async def send_lines(host, port, lines):
    """Open one connection, pipeline *lines*, return decoded responses."""
    reader, writer = await asyncio.open_connection(host, port)
    for line in lines:
        writer.write(line.encode())
    await writer.drain()
    responses = []
    for _ in range(len(lines)):
        responses.append(protocol.decode_response(await reader.readline()))
    writer.close()
    await writer.wait_closed()
    return responses


def result_key(result) -> tuple:
    return (result.value, tuple(result.indices), result.rung)


def test_tcp_answers_bit_identical_to_in_process(index):
    workload = make_workload(5, 12, seed=3)
    with DiversityService(index, cache_size=256) as oracle:
        expected = [result_key(r) for r in oracle.query_batch(workload)]

    async def run():
        server = fresh_server(index)
        host, port = await server.start()
        try:
            lines = [protocol.encode_request("query", i, queries=[query])
                     for i, query in enumerate(workload)]
            responses = await send_lines(host, port, lines)
        finally:
            await server.shutdown()
        return responses, server.stats()

    responses, stats = asyncio.run(run())
    by_id = {response["id"]: response for response in responses}
    assert all(by_id[i]["ok"] for i in range(len(workload)))
    got = [result_key(protocol.results_of(by_id[i])[0])
           for i in range(len(workload))]
    assert got == expected
    # The pipelined burst queued behind its first request and was
    # coalesced from that backlog.
    assert stats["server"]["batched_requests"] > 0
    assert stats["server"]["batches_dispatched"] < len(workload)
    assert stats["server"]["accepted"] == len(workload)
    assert stats["server"]["internal_errors"] == 0
    # The latency block sampled every request.
    assert stats["server"]["latency"]["count"] == len(workload)
    assert stats["server"]["latency"]["p50_ms"] <= \
        stats["server"]["latency"]["p99_ms"]


def test_http_adapter_matches_in_process(index):
    query = Query("remote-clique", 4, 1.0)
    with DiversityService(index, cache_size=16) as oracle:
        expected = result_key(oracle.query_batch([query])[0])

    async def http(host, port, method, target, body=b""):
        reader, writer = await asyncio.open_connection(host, port)
        head = (f"{method} {target} HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        writer.write(head + body)
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        status = int(raw.split(b" ", 2)[1])
        return status, json.loads(raw.split(b"\r\n\r\n", 1)[1])

    async def run():
        server = fresh_server(index)
        host, port = await server.start()
        try:
            answered = await http(
                host, port, "POST", "/query",
                json.dumps({"queries": [query.to_dict()]}).encode())
            health = await http(host, port, "GET", "/healthz")
            stats = await http(host, port, "GET", "/stats")
            missing = await http(host, port, "GET", "/nope")
            wrong_verb = await http(host, port, "GET", "/query")
            bad_body = await http(host, port, "POST", "/query", b"{oops")
        finally:
            await server.shutdown()
        return answered, health, stats, missing, wrong_verb, bad_body

    answered, health, stats, missing, wrong_verb, bad_body = asyncio.run(run())
    assert answered[0] == 200
    assert result_key(protocol.results_of(answered[1])[0]) == expected
    assert health == (200, {"status": "ok", "draining": False})
    assert stats[0] == 200
    assert stats[1]["schema_version"] == protocol.SCHEMA_VERSION
    assert stats[1]["server"]["http_requests"] >= 2
    assert missing[0] == 404
    assert wrong_verb[0] == 405
    assert bad_body[0] == 400


def test_full_queue_rejects_cleanly_with_retry_after(index):
    # A burst in one segment: every request line is admitted before the
    # collector runs, so the tiny queue must overflow.
    async def run():
        server = fresh_server(index, max_queue=2, max_batch=2,
                              retry_after_ms=25.0)
        host, port = await server.start()
        try:
            lines = [protocol.encode_request(
                "query", i, queries=[Query("remote-edge", 3, 1.0)])
                for i in range(12)]
            responses = await send_lines(host, port, lines)
        finally:
            await server.shutdown()
        return responses, server.stats()["server"]

    responses, stats = asyncio.run(run())
    accepted = [r for r in responses if r["ok"]]
    rejected = [r for r in responses if not r["ok"]]
    assert rejected, "queue of 2 must overflow under a burst of 12"
    assert len(accepted) + len(rejected) == 12
    assert len(accepted) == stats["accepted"]
    for response in rejected:
        assert response["error"]["code"] == "overloaded"
        assert response["error"]["retry_after_ms"] == 25.0
    # Every accepted request was answered (none dropped on shutdown).
    assert all(r["results"] for r in accepted)
    assert stats["rejected_overload"] == len(rejected)
    assert stats["internal_errors"] == 0
    client = next(iter(stats["clients"].values()))
    assert client["accepted"] == len(accepted)
    assert client["rejected"] == len(rejected)


def gate_first_batch(server):
    """Make *server*'s first ``query_batch`` hold the query slot.

    Returns ``(entered, release)``: *entered* is set once the first
    batch runs, and that batch blocks until *release* is set.  Only the
    query-slot thread calls ``query_batch``, so the flag needs no lock.
    """
    entered, release = threading.Event(), threading.Event()
    query_batch = server.service.query_batch

    def gated(queries):
        if not entered.is_set():
            entered.set()
            release.wait(timeout=30)
        return query_batch(queries)

    server.service.query_batch = gated
    return entered, release


async def wait_until(condition, timeout=10.0):
    """Poll *condition* on the event loop until it holds."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, \
            "condition never held"
        await asyncio.sleep(0.001)


def query_line(request_id, k=3):
    return protocol.encode_request(
        "query", request_id, queries=[Query("remote-edge", k, 1.0)])


def test_drain_answers_admitted_work_and_rejects_new(index):
    async def run():
        server = fresh_server(index, max_queue=32)
        entered, release = gate_first_batch(server)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(query_line(0).encode())
            await writer.drain()
            await wait_until(entered.is_set)
            for i in range(1, 6):
                writer.write(query_line(i, 2 + i % 3).encode())
            await writer.drain()
            await wait_until(lambda: server.stats_counters.accepted == 6)
            # Drain begins while one batch holds the query slot and five
            # admitted requests wait behind it.
            shutdown = asyncio.ensure_future(server.shutdown())
            await wait_until(lambda: server._draining)
            release.set()
            responses = [protocol.decode_response(await reader.readline())
                         for _ in range(6)]
            await shutdown
            trailing = await reader.read()
        finally:
            release.set()
            writer.close()
            await writer.wait_closed()

        # The drained server accepts no new connections.
        with pytest.raises(OSError):
            await asyncio.open_connection(host, port)
        return responses, trailing, server.stats()["server"]

    responses, trailing, stats = asyncio.run(run())
    assert [r["id"] for r in responses] == sorted(r["id"] for r in responses)
    assert all(r["ok"] for r in responses), \
        "everything admitted before drain must be answered"
    assert {r["id"] for r in responses} == set(range(6))  # no drops/dupes
    assert trailing == b"", "nothing may be answered twice"
    assert stats["accepted"] == 6 and stats["queries_served"] == 6
    # The five queued behind the held batch went out as one.
    assert stats["batches_dispatched"] == 2


def test_lone_request_is_not_held_for_company(index):
    # Sequential requests never queue behind one another, so each one
    # dispatches alone and at once: no timer waits for company.
    async def run():
        server = fresh_server(index)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for i in range(10):
                writer.write(query_line(i).encode())
                await writer.drain()
                assert protocol.decode_response(await reader.readline())["ok"]
        finally:
            writer.close()
            await writer.wait_closed()
            await server.shutdown()
        return server.stats()["server"]

    stats = asyncio.run(run())
    assert stats["batches_dispatched"] == 10
    assert stats["batched_requests"] == 0
    assert stats["latency"]["count"] == 10
    assert stats["latency"]["p50_ms"] < 5.0, stats["latency"]


def test_backlog_forms_the_next_batch(index):
    max_batch = ServerConfig().max_batch
    workload = [Query("remote-edge", 2 + i % 4, 1.0)
                for i in range(max_batch + 3)]
    with DiversityService(index, cache_size=256) as oracle:
        expected = [result_key(r) for r in oracle.query_batch(workload)]

    async def run():
        server = fresh_server(index)
        entered, release = gate_first_batch(server)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        lines = [protocol.encode_request("query", i, queries=[query])
                 for i, query in enumerate(workload)]
        try:
            writer.write(lines[0].encode())
            await writer.drain()
            await wait_until(entered.is_set)
            for line in lines[1:]:
                writer.write(line.encode())
            await writer.drain()
            await wait_until(
                lambda: server.stats_counters.accepted == len(lines))
            release.set()
            responses = [protocol.decode_response(await reader.readline())
                         for _ in lines]
        finally:
            release.set()
            writer.close()
            await writer.wait_closed()
            await server.shutdown()
        return responses, server.stats()["server"]

    responses, stats = asyncio.run(run())
    by_id = {r["id"]: r for r in responses}
    assert [result_key(protocol.results_of(by_id[i])[0])
            for i in range(len(workload))] == expected
    # A alone, then the max_batch + 2 queued behind it: a full batch of
    # max_batch and a second batch of the two left over.
    assert stats["batches_dispatched"] == 3
    assert stats["batched_requests"] == max_batch + 2


def test_draining_server_rejects_with_shutting_down(index):
    async def run():
        server = fresh_server(index)
        host, port = await server.start()
        server._draining = True  # simulate mid-drain admission attempt
        try:
            responses = await send_lines(host, port, [
                protocol.encode_request(
                    "query", 1, queries=[Query("remote-edge", 3, 1.0)]),
                protocol.encode_request("healthz", 2),
            ])
        finally:
            server._draining = False
            await server.shutdown()
        return responses

    responses = asyncio.run(run())
    by_id = {r["id"]: r for r in responses}
    assert by_id[1]["error"]["code"] == "shutting_down"
    assert by_id[2]["ok"] and by_id[2]["draining"]


def test_refresh_under_load_never_mixes_epochs(index, tmp_path):
    rng = np.random.default_rng(23)
    extra = PointSet(rng.normal(size=(60, 3)))
    data_path = tmp_path / "extra"
    save_points(extra, data_path)

    async def run():
        server = fresh_server(index, max_queue=256)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        workload = make_workload(5, 30, seed=9)
        refresh_id = "refresh"
        sent = 0
        try:
            for i, query in enumerate(workload):
                writer.write(protocol.encode_request(
                    "query", i, queries=[query, query]).encode())
                sent += 1
                if i == 8:  # refresh while queries are in flight
                    writer.write(protocol.encode_request(
                        "refresh", refresh_id, data=str(data_path)).encode())
                    sent += 1
                await writer.drain()
                await asyncio.sleep(0.001)
            responses = [protocol.decode_response(await reader.readline())
                         for _ in range(sent)]
        finally:
            writer.close()
            await writer.wait_closed()
            await server.shutdown()
        return responses

    responses = asyncio.run(run())
    refresh = next(r for r in responses if r["id"] == "refresh")
    assert refresh["ok"] and refresh["epoch"] == 1
    assert refresh["absorbed"] == 60
    epochs_seen = set()
    for response in responses:
        if response["id"] == "refresh":
            continue
        assert response["ok"], response
        epochs = {result["epoch"] for result in response["results"]}
        assert len(epochs) == 1, \
            "one response must never mix results from two epochs"
        epochs_seen |= epochs
    assert epochs_seen == {0, 1}, \
        "load spanning the swap must observe both epochs"


# -- registry (multi-tenant) mode ---------------------------------------------


@pytest.fixture(scope="module")
def tenant_indexes():
    out = {}
    for name, seed in (("eu", 31), ("us", 32)):
        rng = np.random.default_rng(seed)
        points = PointSet(rng.normal(size=(130, 3)))
        out[name] = build_coreset_index(points, 5, seed=0)
    return out


def fresh_registry_server(tenant_indexes, **config) -> DiversityServer:
    registry = IndexRegistry()
    for name, tenant_index in tenant_indexes.items():
        registry.register(name, tenant_index)
    return DiversityServer(registry, ServerConfig(**config))


async def _http(host, port, method, target, body=b""):
    reader, writer = await asyncio.open_connection(host, port)
    head = (f"{method} {target} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode()
    writer.write(head + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    status = int(raw.split(b" ", 2)[1])
    return status, json.loads(raw.split(b"\r\n\r\n", 1)[1])


def test_registry_server_routes_by_dataset(tenant_indexes):
    query = Query("remote-edge", 4, 1.0)
    expected = {}
    for name, tenant_index in tenant_indexes.items():
        with DiversityService(tenant_index, cache_size=16) as oracle:
            expected[name] = result_key(oracle.query_batch([query])[0])
    assert expected["eu"] != expected["us"], \
        "test needs tenants with distinguishable answers"

    async def run():
        server = fresh_registry_server(tenant_indexes)
        host, port = await server.start()
        try:
            lines = [protocol.encode_request("query", name, queries=[query],
                                             dataset=name)
                     for name in ("eu", "us", "eu")]
            lines.append(protocol.encode_request("tenants", "t"))
            lines.append(protocol.encode_request("query", "missing",
                                                 queries=[query],
                                                 dataset="mars"))
            responses = await send_lines(host, port, lines)
            stats = server.stats()
        finally:
            await server.shutdown()
        return responses, stats

    responses, stats = asyncio.run(run())
    by_id = {response["id"]: response for response in responses}
    for name in ("eu", "us"):
        assert by_id[name]["ok"], by_id[name]
        assert result_key(protocol.results_of(by_id[name])[0]) == \
            expected[name]
    assert by_id["missing"]["error"]["code"] == "unknown_dataset"
    assert "mars" in by_id["missing"]["error"]["message"]
    tenants = by_id["t"]["tenants"]
    assert set(tenants["per_tenant"]) == {"eu", "us"}
    # GET /stats in registry mode serves the registry stats verbatim,
    # with the server block alongside.
    assert stats["tenants"]["registered"] == 2
    assert stats["server"]["internal_errors"] == 0


def test_registry_server_http_tenants_and_404(tenant_indexes):
    query = Query("remote-clique", 4, 1.0)

    async def run():
        server = fresh_registry_server(tenant_indexes)
        host, port = await server.start()
        try:
            routed = await _http(
                host, port, "POST", "/query",
                json.dumps({"queries": [query.to_dict()],
                            "dataset": "eu"}).encode())
            unknown = await _http(
                host, port, "POST", "/query",
                json.dumps({"queries": [query.to_dict()],
                            "dataset": "mars"}).encode())
            unnamed = await _http(
                host, port, "POST", "/query",
                json.dumps({"queries": [query.to_dict()]}).encode())
            tenants = await _http(host, port, "GET", "/tenants")
        finally:
            await server.shutdown()
        return routed, unknown, unnamed, tenants

    routed, unknown, unnamed, tenants = asyncio.run(run())
    assert routed[0] == 200 and routed[1]["ok"]
    assert unknown[0] == 404
    assert unknown[1]["error"]["code"] == "unknown_dataset"
    # Two tenants and no 'dataset' field: the request must name one.
    assert unnamed[0] == 400
    assert tenants[0] == 200
    assert set(tenants[1]["per_tenant"]) == {"eu", "us"}
    assert tenants[1]["registered"] == 2


def test_registry_server_refresh_targets_one_tenant(tenant_indexes,
                                                    tmp_path):
    extra = PointSet(np.random.default_rng(77).normal(size=(50, 3)))
    data_path = tmp_path / "extra"
    save_points(extra, data_path)
    query = Query("remote-edge", 4, 1.0)

    async def run():
        server = fresh_registry_server(tenant_indexes)
        host, port = await server.start()
        try:
            first = await send_lines(host, port, [protocol.encode_request(
                "refresh", "r", data=str(data_path), dataset="eu")])
            after = await send_lines(host, port, [
                protocol.encode_request("query", name, queries=[query],
                                        dataset=name)
                for name in ("eu", "us")])
        finally:
            await server.shutdown()
        return first + after

    by_id = {r["id"]: r for r in asyncio.run(run())}
    refresh = by_id["r"]
    assert refresh["ok"] and refresh["dataset"] == "eu"
    assert refresh["epoch"] == 1 and refresh["absorbed"] == 50
    assert by_id["eu"]["results"][0]["epoch"] == 1
    assert by_id["us"]["results"][0]["epoch"] == 0


def test_qos_hot_flood_never_starves_cold_tenant(tenant_indexes):
    """Starvation regression: a hot tenant saturating its queue must not
    delay or reject an under-quota cold tenant, and QoS reordering must
    keep answers bit-identical to the in-process service."""
    cold_query = Query("remote-edge", 4, 1.0)
    with DiversityService(tenant_indexes["eu"], cache_size=16) as oracle:
        expected = result_key(oracle.query_batch([cold_query])[0])

    async def run():
        registry = IndexRegistry()
        # Hot tenant: tiny queue so the flood overruns it; cold tenant
        # keeps default quota.
        registry.register("us", tenant_indexes["us"],
                          quota=TenantQuota(weight=1.0, max_queue=2))
        registry.register("eu", tenant_indexes["eu"])
        server = DiversityServer(registry, ServerConfig(
            qos=True, max_batch=4))
        host, port = await server.start()
        try:
            async def flood():
                reader, writer = await asyncio.open_connection(host, port)
                for i in range(120):
                    # Vary k to defeat the result cache and keep the
                    # hot backlog genuinely saturated.
                    writer.write(protocol.encode_request(
                        "query", f"hot-{i}",
                        queries=[Query("remote-edge", 2 + i % 4, 1.0)],
                        dataset="us").encode())
                await writer.drain()
                responses = []
                for _ in range(120):
                    responses.append(
                        protocol.decode_response(await reader.readline()))
                writer.close()
                await writer.wait_closed()
                return responses

            async def trickle():
                responses = []
                for i in range(8):
                    responses += await send_lines(host, port, [
                        protocol.encode_request(
                            "query", f"cold-{i}", queries=[cold_query],
                            dataset="eu")])
                return responses

            hot_task = asyncio.create_task(flood())
            cold = await trickle()
            hot = await hot_task
            stats = server.stats()
        finally:
            await server.shutdown()
        return hot, cold, stats

    hot, cold, stats = asyncio.run(run())
    # Every cold request was answered — zero rejections, bit-identical.
    assert len(cold) == 8
    for response in cold:
        assert response["ok"], response
        assert result_key(protocol.results_of(response)[0]) == expected
    # The flood overran the hot tenant's 2-deep queue: rejections are
    # per-tenant and carry the dataset plus a tenant-specific hint.
    rejected = [r for r in hot if not r["ok"]]
    assert rejected, "flood never saturated the hot queue"
    for response in rejected:
        assert response["error"]["code"] == "overloaded"
        assert response["error"]["dataset"] == "us"
        assert response["error"]["retry_after_ms"] > 0
    qos = stats["server"]["qos"]
    assert qos["per_tenant"]["eu"]["rejected"] == 0
    assert qos["per_tenant"]["eu"]["dispatched"] == 8
    assert qos["per_tenant"]["us"]["rejected"] == len(rejected)
    assert stats["server"]["rejected_datasets"] == {"us": len(rejected)}
    assert qos["per_tenant"]["eu"]["latency"]["count"] == 8


def test_single_index_server_rejects_tenant_routing(index):
    async def run():
        server = fresh_server(index)
        host, port = await server.start()
        try:
            responses = await send_lines(host, port, [
                protocol.encode_request(
                    "query", 1, queries=[Query("remote-edge", 3, 1.0)],
                    dataset="eu"),
                protocol.encode_request("tenants", 2),
            ])
            missing = await _http(host, port, "GET", "/tenants")
        finally:
            await server.shutdown()
        return responses, missing

    responses, missing = asyncio.run(run())
    by_id = {r["id"]: r for r in responses}
    assert by_id[1]["error"]["code"] == "bad_request"
    assert "--registry" in by_id[1]["error"]["message"]
    assert by_id[2]["error"]["code"] == "bad_request"
    assert missing[0] == 404  # no /tenants route on a single-index daemon


@pytest.mark.parametrize("k", [4.7, True, 0],
                         ids=["fractional", "bool", "zero"])
def test_bad_wire_k_is_rejected_without_failing_its_batch(index, k):
    # 4.7 must not be answered as k=4, nor true as k=1; and a zero k
    # must not fail the valid requests coalesced into its batch.
    query = Query("remote-edge", 4, 1.0)
    with DiversityService(index, cache_size=16) as oracle:
        expected = result_key(oracle.query_batch([query])[0])
    bad = {"queries": [{"objective": "remote-edge", "k": k}]}

    async def run():
        server = fresh_server(index)
        host, port = await server.start()
        try:
            responses = await send_lines(host, port, [
                protocol.encode_request("query", 0, queries=[query]),
                json.dumps({"kind": "query", "id": 1, **bad}) + "\n",
                protocol.encode_request("query", 2, queries=[query])])
            http = await _http(host, port, "POST", "/query",
                               json.dumps(bad).encode())
        finally:
            await server.shutdown()
        return responses, http, server.stats()["server"]

    responses, http, stats = asyncio.run(run())
    by_id = {r["id"]: r for r in responses}
    # Refused at decode, before the request id is read.
    assert by_id[None]["error"]["code"] == "bad_request"
    for request_id in (0, 2):
        assert by_id[request_id]["ok"]
        assert result_key(protocol.results_of(by_id[request_id])[0]) \
            == expected
    assert http[0] == 400
    assert http[1]["error"]["code"] == "bad_request"
    assert stats["accepted"] == 2
    assert stats["bad_requests"] == 2
    assert stats["internal_errors"] == 0


def run_reporting_loop_errors(main):
    """``asyncio.run(main())`` plus every error the event loop reported.

    A connection handler that lets an exception escape shows up here
    ("Unhandled exception in client_connected_cb") instead of as a reply.
    """
    errors = []

    async def wrapped():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context["message"]))
        return await main()

    return asyncio.run(wrapped()), errors


async def read_until_closed(reader) -> bytes:
    """Everything the server sends before it closes the connection."""
    chunks = []
    try:
        while chunk := await reader.read(1 << 16):
            chunks.append(chunk)
    except ConnectionResetError:  # our unread excess made the close a reset
        pass
    return b"".join(chunks)


def test_request_longer_than_stream_default_limit_is_answered(index):
    queries = make_workload(5, 1000, seed=4)
    line = protocol.encode_request("query", 1, queries=queries)
    assert len(line) > 1 << 16  # asyncio's default StreamReader limit
    with DiversityService(index, cache_size=256) as oracle:
        expected = [result_key(r) for r in oracle.query_batch(queries)]

    async def run():
        server = fresh_server(index)
        host, port = await server.start()
        try:
            # The answer is longer still; read it past the default limit.
            reader, writer = await asyncio.open_connection(
                host, port, limit=1 << 24)
            writer.write(line.encode())
            await writer.drain()
            response = protocol.decode_response(await reader.readline())
            writer.close()
            await writer.wait_closed()
        finally:
            await server.shutdown()
        return response

    response, errors = run_reporting_loop_errors(run)
    assert response["ok"], response
    assert [result_key(r) for r in protocol.results_of(response)] \
        == expected
    assert errors == []


def send_raw(index, payload: bytes):
    """Write *payload* to a fresh daemon; return what it sent back.

    Returns ``(raw reply, server stats block, loop-reported errors)``.
    """
    async def run():
        server = fresh_server(index)
        host, port = await server.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(payload)
            await writer.drain()
            raw = await read_until_closed(reader)
            writer.close()
            with contextlib.suppress(ConnectionResetError):
                await writer.wait_closed()
        finally:
            await server.shutdown()
        return raw, server.stats()["server"]

    (raw, stats), errors = run_reporting_loop_errors(run)
    return raw, stats, errors


LONG = b"x" * (_MAX_LINE + 1)


@pytest.mark.parametrize("before", [[], [0]],
                         ids=["first-line", "after-a-request"])
def test_ndjson_line_over_the_limit_gets_bad_request_and_a_close(index,
                                                                 before):
    payload = b"".join(query_line(i).encode() for i in before) + LONG
    raw, stats, errors = send_raw(index, payload + b"\n")
    by_id = {r["id"]: r for r in map(protocol.decode_response,
                                     raw.splitlines())}
    assert by_id[None]["error"]["code"] == "bad_request"
    assert str(_MAX_LINE) in by_id[None]["error"]["message"]
    # Requests before the long line are still answered, once each.
    assert len(raw.splitlines()) == 1 + len(before)
    assert set(by_id) == {None, *before}
    assert all(by_id[i]["ok"] for i in before)
    assert stats["accepted"] == len(before)
    assert stats["bad_requests"] == 1
    assert errors == []


@pytest.mark.parametrize("payload", [
    b"GET /" + LONG + b" HTTP/1.1\r\n\r\n",
    b"GET /healthz HTTP/1.1\r\nX-Pad: " + LONG + b"\r\n\r\n",
], ids=["request-line", "header"])
def test_http_line_over_the_limit_gets_400_and_a_close(index, payload):
    raw, stats, errors = send_raw(index, payload)
    assert raw.startswith(b"HTTP/1.1 400 "), raw[:80]
    body = json.loads(raw.split(b"\r\n\r\n", 1)[1])
    assert str(_MAX_LINE) in body["error"]
    assert stats["bad_requests"] == 1
    assert errors == []


@pytest.mark.parametrize("length, status", [
    ("abc", 400), ("-5", 400), ("9" * 5000, 413)],
    ids=["not-a-number", "negative", "more-digits-than-int-parses"])
def test_bad_content_length_is_refused(index, length, status):
    raw, stats, errors = send_raw(
        index, f"POST /query HTTP/1.1\r\nHost: t\r\n"
               f"Content-Length: {length}\r\n\r\n{{}}".encode())
    assert raw.startswith(f"HTTP/1.1 {status} ".encode()), raw
    assert stats["bad_requests"] == (status == 400)
    assert errors == []


def test_batch_window_knob_is_gone():
    with pytest.raises(TypeError):
        ServerConfig(batch_window_ms=5.0)
    assert "batch_window_ms" not in ServerConfig.__dataclass_fields__
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["serve", "--index", "idx", "--batch-window-ms", "5"])


def _dispatch_one_batch(make_server, requests):
    """Hand *requests* to the dispatcher as one coalesced batch.

    Returns each request's results and the server stats taken after the
    dispatch (the collector and the listener are bypassed).
    """
    async def run():
        server = make_server()
        loop = asyncio.get_running_loop()
        batch = [_Work(request, loop.create_future(), "peer")
                 for request in requests]
        server._pending += len(batch)
        try:
            await server._dispatch(batch)
            stats = server.stats()
        finally:
            await server.shutdown()
        return [work.future.result() for work in batch], stats

    return asyncio.run(run())


def test_dispatch_sends_a_single_index_batch_as_one_call(index):
    # Different objectives, k and rungs still share one query_batch.
    workload = [Query("remote-edge", 3), Query("remote-clique", 5),
                Query("remote-tree", 4), Query("remote-edge", 5)]
    with DiversityService(index, cache_size=256) as oracle:
        expected = [result_key(r) for r in oracle.query_batch(workload)]
    requests = [protocol.Request("query", i, queries=(query,))
                for i, query in enumerate(workload)]
    results, stats = _dispatch_one_batch(lambda: fresh_server(index),
                                         requests)
    assert [result_key(r) for (r,) in results] == expected
    assert stats["server"]["batches_dispatched"] == 1
    assert stats["server"]["batched_requests"] == len(workload)
    assert stats["server"]["queries_served"] == len(workload)


def test_dispatch_groups_a_registry_batch_by_dataset(tenant_indexes):
    workload = [("eu", Query("remote-edge", 3)),
                ("us", Query("remote-clique", 4)),
                ("eu", Query("remote-star", 5)),
                ("us", Query("remote-edge", 3))]
    expected = []
    for name, query in workload:
        with DiversityService(tenant_indexes[name], cache_size=16) as oracle:
            expected.append(result_key(oracle.query_batch([query])[0]))
    requests = [protocol.Request("query", i, queries=(query,), dataset=name)
                for i, (name, query) in enumerate(workload)]
    results, stats = _dispatch_one_batch(
        lambda: fresh_registry_server(tenant_indexes), requests)
    assert [result_key(r) for (r,) in results] == expected
    # Interleaved tenants: one query_batch call per dataset.
    assert stats["server"]["batches_dispatched"] == 2
    assert stats["server"]["internal_errors"] == 0


def test_sigterm_drains_cli_daemon_cleanly(index, tmp_path):
    """End-to-end: ``repro serve`` answers over TCP and drains on SIGTERM."""
    rng = np.random.default_rng(5)
    points = PointSet(rng.normal(size=(120, 3)))
    data = tmp_path / "data"
    idx = tmp_path / "idx"
    save_points(points, data)
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    build = subprocess.run(
        [sys.executable, "-m", "repro", "index", "--data", str(data),
         "--k-max", "4", "--out", str(idx)],
        env=env, capture_output=True, text=True, timeout=300)
    assert build.returncode == 0, build.stderr

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--index", str(idx),
         "--port", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        assert "serving" in ready, ready
        host_port = ready.split(" on ", 1)[1].split(" ", 1)[0]
        host, port = host_port.rsplit(":", 1)

        async def chat():
            lines = [protocol.encode_request(
                "query", i, queries=[Query("remote-edge", 3, 1.0)])
                for i in range(4)]
            return await send_lines(host, int(port), lines)

        responses = asyncio.run(chat())
        assert all(r["ok"] for r in responses)
        values = {r["results"][0]["value"] for r in responses}
        assert len(values) == 1  # deterministic answers across requests

        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, stderr
    assert "drained:" in stdout
    assert "Traceback" not in stderr
