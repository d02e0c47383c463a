"""Versioned request/response schema and wire-protocol tests.

Covers the API-redesign contract: ``Query``/``QueryResult`` round-trip
through their canonical dict forms bit-exactly (every field, including
``cached``/``eps_hit``/``epoch``), unknown schema versions are rejected,
anything but a ``Query`` is rejected as a query, and the NDJSON envelope
decoder classifies malformed input with the right error codes.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.service import (
    SCHEMA_VERSION,
    DiversityService,
    IndexRegistry,
    Query,
    QueryResult,
)
from repro.service import protocol
from repro.service.protocol import ProtocolError
from repro.service.workload import latency_summary


# ---------------------------------------------------------------- Query


def test_query_round_trips_every_field():
    query = Query("remote-clique", 7, 0.25)
    payload = query.to_dict()
    assert payload == {"schema_version": SCHEMA_VERSION,
                       "objective": "remote-clique", "k": 7,
                       "epsilon": 0.25}
    assert Query.from_dict(payload) == query
    # JSON round trip is lossless too.
    assert Query.from_dict(json.loads(json.dumps(payload))) == query


def test_query_from_dict_defaults_schema_version_and_epsilon():
    query = Query.from_dict({"objective": "remote-edge", "k": 3})
    assert query == Query("remote-edge", 3, 1.0)


def test_query_from_dict_rejects_unknown_schema_version():
    with pytest.raises(ValidationError, match="schema_version"):
        Query.from_dict({"schema_version": SCHEMA_VERSION + 1,
                         "objective": "remote-edge", "k": 3})


@pytest.mark.parametrize("payload", [
    {"objective": "remote-edge"},
    {"objective": "remote-edge", "k": 4.7},
    {"objective": "remote-edge", "k": True},
    {"objective": "remote-edge", "k": "4"},
    {"objective": "remote-edge", "k": 4.0},
    {"objective": "remote-edge", "k": 0},
    {"objective": "remote-edge", "k": -3},
], ids=["no-k", "fractional-k", "bool-k", "string-k", "float-k", "zero-k",
        "negative-k"])
def test_query_from_dict_rejects_malformed_payload(payload):
    # k is validated like an in-process Query's, never truncated: 4.7
    # must not be answered as k=4, nor true as k=1.
    with pytest.raises(ValidationError, match="malformed"):
        Query.from_dict(payload)


# ----------------------------------------------------------- QueryResult


@pytest.fixture(scope="module")
def service():
    rng = np.random.default_rng(7)
    from repro.metricspace.points import PointSet
    points = PointSet(rng.normal(size=(80, 3)))
    with DiversityService(points=points, k_max=5, seed=0) as svc:
        yield svc


def test_query_result_round_trips_every_field(service):
    solved = service.query("remote-edge", 4)
    cached = service.query("remote-edge", 4)  # LRU hit
    # Epsilon-aware reuse: solve on a large rung under a tight eps, then
    # ask again under a loose eps that routes to a smaller, uncached rung.
    tight = service.query("remote-star", 4, epsilon=0.2)
    assert service.index.route("remote-star", 4, 1.0).key != tight.rung, \
        "test needs eps to route to different rungs"
    eps_hit = service.query("remote-star", 4, epsilon=1.0)
    assert not solved.cached and cached.cached
    assert eps_hit.eps_hit and eps_hit.cached
    for result in (solved, cached, eps_hit):
        payload = json.loads(json.dumps(result.to_dict()))
        back = QueryResult.from_dict(payload)
        assert back.objective == result.objective
        assert back.k == result.k
        assert back.epsilon == result.epsilon
        assert back.value == result.value  # bit-exact through JSON
        assert back.rung == result.rung
        assert back.cached == result.cached
        assert back.eps_hit == result.eps_hit
        assert back.epoch == result.epoch
        assert back.solve_seconds == result.solve_seconds
        np.testing.assert_array_equal(back.indices, result.indices)
        np.testing.assert_array_equal(back.points, result.points)


def test_query_result_from_dict_rejects_bad_version_and_shape(service):
    payload = service.query("remote-edge", 3).to_dict()
    bad_version = dict(payload, schema_version=99)
    with pytest.raises(ValidationError, match="schema_version"):
        QueryResult.from_dict(bad_version)
    with pytest.raises(ValidationError, match="malformed"):
        QueryResult.from_dict({k: v for k, v in payload.items()
                               if k != "value"})


BARE_SEQUENCES = pytest.mark.parametrize(
    "query", [("remote-edge", 3), ["remote-edge", 3, 1.0]],
    ids=["tuple", "list"])


@BARE_SEQUENCES
def test_query_batch_rejects_bare_sequences(service, query):
    with pytest.raises(ValidationError, match="Query"):
        service.query_batch([query])


@BARE_SEQUENCES
def test_query_concurrent_rejects_bare_sequences(service, query):
    with pytest.raises(ValidationError, match="Query"):
        service.query_concurrent([query], max_workers=1)


@BARE_SEQUENCES
def test_registry_query_batch_rejects_bare_sequences(service, query):
    with IndexRegistry() as registry:
        registry.register("eu", service.index)
        with pytest.raises(ValidationError, match="Query"):
            registry.query_batch([query], "eu")


def test_query_objects_do_not_warn(service):
    query = Query("remote-edge", 3, 1.0)
    service.query_batch([query])
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        results = service.query_batch([query])
    assert results[0].cached


# -------------------------------------------------------- wire envelope


def test_decode_request_query_with_query_and_dict_payloads():
    line = protocol.encode_request(
        "query", 5, queries=[Query("remote-edge", 4, 1.0),
                             {"objective": "remote-clique", "k": 3}])
    request = protocol.decode_request(line)
    assert request.kind == "query" and request.id == 5
    assert request.queries == (Query("remote-edge", 4, 1.0),
                               Query("remote-clique", 3, 1.0))


def test_decode_request_rejects_list_queries():
    with pytest.raises(ProtocolError) as exc:
        protocol.decode_request(protocol.encode_request(
            "query", 5, queries=[["remote-edge", 2]]))
    assert exc.value.code == protocol.ERROR_BAD_REQUEST


@pytest.mark.parametrize("k", [4.7, True, "4", 4.0],
                         ids=["fractional", "bool", "string", "float"])
def test_decode_request_rejects_non_int_k(k):
    with pytest.raises(ProtocolError) as exc:
        protocol.decode_request(json.dumps(
            {"kind": "query",
             "queries": [{"objective": "remote-edge", "k": k}]}))
    assert exc.value.code == protocol.ERROR_BAD_REQUEST


@pytest.mark.parametrize("k", [0, -3], ids=["zero", "negative"])
def test_decode_request_rejects_non_positive_k(k):
    with pytest.raises(ProtocolError) as exc:
        protocol.decode_request(json.dumps(
            {"kind": "query",
             "queries": [{"objective": "remote-edge", "k": k}]}))
    assert exc.value.code == protocol.ERROR_BAD_REQUEST
    assert "positive" in str(exc.value)


def test_decode_request_single_query_sugar():
    request = protocol.decode_request(json.dumps(
        {"kind": "query", "query": {"objective": "remote-edge", "k": 2}}))
    assert request.queries == (Query("remote-edge", 2, 1.0),)


def test_decode_request_error_codes():
    with pytest.raises(ProtocolError) as exc:
        protocol.decode_request("{not json")
    assert exc.value.code == protocol.ERROR_BAD_REQUEST
    with pytest.raises(ProtocolError) as exc:
        protocol.decode_request(json.dumps({"v": 99, "kind": "stats"}))
    assert exc.value.code == protocol.ERROR_UNSUPPORTED_VERSION
    with pytest.raises(ProtocolError) as exc:
        protocol.decode_request(json.dumps({"kind": "frobnicate"}))
    assert exc.value.code == protocol.ERROR_BAD_REQUEST
    with pytest.raises(ProtocolError) as exc:
        protocol.decode_request(json.dumps({"kind": "query", "queries": []}))
    assert exc.value.code == protocol.ERROR_BAD_REQUEST
    with pytest.raises(ProtocolError) as exc:
        protocol.decode_request(json.dumps(
            {"kind": "query",
             "queries": [{"objective": "remote-edge", "k": 2,
                          "schema_version": 99}]}))
    assert exc.value.code == protocol.ERROR_BAD_REQUEST
    with pytest.raises(ProtocolError) as exc:
        protocol.decode_request(json.dumps({"kind": "refresh"}))
    assert exc.value.code == protocol.ERROR_BAD_REQUEST


def test_decode_request_threads_the_dataset_field():
    line = protocol.encode_request(
        "query", 1, queries=[Query("remote-edge", 3, 1.0)], dataset="eu")
    assert protocol.decode_request(line).dataset == "eu"
    line = protocol.encode_request("refresh", 2, data="/x", dataset="us")
    assert protocol.decode_request(line).dataset == "us"
    # The field is optional — absent means "route to the default".
    bare = protocol.decode_request(protocol.encode_request("stats"))
    assert bare.dataset is None
    assert "dataset" not in json.loads(protocol.encode_request("stats"))


def test_decode_request_tenants_kind():
    request = protocol.decode_request(protocol.encode_request("tenants", 9))
    assert request.kind == "tenants" and request.id == 9
    assert "tenants" in protocol.REQUEST_KINDS


def test_decode_request_rejects_malformed_dataset():
    for bad in ("", 7, ["eu"]):
        with pytest.raises(ProtocolError) as exc:
            protocol.decode_request(json.dumps(
                {"kind": "query", "dataset": bad,
                 "queries": [{"objective": "remote-edge", "k": 2}]}))
        assert exc.value.code == protocol.ERROR_BAD_REQUEST


def test_response_encoding_round_trip(service):
    results = service.query_batch([Query("remote-clique", 4, 1.0)])
    line = protocol.encode_results("abc", results)
    response = protocol.decode_response(line)
    assert response["ok"] and response["id"] == "abc"
    assert response["v"] == protocol.PROTOCOL_VERSION
    back = protocol.results_of(response)
    assert back[0].value == results[0].value
    np.testing.assert_array_equal(back[0].indices, results[0].indices)

    error = protocol.decode_response(protocol.encode_error(
        7, protocol.ERROR_OVERLOADED, "full", retry_after_ms=50.0))
    assert not error["ok"]
    assert error["error"]["code"] == "overloaded"
    assert error["error"]["retry_after_ms"] == 50.0
    plain = protocol.decode_response(protocol.encode_error(
        8, protocol.ERROR_BAD_REQUEST, "nope"))
    assert "retry_after_ms" not in plain["error"]

    with pytest.raises(ValueError):
        protocol.decode_response(json.dumps({"no": "ok-field"}))


# ------------------------------------------------------ latency summary


def test_latency_summary_percentiles_and_empty():
    empty = latency_summary([])
    assert empty["count"] == 0 and empty["p99_ms"] is None
    block = latency_summary([0.001 * (i + 1) for i in range(100)])
    assert block["count"] == 100
    assert block["p50_ms"] == pytest.approx(50.5, abs=0.5)
    assert block["p99_ms"] == pytest.approx(99.01, abs=0.5)
    assert block["max_ms"] == pytest.approx(100.0)
    assert block["p50_ms"] <= block["p95_ms"] <= block["p99_ms"]


# ------------------------------------------------- rejection accounting


def test_error_line_carries_dataset_and_retry_fields():
    line = protocol.encode_error(3, protocol.ERROR_OVERLOADED, "tenant full",
                                 retry_after_ms=125.0, dataset="eu")
    error = protocol.decode_response(line)["error"]
    assert error["dataset"] == "eu"
    assert error["retry_after_ms"] == 125.0
    # Absent dataset stays absent — single-index daemons are unchanged.
    bare = protocol.decode_response(protocol.encode_error(
        4, protocol.ERROR_OVERLOADED, "full"))
    assert "dataset" not in bare["error"]
    exc = ProtocolError(protocol.ERROR_OVERLOADED, "x",
                        retry_after_ms=10.0, dataset="us")
    assert (exc.retry_after_ms, exc.dataset) == (10.0, "us")


def test_server_stats_reject_updates_all_three_views():
    """Every rejection shows up globally, per-client AND per-tenant."""
    from repro.service import ServerStats

    counters = ServerStats()
    counters.reject("1.2.3.4:1", "eu")
    counters.reject("1.2.3.4:1", "eu")
    counters.reject("5.6.7.8:2", "us", draining=True)
    counters.reject("5.6.7.8:2", None)  # single-index: no tenant split
    assert counters.rejected_overload == 3
    assert counters.rejected_draining == 1
    assert counters.clients["1.2.3.4:1"].rejected == 2
    assert counters.clients["5.6.7.8:2"].rejected == 2
    assert counters.rejected_datasets == {"eu": 2, "us": 1}


def test_refresh_while_draining_counts_per_client_and_per_tenant():
    """Regression: a refresh refused mid-drain used to bump no counter
    at all — neither the per-client block nor ``rejected_draining`` —
    so drained refreshes vanished from the stats.  Pin the fix: the
    refusal lands in all three views and the error names the tenant."""
    import asyncio

    from repro.metricspace.points import PointSet
    from repro.service import (
        DiversityServer,
        IndexRegistry,
        ServerConfig,
        build_coreset_index,
    )

    rng = np.random.default_rng(13)
    index = build_coreset_index(PointSet(rng.normal(size=(90, 3))), 4, seed=0)
    registry = IndexRegistry()
    registry.register("eu", index)

    async def run():
        server = DiversityServer(registry, ServerConfig())
        host, port = await server.start()
        server._draining = True  # simulate mid-drain admission attempt
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(protocol.encode_request(
                "refresh", 1, data="/nowhere", dataset="eu").encode())
            await writer.drain()
            response = protocol.decode_response(await reader.readline())
            writer.close()
            await writer.wait_closed()
        finally:
            server._draining = False
            await server.shutdown()
        return response, server.stats()["server"]

    response, stats = asyncio.run(run())
    assert response["error"]["code"] == "shutting_down"
    assert response["error"]["dataset"] == "eu"
    assert stats["rejected_draining"] == 1
    assert stats["rejected_datasets"] == {"eu": 1}
    (client_block,) = stats["clients"].values()
    assert client_block["rejected"] == 1
