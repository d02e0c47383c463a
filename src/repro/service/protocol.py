"""Versioned wire protocol of the ``repro serve`` daemon.

One request/response schema crosses the socket, in two framings that the
server sniffs apart on the first bytes of a connection:

* **NDJSON over TCP** — the native framing: every line is one JSON
  envelope, requests carry a client-chosen ``id`` echoed on the matching
  response, and a connection may pipeline freely (responses are matched
  by ``id``, not order).
* **HTTP/1.1** — a thin adapter for curl-ability: ``POST /query`` takes
  the same query envelope as a body, ``GET /stats`` and ``GET /healthz``
  map to the ``stats`` / ``healthz`` kinds.

The payloads inside the envelope are the canonical schemas of
:mod:`repro.service.service` verbatim: queries are
:meth:`Query.to_dict <repro.service.service.Query.to_dict>` dicts,
results are :meth:`QueryResult.to_dict
<repro.service.service.QueryResult.to_dict>` dicts, and ``stats`` bodies
are :meth:`DiversityService.stats
<repro.service.service.DiversityService.stats>` snapshots — all stamped
with :data:`~repro.service.service.SCHEMA_VERSION`.  The envelope itself
carries ``"v"``, the protocol version; unknown versions are rejected with
``unsupported_version`` rather than guessed at.

Request kinds
-------------
``query``
    ``{"v": 1, "id": 7, "kind": "query", "queries": [{"objective":
    "remote-edge", "k": 4, "epsilon": 1.0}, ...]}`` — answered with
    ``{"v": 1, "id": 7, "ok": true, "results": [...]}`` where every
    result is a ``QueryResult`` dict.  The whole request is admitted (and
    rejected) atomically.
``stats``
    The service stats snapshot plus a ``server`` section (admission,
    batching and latency counters).
``healthz``
    Liveness: ``{"ok": true, "status": "ok", "draining": false}``.
``refresh``
    ``{"kind": "refresh", "data": "/path/saved/by/generate"}`` — loads
    the dataset server-side and absorbs it in the background; the
    response arrives when the epoch swap has happened.
``tenants``
    The multi-tenant registry's ``tenants`` stats section (per-tenant
    residency, hits, faults, evictions); also served as
    ``GET /tenants``.

Multi-tenant routing: on a daemon serving an
:class:`~repro.service.registry.IndexRegistry`, ``query`` and
``refresh`` envelopes carry an optional ``"dataset"`` field naming the
tenant (defaulting to the registry's sole tenant when it has exactly
one); an unknown name is rejected with ``unknown_dataset`` (HTTP 404).

Error responses are ``{"v": 1, "id": ..., "ok": false, "error": {"code":
..., "message": ...}}``; an ``overloaded`` rejection adds
``retry_after_ms``, the explicit-backpressure contract (the admission
queue is bounded — the server never buffers without bound).  On a
QoS-enabled daemon (``repro serve --qos``) the rejection is per-tenant:
the error also carries ``dataset`` and the ``retry_after_ms`` hint is
computed from that tenant's own backlog or token bucket.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.service.service import Query, QueryResult, SCHEMA_VERSION

#: Version of the socket envelope.  Bumped independently of the payload
#: :data:`~repro.service.service.SCHEMA_VERSION` (which stamps the query
#: / result / stats dicts riding inside it).
PROTOCOL_VERSION = 1

#: Request kinds the server understands.
REQUEST_KINDS = ("query", "stats", "healthz", "refresh", "tenants")

# -- error codes ---------------------------------------------------------------
#: Admission queue full — retry after ``retry_after_ms``.
ERROR_OVERLOADED = "overloaded"
#: Malformed envelope or query payload.
ERROR_BAD_REQUEST = "bad_request"
#: Envelope ``v`` (or payload ``schema_version``) not spoken here.
ERROR_UNSUPPORTED_VERSION = "unsupported_version"
#: Server is draining; no new work is admitted.
ERROR_SHUTTING_DOWN = "shutting_down"
#: The named ``dataset`` is not served by this registry (HTTP 404).
ERROR_UNKNOWN_DATASET = "unknown_dataset"
#: The request crashed server-side (a bug — gated to zero in CI).
ERROR_INTERNAL = "internal"


class ProtocolError(Exception):
    """A request that cannot be served, with its wire error ``code``.

    ``retry_after_ms`` overrides the server's generic backoff hint —
    tenant-aware rejections (``repro serve --qos``) compute one from
    the tenant's own backlog or token bucket.  ``dataset`` names the
    tenant the rejection applies to, so a client multiplexing tenants
    over one connection can back off selectively.
    """

    def __init__(self, code: str, message: str, *,
                 retry_after_ms: float | None = None,
                 dataset: str | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.retry_after_ms = retry_after_ms
        self.dataset = dataset


@dataclass(frozen=True)
class Request:
    """One decoded client request.

    ``id`` is the client's correlation token (echoed verbatim on the
    response); ``queries`` is non-empty only for ``kind == "query"``;
    ``data`` is the dataset path of a ``refresh``; ``dataset`` names the
    tenant a multi-tenant (registry) daemon should route the request to
    (``None`` on a single-index daemon, or to default to the registry's
    sole tenant).
    """

    kind: str
    id: object = None
    queries: tuple[Query, ...] = field(default=())
    data: str | None = None
    dataset: str | None = None


def _coerce_query(payload: object) -> Query:
    """One wire query: a :meth:`Query.to_dict` payload."""
    if isinstance(payload, dict):
        return Query.from_dict(payload)
    raise ProtocolError(ERROR_BAD_REQUEST,
                        f"cannot interpret query payload {payload!r}; "
                        "send a Query object")


def decode_request(line: str | bytes) -> Request:
    """Parse one NDJSON request line into a validated :class:`Request`.

    Raises
    ------
    ProtocolError
        With ``bad_request`` for malformed JSON / unknown kinds /
        missing fields, ``unsupported_version`` for an envelope or
        payload version this build does not speak.
    """
    try:
        envelope = json.loads(line)
    except (ValueError, TypeError) as exc:
        raise ProtocolError(ERROR_BAD_REQUEST,
                            f"request is not valid JSON: {exc}") from exc
    if not isinstance(envelope, dict):
        raise ProtocolError(ERROR_BAD_REQUEST,
                            "request envelope must be a JSON object")
    version = envelope.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            ERROR_UNSUPPORTED_VERSION,
            f"protocol version {version!r} not supported; "
            f"this server speaks v{PROTOCOL_VERSION}")
    kind = envelope.get("kind")
    request_id = envelope.get("id")
    if kind not in REQUEST_KINDS:
        raise ProtocolError(ERROR_BAD_REQUEST,
                            f"unknown request kind {kind!r}; "
                            f"known: {', '.join(REQUEST_KINDS)}")
    dataset = envelope.get("dataset")
    if dataset is not None and (not isinstance(dataset, str) or not dataset):
        raise ProtocolError(ERROR_BAD_REQUEST,
                            "'dataset' must be a non-empty string")
    if kind == "query":
        raw = envelope.get("queries")
        if raw is None and "query" in envelope:  # single-query sugar
            raw = [envelope["query"]]
        if not isinstance(raw, list) or not raw:
            raise ProtocolError(ERROR_BAD_REQUEST,
                                "query request needs a non-empty "
                                "'queries' list (or a single 'query')")
        try:
            queries = tuple(_coerce_query(item) for item in raw)
        except ProtocolError:
            raise
        except Exception as exc:  # ValidationError, ValueError, ...
            raise ProtocolError(ERROR_BAD_REQUEST, str(exc)) from exc
        return Request(kind, request_id, queries, dataset=dataset)
    if kind == "refresh":
        data = envelope.get("data")
        if not isinstance(data, str) or not data:
            raise ProtocolError(ERROR_BAD_REQUEST,
                                "refresh request needs a 'data' dataset path")
        return Request(kind, request_id, data=data, dataset=dataset)
    return Request(kind, request_id, dataset=dataset)


# -- encoding ------------------------------------------------------------------

def encode_request(kind: str, request_id: object = None, *,
                   queries: list | tuple = (), data: str | None = None,
                   dataset: str | None = None) -> str:
    """One NDJSON request line (client side; newline included)."""
    envelope: dict = {"v": PROTOCOL_VERSION, "kind": kind}
    if request_id is not None:
        envelope["id"] = request_id
    if queries:
        envelope["queries"] = [
            query.to_dict() if isinstance(query, Query) else query
            for query in queries]
    if data is not None:
        envelope["data"] = data
    if dataset is not None:
        envelope["dataset"] = dataset
    return json.dumps(envelope) + "\n"


def encode_ok(request_id: object, **payload) -> str:
    """One NDJSON success line: ``{"v", "id", "ok": true, **payload}``."""
    envelope = {"v": PROTOCOL_VERSION, "id": request_id, "ok": True}
    envelope.update(payload)
    return json.dumps(envelope) + "\n"


def encode_results(request_id: object,
                   results: list[QueryResult]) -> str:
    """A success line answering a ``query`` request."""
    return encode_ok(request_id,
                     results=[result.to_dict() for result in results])


def encode_error(request_id: object, code: str, message: str, *,
                 retry_after_ms: float | None = None,
                 dataset: str | None = None) -> str:
    """One NDJSON error line; ``retry_after_ms`` rides on overloads.

    ``dataset`` scopes the error to one tenant — per-tenant rejections
    from a QoS daemon carry it so clients can back off one tenant
    without stalling the rest.
    """
    error: dict = {"code": code, "message": message}
    if retry_after_ms is not None:
        error["retry_after_ms"] = retry_after_ms
    if dataset is not None:
        error["dataset"] = dataset
    return json.dumps({"v": PROTOCOL_VERSION, "id": request_id,
                       "ok": False, "error": error}) + "\n"


def decode_response(line: str | bytes) -> dict:
    """Parse a response line (client side); raises ``ValueError`` on junk."""
    payload = json.loads(line)
    if not isinstance(payload, dict) or "ok" not in payload:
        raise ValueError(f"not a response envelope: {line!r}")
    return payload


def results_of(response: dict) -> list[QueryResult]:
    """Materialize the :class:`QueryResult` list of a ``query`` response."""
    return [QueryResult.from_dict(item)
            for item in response.get("results", [])]


__all__ = [
    "PROTOCOL_VERSION",
    "SCHEMA_VERSION",
    "REQUEST_KINDS",
    "ERROR_OVERLOADED",
    "ERROR_BAD_REQUEST",
    "ERROR_UNSUPPORTED_VERSION",
    "ERROR_SHUTTING_DOWN",
    "ERROR_UNKNOWN_DATASET",
    "ERROR_INTERNAL",
    "ProtocolError",
    "Request",
    "decode_request",
    "encode_request",
    "encode_ok",
    "encode_results",
    "encode_error",
    "decode_response",
    "results_of",
]
