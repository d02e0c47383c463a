"""The ``repro serve`` daemon: asyncio front-end over a DiversityService.

One :class:`DiversityServer` owns one
:class:`~repro.service.service.DiversityService` — or, in multi-tenant
mode, one :class:`~repro.service.registry.IndexRegistry` of named
tenants — and exposes it on a single TCP port.  Each accepted connection
is sniffed on its first line:
HTTP request lines (``POST /query HTTP/1.1`` ...) route to a thin
HTTP/1.1 adapter, anything else is treated as newline-delimited JSON in
the :mod:`repro.service.protocol` envelope — the native framing, which
supports pipelining (responses are matched to requests by ``id``, not
by order).

The serving pipeline, in order:

1. **Admission** — every decoded ``query`` request tries a
   ``put_nowait`` into one bounded :class:`asyncio.Queue`.  A full queue
   is an immediate ``overloaded`` rejection carrying ``retry_after_ms``
   (HTTP 429 + ``Retry-After``); a draining server rejects with
   ``shutting_down`` (HTTP 503).  The server never buffers unboundedly —
   backpressure is explicit.
2. **Micro-batching** — a single collector task takes the oldest admitted
   request plus whatever already queued behind it (up to ``max_batch``)
   and at once submits the coalesced query list as ONE
   :meth:`~repro.service.service.DiversityService.query_batch` call, so
   same-rung queries from different clients share matrix fetches and
   LRU probes.  Results are split back per request in order.
3. **Dispatch** — the blocking ``query_batch`` runs on a two-slot thread
   pool: one slot for query batches, one for background ``refresh``
   (dataset absorption swaps epochs atomically service-side, so readers
   are never stalled and never see a mixed epoch).
4. **Drain** — on SIGTERM/SIGINT (or :meth:`DiversityServer.shutdown`)
   the listener stops admitting, in-flight batches finish on the epoch
   they were admitted against, their responses are written, and only
   then is the underlying service closed.  Nothing admitted is dropped;
   nothing is answered twice.

Answers are bit-identical to calling ``service.query_batch`` in-process
on the same index: coalescing only concatenates query lists, and the
service's solvers are deterministic on a fixed core-set.

Registry mode adds tenant routing on top of the same pipeline: a
``dataset`` field on ``query``/``refresh`` envelopes picks the tenant
(validated before admission; unknown names are ``unknown_dataset`` /
HTTP 404), the micro-batcher groups each coalesced batch by dataset so
one dispatch never mixes tenants, and ``GET /tenants`` (NDJSON kind
``tenants``) exposes the registry's per-tenant residency counters.

QoS mode (``repro serve --qos``, registry only) swaps step 1's single
queue for :mod:`repro.service.qos`: every tenant admits into its own
bounded queue under its manifest quota (``weight`` / ``max_queue`` /
``rate_limit_qps``), the collector pulls requests in weighted
deficit-round-robin order (batches may mix tenants; dispatch still
groups by dataset), rejections carry the tenant's ``dataset`` and its
own ``retry_after_ms``, and ``stats()["server"]["qos"]`` reports
per-tenant queue depth, deficit, admission counters and latency
percentiles.  Answers stay bit-identical — QoS reorders only *between*
tenants, never within one.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import json
import signal
import time
from dataclasses import dataclass, field

from repro.datasets.loaders import load_points
from repro.exceptions import ValidationError
from repro.service import protocol
from repro.service.protocol import ProtocolError, Request
from repro.service.qos import QosRejection, WeightedDeficitRoundRobin
from repro.service.registry import IndexRegistry, UnknownDatasetError
from repro.service.service import DiversityService
from repro.service.workload import latency_summary
from repro.utils.validation import check_positive_int

#: HTTP methods whose request line flips a connection into HTTP mode.
_HTTP_METHODS = (b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ",
                 b"OPTIONS ", b"PATCH ")

#: Longest accepted request line / HTTP body, in bytes.
_MAX_LINE = 1 << 20

_HTTP_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
                 405: "Method Not Allowed", 413: "Payload Too Large",
                 429: "Too Many Requests", 500: "Internal Server Error",
                 503: "Service Unavailable"}


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`DiversityServer`.

    ``max_queue`` bounds the admission queue — the ``overloaded``
    rejection threshold — and ``max_batch`` caps how many queued
    requests one dispatch may coalesce; a batch is whatever queued while
    the previous one ran, so there is no batching timer to tune.
    ``retry_after_ms`` is the hint returned with rejections.
    ``drain_timeout_s`` caps how long shutdown waits for in-flight work.
    ``qos`` (registry mode only — ``repro serve --qos``) replaces the
    single admission queue with per-tenant queues drained in weighted
    deficit-round-robin order under the tenants' manifest quotas;
    ``max_queue`` then becomes the per-tenant default bound and
    ``retry_after_ms`` the scale of the tenant-specific backoff hints.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_queue: int = 64
    max_batch: int = 16
    retry_after_ms: float = 50.0
    drain_timeout_s: float = 30.0
    qos: bool = False

    def __post_init__(self):
        """Validate the queue/batch bounds and the retry hint."""
        check_positive_int(self.max_queue, "max_queue")
        check_positive_int(self.max_batch, "max_batch")
        if self.retry_after_ms < 0:
            raise ValueError("retry_after_ms must be non-negative")


@dataclass
class _ClientStats:
    """Per-client admission counters (keyed by peer ``host:port``)."""

    accepted: int = 0
    rejected: int = 0
    queries: int = 0


@dataclass
class ServerStats:
    """Global serving counters, snapshot under ``stats()["server"]``.

    ``batched_requests`` counts requests that shared a dispatch with at
    least one other request — only a backlog (requests queued behind a
    running batch) coalesces.  ``rejected_overload`` and
    ``rejected_draining`` split the two admission-control outcomes;
    ``internal_errors`` counts request-crashing bugs (gated to zero).
    ``rejected_datasets`` splits every rejection by the tenant it
    applied to (empty on a single-index daemon), so one hot tenant's
    backpressure is visible without grepping client logs.
    """

    connections: int = 0
    http_requests: int = 0
    accepted: int = 0
    rejected_overload: int = 0
    rejected_draining: int = 0
    bad_requests: int = 0
    internal_errors: int = 0
    batches_dispatched: int = 0
    batched_requests: int = 0
    queries_served: int = 0
    refreshes: int = 0
    clients: dict[str, _ClientStats] = field(default_factory=dict)
    rejected_datasets: dict[str, int] = field(default_factory=dict)

    def client(self, peer: str) -> _ClientStats:
        """The (created-on-first-use) counter block for *peer*."""
        if peer not in self.clients:
            self.clients[peer] = _ClientStats()
        return self.clients[peer]

    def reject(self, peer: str, dataset: str | None, *,
               draining: bool = False) -> None:
        """Count one admission rejection everywhere it must show up.

        Every rejection increments the matching global counter, the
        per-client block AND (when the request named a tenant) the
        per-dataset split — the single bookkeeping path that keeps the
        three views consistent.
        """
        self.client(peer).rejected += 1
        if draining:
            self.rejected_draining += 1
        else:
            self.rejected_overload += 1
        if dataset is not None:
            self.rejected_datasets[dataset] = \
                self.rejected_datasets.get(dataset, 0) + 1


class _Work:
    """One admitted query request awaiting dispatch.

    Carries the decoded request, the future its responder awaits, the
    peer label (for per-client accounting) and the admission timestamp
    that anchors the server-observed latency sample.
    """

    __slots__ = ("request", "future", "peer", "admitted_at")

    def __init__(self, request: Request, future: asyncio.Future,
                 peer: str):
        self.request = request
        self.future = future
        self.peer = peer
        self.admitted_at = time.perf_counter()


class _LineTooLong(Exception):
    """A line ran past ``_MAX_LINE`` and was answered; close the stream."""


#: Queue item that tells the collector to exit after the current batch.
_SENTINEL = object()

#: Queue item that wakes the collector in QoS mode: the admitted work
#: lives in the WDRR scheduler, the queue only carries wake-ups (one
#: token per admitted request, so token count == scheduler backlog).
_QOS_TOKEN = object()


class DiversityServer:
    """Asyncio TCP/HTTP front-end over one :class:`DiversityService`.

    Construct with a ready service (index built or lazy-buildable),
    then either drive the pieces yourself (``await start()`` ... ``await
    shutdown()``) or call :meth:`run_until_shutdown`, which also wires
    SIGTERM/SIGINT to a graceful drain — the ``repro serve`` entry
    point.  The server owns the service lifecycle from ``start()`` on:
    shutdown drains in-flight batches, then calls ``service.close()``.
    """

    def __init__(self, service: "DiversityService | IndexRegistry",
                 config: ServerConfig | None = None):
        self.service = service
        #: The multi-tenant registry, or ``None`` on a single-index
        #: daemon.  Registry mode adds ``dataset`` routing, the
        #: ``tenants`` kind and ``GET /tenants``.
        self.registry = service if isinstance(service, IndexRegistry) \
            else None
        self.config = config or ServerConfig()
        self.stats_counters = ServerStats()
        #: WDRR scheduler over per-tenant queues, or ``None`` when the
        #: daemon runs the classic single-queue admission control.
        self.qos: WeightedDeficitRoundRobin | None = None
        if self.config.qos:
            if self.registry is None:
                raise ValidationError(
                    "QoS scheduling is per-tenant; `repro serve --qos` "
                    "needs --registry")
            self.qos = WeightedDeficitRoundRobin(
                self.registry.quotas(),
                default_max_queue=self.config.max_queue,
                base_retry_ms=self.config.retry_after_ms)
        # In QoS mode the asyncio queue is unbounded: it carries only
        # wake tokens (+ the shutdown sentinel); the per-tenant bounds
        # live in the scheduler.
        self._queue: asyncio.Queue = asyncio.Queue(
            maxsize=0 if self.qos is not None else self.config.max_queue)
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-query")
        self._refresh_pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-refresh")
        self._latencies: list[float] = []
        self._server: asyncio.AbstractServer | None = None
        self._collector: asyncio.Task | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._handlers: set[asyncio.Task] = set()
        self._pending = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._closed = False
        self._started_at: float | None = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``port=0`` ephemerals."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> tuple[str, int]:
        """Bind the listener, start the batch collector, return address."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=_MAX_LINE)
        self._collector = asyncio.create_task(self._batch_loop())
        self._started_at = time.perf_counter()
        return self.address

    async def shutdown(self) -> None:
        """Drain gracefully: stop admitting, finish in-flight, close.

        The listener closes first (no new connections), the draining
        flag flips (queued connections get ``shutting_down``), already
        admitted batches run to completion on their pinned epoch and
        their responses are written, then the collector exits via the
        queue sentinel and the underlying service is closed.  Bounded by
        ``drain_timeout_s``; idempotent.
        """
        if self._closed:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(self._idle.wait(),
                                   timeout=self.config.drain_timeout_s)
        except asyncio.TimeoutError:
            pass
        await self._queue.put(_SENTINEL)
        if self._collector is not None:
            await self._collector
        if self._conn_tasks:
            # Admitted work is resolved, but its responders may still be
            # writing — wait for them so nothing admitted is dropped.
            try:
                await asyncio.wait_for(
                    asyncio.gather(*list(self._conn_tasks),
                                   return_exceptions=True),
                    timeout=self.config.drain_timeout_s)
            except asyncio.TimeoutError:  # pragma: no cover - dead peers
                for task in list(self._conn_tasks):
                    task.cancel()
        if self._handlers:
            # Idle keep-alive connections still block in readline();
            # cancel their handlers so loop teardown stays silent.
            for task in list(self._handlers):
                task.cancel()
            await asyncio.gather(*list(self._handlers),
                                 return_exceptions=True)
        self._closed = True
        self._pool.shutdown(wait=True)
        self._refresh_pool.shutdown(wait=True)
        self.service.close()

    async def run_until_shutdown(self, *,
                                 ready: asyncio.Event | None = None) -> None:
        """Serve until SIGTERM/SIGINT, then drain — the daemon main loop.

        Sets *ready* (if given) once the socket is bound, so embedding
        harnesses know when to connect.
        """
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await self.start()
        if ready is not None:
            ready.set()
        try:
            await stop.wait()
        finally:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.remove_signal_handler(signum)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
            await self.shutdown()

    # -- admission + batching --------------------------------------------------

    def _admit(self, request: Request, peer: str) -> _Work:
        """Admit a query request into the bounded queue or raise.

        Raises :class:`ProtocolError` with ``shutting_down`` while
        draining and ``overloaded`` when the queue (in QoS mode: the
        request's tenant queue or token bucket) rejects — the
        admission-control rejections; all are counted globally, per
        client and per tenant.  QoS rejections carry the tenant's
        ``dataset`` and its own ``retry_after_ms`` hint.
        """
        client = self.stats_counters.client(peer)
        if self._draining:
            self.stats_counters.reject(peer, request.dataset, draining=True)
            raise ProtocolError(protocol.ERROR_SHUTTING_DOWN,
                                "server is draining; not accepting work",
                                dataset=request.dataset)
        work = _Work(request, asyncio.get_running_loop().create_future(),
                     peer)
        if self.qos is not None:
            try:
                self.qos.admit(request.dataset, work)
            except QosRejection as exc:
                self.stats_counters.reject(peer, request.dataset)
                raise ProtocolError(
                    protocol.ERROR_OVERLOADED, str(exc),
                    retry_after_ms=exc.retry_after_ms,
                    dataset=request.dataset) from None
            self._queue.put_nowait(_QOS_TOKEN)
        else:
            try:
                self._queue.put_nowait(work)
            except asyncio.QueueFull:
                self.stats_counters.reject(peer, request.dataset)
                raise ProtocolError(
                    protocol.ERROR_OVERLOADED,
                    f"admission queue full ({self.config.max_queue}); "
                    "retry after the advertised delay",
                    dataset=request.dataset) from None
        self._pending += 1
        self._idle.clear()
        client.accepted += 1
        client.queries += len(request.queries)
        self.stats_counters.accepted += 1
        return work

    def _work_done(self) -> None:
        """Account one resolved request; wake drain when none are left."""
        self._pending -= 1
        if self._pending <= 0:
            self._idle.set()

    async def _batch_loop(self) -> None:
        """Form micro-batches from the backlog and dispatch them.

        The single consumer of the admission queue: it blocks on the
        oldest request, takes whatever already queued behind it (up to
        ``max_batch``), dispatches at once, and repeats until the
        shutdown sentinel arrives.  Requests that arrive while a batch
        runs form the next one: batches grow with load, and no request
        waits on a clock.

        In QoS mode the queue carries wake tokens, not work: each token
        redeems one :meth:`WeightedDeficitRoundRobin.take`, so the
        batch fills in WDRR order over whatever backlog exists at that
        moment — a flooded tenant's wall of requests interleaves with
        every other backlogged tenant inside the same batch, which is
        exactly the starvation-freedom bound the QoS tests gate.
        """
        while True:
            item = await self._queue.get()
            batch: list[_Work] = []
            while item is not _SENTINEL:
                # QoS: a wake token for the next request in WDRR order.
                work = item if self.qos is None else self.qos.take()
                if work is not None:
                    batch.append(work)
                if len(batch) >= self.config.max_batch \
                        or self._queue.empty():
                    break
                item = self._queue.get_nowait()
            if batch:
                await self._dispatch(batch)
            if item is _SENTINEL:
                return

    def _query_batch_blocking(self, dataset: str | None, queries: list):
        """One coalesced ``query_batch`` call (query-slot thread)."""
        if self.registry is not None:
            return self.registry.query_batch(queries, dataset)
        return self.service.query_batch(queries)

    async def _dispatch(self, batch: list[_Work]) -> None:
        """Run one coalesced batch on the query slot and split results.

        Requests are grouped by dataset — on a single-index daemon that
        is one group, the whole batch — and each group's queries are
        concatenated into a single ``query_batch`` call (results come
        back in input order, so the per-request slices are exact); each
        request's future is resolved with its slice and its
        server-observed latency is sampled.  A service-side exception
        fails that group's requests — ``unknown_dataset`` when a tenant
        was detached between admission and dispatch, ``internal``
        otherwise — without killing the collector or the other groups.
        """
        loop = asyncio.get_running_loop()
        if len(batch) > 1:
            self.stats_counters.batched_requests += len(batch)
        groups: dict[str | None, list[_Work]] = {}
        for work in batch:
            groups.setdefault(work.request.dataset, []).append(work)
        for dataset, members in groups.items():
            queries = [query for work in members
                       for query in work.request.queries]
            self.stats_counters.batches_dispatched += 1
            try:
                results = await loop.run_in_executor(
                    self._pool, self._query_batch_blocking, dataset,
                    queries)
            except Exception as exc:
                if isinstance(exc, UnknownDatasetError):
                    error = ProtocolError(protocol.ERROR_UNKNOWN_DATASET,
                                          str(exc))
                else:
                    self.stats_counters.internal_errors += len(members)
                    error = ProtocolError(protocol.ERROR_INTERNAL, str(exc))
                for work in members:
                    if not work.future.done():
                        work.future.set_exception(error)
                    self._work_done()
                continue
            offset = 0
            now = time.perf_counter()
            for work in members:
                count = len(work.request.queries)
                if not work.future.done():
                    work.future.set_result(results[offset:offset + count])
                offset += count
                self.stats_counters.queries_served += count
                self._latencies.append(now - work.admitted_at)
                if self.qos is not None:
                    self.qos.record_latency(work.request.dataset,
                                            now - work.admitted_at)
                self._work_done()
        if len(self._latencies) > 65536:
            del self._latencies[:32768]

    def _refresh_blocking(self, path: str,
                          dataset: str | None = None) -> dict:
        """Load a dataset and absorb it into the index (refresh slot).

        Runs on the dedicated refresh thread so a dataset absorption
        never occupies the query-dispatch slot; the service-side epoch
        swap is atomic, so queries keep flowing throughout.  In registry
        mode the refresh lands on the named tenant only.
        """
        points = load_points(path)
        if self.registry is not None:
            dataset, epoch = self.registry.refresh(dataset, points)
            self.stats_counters.refreshes += 1
            return {"epoch": epoch, "absorbed": len(points),
                    "dataset": dataset}
        self.service.refresh(points)
        self.stats_counters.refreshes += 1
        return {"epoch": self.service.stats()["epochs"]["current"],
                "absorbed": len(points)}

    # -- request handling ------------------------------------------------------

    def _resolve_dataset(self, request: Request) -> str | None:
        """Validate and default the request's tenant routing up front.

        Single-index daemons reject any ``dataset`` field; registry
        daemons resolve a missing one to the sole tenant and reject
        unknown names with ``unknown_dataset`` *before* admission, so a
        typo never occupies a queue slot.
        """
        if self.registry is None:
            if request.dataset is not None:
                raise ProtocolError(
                    protocol.ERROR_BAD_REQUEST,
                    "this daemon serves a single index; 'dataset' "
                    "routing needs `repro serve --registry`")
            return None
        try:
            return self.registry.resolve(request.dataset)
        except UnknownDatasetError as exc:
            raise ProtocolError(protocol.ERROR_UNKNOWN_DATASET,
                                str(exc)) from exc
        except ValidationError as exc:
            raise ProtocolError(protocol.ERROR_BAD_REQUEST,
                                str(exc)) from exc

    async def _answer(self, request: Request, peer: str) -> str:
        """Serve one decoded request; returns the NDJSON response line."""
        if request.kind == "healthz":
            return protocol.encode_ok(request.id, status="ok",
                                      draining=self._draining)
        if request.kind == "stats":
            return protocol.encode_ok(request.id, stats=self.stats())
        if request.kind == "tenants":
            if self.registry is None:
                raise ProtocolError(
                    protocol.ERROR_BAD_REQUEST,
                    "this daemon serves a single index; tenants need "
                    "`repro serve --registry`")
            return protocol.encode_ok(
                request.id, tenants=self.registry.stats()["tenants"])
        if request.kind == "refresh":
            if self._draining:
                # Count this rejection like any other admission refusal
                # (it used to bump no counter at all — the per-client /
                # per-tenant accounting regression in
                # tests/test_serve_protocol.py pins the fix).
                self.stats_counters.reject(peer, request.dataset,
                                           draining=True)
                raise ProtocolError(protocol.ERROR_SHUTTING_DOWN,
                                    "server is draining",
                                    dataset=request.dataset)
            dataset = self._resolve_dataset(request)
            loop = asyncio.get_running_loop()
            try:
                summary = await loop.run_in_executor(
                    self._refresh_pool, self._refresh_blocking,
                    request.data, dataset)
            except (OSError, ValueError) as exc:
                raise ProtocolError(
                    protocol.ERROR_BAD_REQUEST,
                    f"cannot load dataset {request.data!r}: {exc}") from exc
            return protocol.encode_ok(request.id, **summary)
        dataset = self._resolve_dataset(request)
        if dataset is not None:
            request = dataclasses.replace(request, dataset=dataset)
        work = self._admit(request, peer)
        results = await work.future
        return protocol.encode_results(request.id, results)

    async def _serve_line(self, line: bytes, peer: str) -> str:
        """Decode + serve one NDJSON line, mapping failures to errors."""
        request_id = None
        try:
            request = protocol.decode_request(line)
            request_id = request.id
            return await self._answer(request, peer)
        except ProtocolError as exc:
            retry = exc.retry_after_ms
            if retry is None and exc.code == protocol.ERROR_OVERLOADED:
                retry = self.config.retry_after_ms
            if exc.code in (protocol.ERROR_BAD_REQUEST,
                            protocol.ERROR_UNSUPPORTED_VERSION):
                self.stats_counters.bad_requests += 1
            return protocol.encode_error(request_id, exc.code, exc.message,
                                         retry_after_ms=retry,
                                         dataset=exc.dataset)
        except Exception as exc:  # pragma: no cover - defensive
            self.stats_counters.internal_errors += 1
            return protocol.encode_error(request_id, protocol.ERROR_INTERNAL,
                                         str(exc))

    # -- connection plumbing ---------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Sniff the first line and route to the NDJSON or HTTP handler."""
        self.stats_counters.connections += 1
        peername = writer.get_extra_info("peername") or ("?", 0)
        peer = f"{peername[0]}:{peername[1]}"
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            first = await self._read_line(reader, writer, http=None)
            if not first:
                return
            if first.startswith(_HTTP_METHODS) and b"HTTP/1." in first:
                await self._handle_http(first, reader, writer, peer)
            else:
                await self._handle_ndjson(first, reader, writer, peer)
        except (ConnectionResetError, asyncio.IncompleteReadError,
                _LineTooLong):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels idle handlers; exit quietly so asyncio's
            # connection callback does not log the cancellation.
            pass
        finally:
            if task is not None:
                self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError):  # pragma: no cover
                pass

    async def _handle_ndjson(self, first: bytes,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter,
                             peer: str) -> None:
        """Pipelined NDJSON loop: one responder task per request line.

        Each line spawns a task that serves the request and writes its
        response under a per-connection write lock, so slow (batched)
        queries never block stats/healthz lines behind them and
        responses are never interleaved mid-line.
        """
        lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        async def respond(line: bytes) -> None:
            """Serve one line and write its response frame."""
            payload = await self._serve_line(line, peer)
            async with lock:
                writer.write(payload.encode())
                await writer.drain()

        line = first
        try:
            while line:
                if line.strip():
                    task = asyncio.create_task(respond(line))
                    tasks.add(task)
                    self._conn_tasks.add(task)
                    task.add_done_callback(tasks.discard)
                    task.add_done_callback(self._conn_tasks.discard)
                line = await self._read_line(reader, writer, http=False)
        finally:
            # Requests read before the stream ended are still answered.
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

    async def _handle_http(self, request_line: bytes,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter,
                           peer: str) -> None:
        """One-shot HTTP/1.1 adapter: query/stats/healthz, then close."""
        try:
            method, target, _ = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            await self._write_http(writer, 400,
                                   {"error": "malformed request line"})
            return
        headers: dict[str, str] = {}
        while True:
            line = await self._read_line(reader, writer, http=True)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        # Zeros go first: int() refuses more than 4300 digits.
        length = (headers.get("content-length") or "0").lstrip("0") or "0"
        if not length.isdecimal():
            self.stats_counters.bad_requests += 1
            await self._write_http(writer, 400, {
                "error": f"Content-Length {length!r} is not a "
                         "non-negative integer"})
            return
        if len(length) > len(str(_MAX_LINE)) or int(length) > _MAX_LINE:
            await self._write_http(writer, 413, {"error": "body too large"})
            return
        body = await reader.readexactly(int(length))
        self.stats_counters.http_requests += 1
        await self._route_http(method.upper(), target, body, writer, peer)

    async def _route_http(self, method: str, target: str, body: bytes,
                          writer: asyncio.StreamWriter, peer: str) -> None:
        """Map an HTTP request onto the protocol kinds and respond."""
        target = target.split("?", 1)[0]
        if method == "GET" and target == "/healthz":
            await self._write_http(writer, 200,
                                   {"status": "ok",
                                    "draining": self._draining})
            return
        if method == "GET" and target == "/stats":
            await self._write_http(writer, 200, self.stats())
            return
        if method == "GET" and target == "/tenants" \
                and self.registry is not None:
            await self._write_http(writer, 200,
                                   self.registry.stats()["tenants"])
            return
        if target == "/query" and method != "POST":
            await self._write_http(writer, 405,
                                   {"error": "use POST /query"})
            return
        if method == "POST" and target == "/query":
            envelope: dict
            try:
                parsed = json.loads(body or b"")
                if not isinstance(parsed, dict):
                    raise ValueError("body must be a JSON object")
                envelope = dict(parsed)
            except ValueError as exc:
                self.stats_counters.bad_requests += 1
                await self._write_http(writer, 400, {"error": str(exc)})
                return
            envelope.setdefault("kind", "query")
            response = json.loads(
                await self._serve_line(json.dumps(envelope).encode(), peer))
            if response.get("ok"):
                await self._write_http(writer, 200, response)
                return
            error = response.get("error", {})
            status = {protocol.ERROR_OVERLOADED: 429,
                      protocol.ERROR_SHUTTING_DOWN: 503,
                      protocol.ERROR_UNKNOWN_DATASET: 404,
                      protocol.ERROR_INTERNAL: 500}.get(
                          error.get("code"), 400)
            extra = {}
            if error.get("retry_after_ms") is not None:
                extra["Retry-After"] = str(
                    max(1, round(error["retry_after_ms"] / 1e3)))
            await self._write_http(writer, status, response, extra)
            return
        await self._write_http(writer, 404,
                               {"error": f"no route {method} {target}"})

    async def _read_line(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter, *,
                         http: bool | None) -> bytes:
        """``reader.readline()``, answering a line past ``_MAX_LINE``.

        Such a line gets one error — HTTP 400, or a ``bad_request`` line
        with a null ``id`` — and :class:`_LineTooLong` then ends the
        connection with the line's rest unread.  A connection's first
        line (*http* ``None``) is sniffed for its framing by its head.
        """
        try:
            return await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            return exc.partial
        except asyncio.LimitOverrunError:
            if http is None:
                http = (await reader.read(16)).startswith(_HTTP_METHODS)
        self.stats_counters.bad_requests += 1
        message = f"line longer than {_MAX_LINE} bytes"
        if http:
            await self._write_http(writer, 400, {"error": message})
        else:
            writer.write(protocol.encode_error(
                None, protocol.ERROR_BAD_REQUEST, message).encode())
            await writer.drain()
        raise _LineTooLong(message)

    async def _write_http(self, writer: asyncio.StreamWriter, status: int,
                          payload: dict,
                          extra_headers: dict[str, str] | None = None
                          ) -> None:
        """Emit one ``Connection: close`` HTTP/1.1 JSON response."""
        body = json.dumps(payload).encode()
        reason = _HTTP_REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()

    # -- stats -----------------------------------------------------------------

    def stats(self) -> dict:
        """The service stats snapshot plus this server's ``server`` block.

        The service portion is
        :meth:`DiversityService.stats <repro.service.service.DiversityService.stats>`
        verbatim (same versioned schema as the in-process API); the
        ``server`` section adds admission/batching counters, the
        server-observed latency percentile block
        (:func:`~repro.service.workload.latency_summary`), per-client
        accounting, the per-dataset rejection split and — on a
        QoS-enabled daemon — the WDRR scheduler's snapshot under
        ``server.qos`` (per-tenant quota knobs, queue depth, deficit,
        admission counters and latency percentiles; ``None`` when QoS
        is off).  ``GET /stats`` and the NDJSON ``stats`` kind both
        return exactly this payload.
        """
        payload = self.service.stats()
        payload["server"] = {
            "draining": self._draining,
            "in_flight": self._pending,
            "uptime_seconds": (
                time.perf_counter() - self._started_at
                if self._started_at is not None else 0.0),
            "config": {
                "max_queue": self.config.max_queue,
                "max_batch": self.config.max_batch,
                "retry_after_ms": self.config.retry_after_ms,
                "qos": self.config.qos,
            },
            # Every ServerStats counter, ``clients`` and
            # ``rejected_datasets`` included, as a deep copy.
            **dataclasses.asdict(self.stats_counters),
            "latency": latency_summary(self._latencies),
            "qos": self.qos.stats() if self.qos is not None else None,
        }
        return payload


__all__ = ["ServerConfig", "ServerStats", "DiversityServer"]
