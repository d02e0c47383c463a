"""The build-once / serve-many diversity query service.

:class:`DiversityService` is the systems layer the paper's composability
result (Definition 2) makes possible: the dataset is ingested *once* into a
:class:`~repro.service.index.CoresetIndex` — a ladder of core-set
resolutions per construction family, built through the zero-copy MapReduce
engine — and every subsequent ``(objective, k, eps)`` query is answered
from cached read-only state:

1. **route**: pick the cheapest ladder rung covering the query;
2. **result cache**: a lock-striped LRU keyed on
   ``(dataset_id, epoch, objective, k, seed, rung)`` returns repeated
   queries without touching a solver;
3. **distance-matrix reuse**: per rung, the blocked pairwise matrix is
   computed once — under a memory budget with LRU eviction
   (:class:`~repro.service.matrices.MatrixCache`) — and shared by every
   solver run on that rung; concurrent same-rung queries single-flight on
   a per-rung lock so the matrix is computed exactly once under
   contention;
4. **solve**: the sequential approximation from
   :mod:`repro.diversity.sequential.registry` runs on the tiny core-set —
   in the calling thread, on a thread pool, or on worker *processes* over
   a shared-memory data plane, depending on the pluggable execution
   backend (:mod:`repro.service.executors`).  All three backends return
   bit-identical answers.  Per epoch and rung, one
   :class:`~repro.diversity.sequential.memo.SolverMemo` holds the greedy
   matching and the farthest-point order, so every objective and ``k``
   on that rung slices one shared prefix instead of rerunning the greedy.

Result-cache lookups are **epsilon-aware**: a cached answer solved on a
*larger* covering rung (i.e. for a tighter ``eps``) is valid for any
looser request with the same ``(objective, k, seed)`` — the core-set
guarantee only improves with ``k'`` — so such probes are served from
cache without a solve and counted in :attr:`DiversityService.eps_hits`.

Queries never rebuild core-sets: :attr:`DiversityService.build_calls`
counts rung builds performed by this instance and stays frozen across any
number of queries (the warm-path guarantee the throughput benchmark and
tests assert).  Dataset growth is absorbed by :meth:`DiversityService.refresh`,
which streams the new points through the batched SMM path
(:meth:`~repro.service.index.CoresetIndex.extend`) and atomically swaps in
the extended index.

Thread safety: all query entry points (:meth:`~DiversityService.query`,
:meth:`~DiversityService.query_batch`,
:meth:`~DiversityService.query_concurrent`) and :meth:`~DiversityService.refresh`
are safe to call from multiple threads; counters are mutated under locks
and the index reference is swapped atomically.  Returned
:class:`QueryResult` arrays are views into shared cached state — treat
them as read-only.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.diversity.objectives import Objective, get_objective
from repro.diversity.sequential.memo import SolverMemo
from repro.diversity.sequential.registry import solve_on_matrix
from repro.exceptions import ValidationError
from repro.metricspace.points import PointSet
from repro.service.cache import StripedLRUCache
from repro.service.executors import EXECUTOR_NAMES, create_executor
from repro.service.index import (
    CoresetIndex,
    LadderRung,
    build_coreset_index,
)
from repro.service.matrices import MatrixCache
from repro.service.persist import load_index, save_index
from repro.utils.validation import check_in_range, check_positive_int


#: Version of the canonical request/response/stats schemas.  Embedded in
#: every :meth:`Query.to_dict` / :meth:`QueryResult.to_dict` payload and
#: in :meth:`DiversityService.stats`, and checked by the matching
#: ``from_dict`` constructors — the wire protocol of ``repro serve``
#: (:mod:`repro.service.protocol`) rides on these dicts verbatim.
SCHEMA_VERSION = 1

#: Environment knobs of the float64 verify path (see
#: :meth:`DiversityService._maybe_verify`): ``REPRO_VERIFY_DTYPE=1``
#: enables it, ``REPRO_VERIFY_FRACTION`` samples a fraction of fresh
#: solves (default: all of them), ``REPRO_VERIFY_RTOL`` sets the
#: objective-value tolerance.
VERIFY_DTYPE_ENV_VAR = "REPRO_VERIFY_DTYPE"
VERIFY_FRACTION_ENV_VAR = "REPRO_VERIFY_FRACTION"
VERIFY_RTOL_ENV_VAR = "REPRO_VERIFY_RTOL"
_DEFAULT_VERIFY_RTOL = 1e-4


def _verify_config_from_env() -> tuple[bool, float, float]:
    """``(enabled, fraction, rtol)`` from the environment (best effort)."""
    enabled = os.environ.get(VERIFY_DTYPE_ENV_VAR, "").strip() in (
        "1", "true", "yes", "on")
    try:
        fraction = float(os.environ.get(VERIFY_FRACTION_ENV_VAR, "1.0"))
    except ValueError:
        fraction = 1.0
    try:
        rtol = float(os.environ.get(VERIFY_RTOL_ENV_VAR,
                                    str(_DEFAULT_VERIFY_RTOL)))
    except ValueError:
        rtol = _DEFAULT_VERIFY_RTOL
    return enabled, min(max(fraction, 0.0), 1.0), max(rtol, 0.0)


def _check_schema_version(payload: dict, what: str) -> None:
    """Reject payloads claiming a schema version we do not speak."""
    version = payload.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported {what} schema_version {version!r}; "
            f"this build speaks version {SCHEMA_VERSION}")


@dataclass(frozen=True)
class Query:
    """One diversity request: *k* points maximizing *objective*.

    ``epsilon`` is the approximation slack the caller tolerates; a smaller
    value routes to a larger (more accurate, slower) ladder rung.

    This dataclass is the canonical request schema: :meth:`to_dict` /
    :meth:`from_dict` round-trip it through JSON-ready dicts carrying a
    ``schema_version`` field, and every query entry point takes
    :class:`Query` instances.
    """

    objective: str
    k: int
    epsilon: float = 1.0

    def to_dict(self) -> dict:
        """JSON-ready form, stamped with :data:`SCHEMA_VERSION`."""
        return {"schema_version": SCHEMA_VERSION, "objective": self.objective,
                "k": self.k, "epsilon": self.epsilon}

    @classmethod
    def from_dict(cls, payload: dict) -> "Query":
        """Rebuild a :class:`Query` from a :meth:`to_dict` payload.

        A missing ``schema_version`` is read as the current version (the
        ergonomic wire form); an unknown one, or a ``k`` that is not a
        positive int (``4.7``, ``true`` and ``"4"`` included), raises
        :class:`~repro.exceptions.ValidationError`.
        """
        _check_schema_version(payload, "Query")
        try:
            objective = str(payload["objective"])
            k = check_positive_int(payload["k"], "k")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"malformed Query payload {payload!r}: {exc}") from exc
        return cls(objective, k, float(payload.get("epsilon", 1.0)))


@dataclass(frozen=True)
class QueryResult:
    """Answer to one :class:`Query`.

    ``indices`` select rows of the serving rung's core-set; ``points`` are
    those rows (views into cached state — treat as read-only).  ``cached``
    marks answers served from the LRU without running a solver;
    ``eps_hit`` marks the subset of those served from a cached
    *tighter-epsilon* answer (epsilon-aware reuse).  ``solve_seconds``
    times the solver run; the first miss on a rung also carries the fill
    of the rung's shared greedy prefixes, which later misses only slice.
    ``epoch`` records the index epoch the answer was solved on — every
    result of one batch carries the same epoch (the mixed-epoch safety
    contract of :meth:`DiversityService.refresh`).

    Like :class:`Query`, this is the canonical response schema:
    :meth:`to_dict` / :meth:`from_dict` round-trip every field through
    JSON-ready dicts with a ``schema_version`` stamp.
    """

    objective: str
    k: int
    epsilon: float
    indices: np.ndarray
    points: np.ndarray
    value: float
    rung: tuple[str, int, int]
    cached: bool
    solve_seconds: float
    eps_hit: bool = False
    epoch: int = 0

    def to_dict(self) -> dict:
        """JSON-ready form: arrays become nested lists, rung a list."""
        return {
            "schema_version": SCHEMA_VERSION,
            "objective": self.objective,
            "k": self.k,
            "epsilon": self.epsilon,
            "indices": np.asarray(self.indices).tolist(),
            "points": np.asarray(self.points).tolist(),
            "value": self.value,
            "rung": list(self.rung),
            "cached": self.cached,
            "solve_seconds": self.solve_seconds,
            "eps_hit": self.eps_hit,
            "epoch": self.epoch,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryResult":
        """Rebuild a :class:`QueryResult` from a :meth:`to_dict` payload.

        Bit-exact for every field: JSON serializes float64 via shortest
        round-trip repr, so values and point coordinates survive the trip
        unchanged (the daemon's bit-identity contract rests on this).
        """
        _check_schema_version(payload, "QueryResult")
        try:
            family, k_cap, k_prime = payload["rung"]
            return cls(
                objective=str(payload["objective"]),
                k=int(payload["k"]),
                epsilon=float(payload["epsilon"]),
                indices=np.asarray(payload["indices"], dtype=np.intp),
                points=np.asarray(payload["points"], dtype=np.float64),
                value=float(payload["value"]),
                rung=(str(family), int(k_cap), int(k_prime)),
                cached=bool(payload["cached"]),
                solve_seconds=float(payload["solve_seconds"]),
                eps_hit=bool(payload.get("eps_hit", False)),
                epoch=int(payload.get("epoch", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"malformed QueryResult payload: {exc}") from exc


class DiversityService:
    """Serve many diversity queries from one core-set index.

    Parameters
    ----------
    index:
        A prebuilt (or loaded) :class:`CoresetIndex`.  When omitted, pass
        *points* and *k_max* instead and the index is built lazily on the
        first query (the "cold" path) or eagerly via :meth:`ensure_index`.
    points, k_max, build_options:
        Dataset and parameters for a lazy build; *build_options* are
        forwarded to :func:`repro.service.index.build_coreset_index`
        (``families``, ``multiplier``, ``parallelism``, ``executor``,
        ``seed``, ...).  A prebuilt *index* takes no build options:
        passing any raises :class:`~repro.exceptions.ValidationError`
        rather than ignoring them.
    cache_size:
        Capacity of the LRU result cache.
    cache_stripes:
        Lock stripes of the result cache; threads touching different keys
        contend on different locks.
    matrix_budget_mb:
        Byte budget (in MiB) for cached rung distance matrices.  ``None``
        reads ``REPRO_MATRIX_BUDGET_MB`` from the environment; ``0``
        forces unbudgeted.  Evicted matrices are recomputed on demand
        with identical results (solvers are deterministic on a fixed
        core-set), so the budget trades recompute time for bounded
        resident memory.  In process mode the same budget governs the
        shared-memory matrix segments of each epoch's data plane.
    executor:
        Default execution backend for :meth:`query` / :meth:`query_batch`
        — ``"serial"`` (default), ``"thread"`` or ``"process"`` (see
        :mod:`repro.service.executors`); all three produce bit-identical
        answers.  :meth:`query_concurrent` defaults to ``"thread"`` when
        the service default is serial.  Services using the process
        backend should be :meth:`close`\\ d (or used as a context
        manager) so the worker pool and shared segments are torn down
        deterministically; GC finalizers back that up.
    executor_workers:
        Worker fan-out used when the default backend is ``thread`` or
        ``process`` and the call does not pass ``max_workers``.
    verify_dtype, verify_fraction, verify_rtol:
        The float64 verify path for reduced-precision (float32) indexes:
        when enabled, a sampled fraction of fresh solves is recomputed
        in float64 and compared — objective values within *verify_rtol*,
        selected indices identical or tie-explained — with mismatch
        counters surfaced in ``stats()["verify"]``.  Each ``None``
        defers to the environment (``REPRO_VERIFY_DTYPE=1``,
        ``REPRO_VERIFY_FRACTION``, ``REPRO_VERIFY_RTOL``).  No-op on
        float64 indexes.
    plan:
        Kept for callers that pass ``plan="static"``; any other value
        raises :class:`~repro.exceptions.ValidationError`.  The backend
        always comes from *executor* or the call site.
    dataset_id, matrices, executor_pool:
        Multi-tenant wiring used by
        :class:`~repro.service.registry.IndexRegistry`: *dataset_id*
        namespaces every matrix- and result-cache key, *matrices* injects
        a registry-shared :class:`~repro.service.matrices.MatrixCache`
        (all tenants compete under one budget), and *executor_pool*
        injects a shared :class:`~repro.service.executors.ExecutorPool`
        so every tenant's process queries ride one worker fleet and one
        shared-memory plane.  Standalone services leave all three at
        their defaults and own their caches/backends outright.

    Thread safety: instances are safe to share across threads; see the
    module docstring for the locking model.

    Example
    -------
    >>> from repro.datasets.synthetic import sphere_shell
    >>> service = DiversityService(points=sphere_shell(2000, 8, seed=0),
    ...                            k_max=8, k_min=8, seed=0)
    >>> first = service.query("remote-edge", k=4)
    >>> again = service.query("remote-edge", k=4)
    >>> first.value == again.value, again.cached
    (True, True)
    """

    def __init__(self, index: CoresetIndex | None = None, *,
                 points: PointSet | None = None, k_max: int | None = None,
                 cache_size: int = 128, cache_stripes: int = 8,
                 matrix_budget_mb: int | None = None,
                 executor: str = "serial", executor_workers: int = 4,
                 verify_dtype: bool | None = None,
                 verify_fraction: float | None = None,
                 verify_rtol: float | None = None,
                 plan: str = "static",
                 dataset_id: str = "",
                 matrices: MatrixCache | None = None,
                 executor_pool=None,
                 **build_options):
        if index is None and (points is None or k_max is None):
            raise ValidationError(
                "DiversityService needs either a prebuilt index or "
                "points + k_max for a lazy build")
        if executor not in EXECUTOR_NAMES:
            raise ValidationError(
                f"unknown executor {executor!r}; "
                f"known: {', '.join(EXECUTOR_NAMES)}")
        if plan != "static":
            raise ValidationError(
                f"unknown plan mode {plan!r}; the only one is 'static' — "
                "choose the backend with executor=")
        if index is not None and build_options:
            raise ValidationError(
                "a prebuilt index takes no build options; unknown or "
                f"ignored: {', '.join(sorted(build_options))}")
        self._index = index
        self._points = points
        self._k_max = (None if k_max is None
                       else check_positive_int(k_max, "k_max"))
        self._build_options = build_options
        #: Namespace this service's cache keys live under.  Standalone
        #: services use the empty id; an :class:`~repro.service.registry.
        #: IndexRegistry` assigns each tenant its ``dataset_id`` so two
        #: tenants with identically-shaped rungs can never alias in the
        #: shared matrix plane or the result cache.
        self.dataset_id = str(dataset_id)
        self.cache = StripedLRUCache(cache_size, stripes=cache_stripes)
        if matrix_budget_mb is None:
            budget_bytes: int | None = None  # defer to the environment
        elif matrix_budget_mb == 0:
            budget_bytes = 0  # explicit: unbudgeted
        else:
            budget_bytes = check_positive_int(
                matrix_budget_mb, "matrix_budget_mb") * 2**20
        self._matrix_budget_bytes = budget_bytes
        # A registry injects one shared MatrixCache + ExecutorPool so all
        # tenants compete under one budget; standalone services own theirs.
        self._owns_matrices = matrices is None
        self._matrices = MatrixCache(budget_bytes) if matrices is None \
            else matrices
        self._pool = executor_pool
        self.default_executor = executor
        self.executor_workers = check_positive_int(executor_workers,
                                                   "executor_workers")
        env_enabled, env_fraction, env_rtol = _verify_config_from_env()
        self._verify_enabled = (env_enabled if verify_dtype is None
                                else bool(verify_dtype))
        self._verify_fraction = (env_fraction if verify_fraction is None
                                 else min(max(float(verify_fraction), 0.0),
                                          1.0))
        self._verify_rtol = (env_rtol if verify_rtol is None
                             else max(float(verify_rtol), 0.0))
        self._verify_clock = 0  # fresh solves seen (the sampling stride)
        self.verify_checks = 0
        self.verify_value_mismatches = 0
        self.verify_index_mismatches = 0
        self.verify_ties = 0
        self._executors: dict[str, object] = {}
        self._executors_lock = threading.Lock()
        #: Rung builds performed by this instance; queries never bump it.
        self.build_calls = 0
        self.queries_answered = 0
        self.batches_answered = 0
        self.concurrent_batches = 0
        #: Queries served from a cached tighter-eps answer (epsilon-aware
        #: reuse); a subset of the result cache's counted misses.
        self.eps_hits = 0
        #: Routing decisions taken — exactly one per query answered (the
        #: single-query path shares the batch workspace, it does not
        #: route twice).
        self.routing_decisions = 0
        self.refreshes = 0
        self._epoch = 0
        #: Solver memos of the current epoch, keyed ``(epoch, rung key)``.
        self._memos: dict[tuple, SolverMemo] = {}
        self._build_lock = threading.Lock()
        self._refresh_lock = threading.Lock()
        self._counter_lock = threading.Lock()

    # -- construction ------------------------------------------------------------
    @classmethod
    def from_dataset(cls, points: PointSet, k_max: int, *,
                     cache_size: int = 128,
                     matrix_budget_mb: int | None = None,
                     **build_options) -> "DiversityService":
        """Build the index eagerly and return a warm service."""
        service = cls(points=points, k_max=k_max, cache_size=cache_size,
                      matrix_budget_mb=matrix_budget_mb, **build_options)
        service.ensure_index()
        return service

    @classmethod
    def from_file(cls, path: str | Path, *, cache_size: int = 128,
                  matrix_budget_mb: int | None = None,
                  dtype: str | None = None) -> "DiversityService":
        """Warm-start from an index persisted by :meth:`save` — no build.

        *dtype* casts the loaded index (e.g. ``"float32"`` to serve an
        existing float64 index on the fast path); ``None`` serves it in
        its stored dtype.
        """
        return cls(load_index(path, dtype=dtype), cache_size=cache_size,
                   matrix_budget_mb=matrix_budget_mb)

    @property
    def index(self) -> CoresetIndex | None:
        """The index, or ``None`` before the lazy build has happened."""
        return self._index

    def ensure_index(self) -> CoresetIndex:
        """Build the index now if it does not exist yet.

        Safe under contention: concurrent first queries double-check
        under a build lock, so the lazy build runs exactly once and
        :attr:`build_calls` is bumped exactly once.
        """
        index = self._index
        if index is None:
            with self._build_lock:
                if self._index is None:
                    built = build_coreset_index(self._points, self._k_max,
                                                **self._build_options)
                    with self._counter_lock:
                        self.build_calls += built.build_calls
                    self._index = built
                index = self._index
        return index

    def save(self, path: str | Path) -> None:
        """Persist the index for a later :meth:`from_file` warm start."""
        save_index(self.ensure_index(), path)

    def refresh(self, new_points: PointSet, *,
                batch_size: int | None = None) -> CoresetIndex:
        """Absorb *new_points* into the index without a MapReduce rebuild.

        Streams the new data through the batched SMM path per rung
        (:meth:`CoresetIndex.extend <repro.service.index.CoresetIndex.extend>`),
        then atomically swaps the extended index in: the epoch embedded in
        every cache key is bumped and the result cache, the matrix cache
        and the solver memos are replaced with empty successors, so
        queries in flight during the swap can neither poison the new
        epoch's caches nor evict its entries.  Queries keep being served
        (from the old index) while the extension is computed.

        Returns the new index.  :attr:`build_calls` is not affected —
        refreshes are counted separately in :attr:`refreshes`.
        """
        with self._refresh_lock:
            extended = self.ensure_index().extend(new_points,
                                                  batch_size=batch_size)
            with self._counter_lock:
                # Swap index, epoch and both caches together: _snapshot
                # readers take the same lock, so no query can ever pair
                # the new index with the old epoch (or vice versa) in its
                # cache keys.  The caches are *replaced*, not cleared:
                # queries in flight keep writing to their snapshotted old
                # objects, which die with them — a stale epoch can
                # neither pin matrices in the serving cache nor evict
                # live results from the new epoch's LRU.
                self._index = extended
                self._epoch += 1
                self.refreshes += 1
                epoch = self._epoch
                self.cache = self.cache.successor()
                self._memos = {}
                if self._owns_matrices:
                    self._matrices = self._matrices.successor()
            if not self._owns_matrices:
                # The matrix cache is shared with other tenants, so it
                # cannot be swapped wholesale: drop only this dataset's
                # superseded epochs.  The purge bumps the cache
                # generation, so stale-epoch computes in flight cannot
                # re-park their matrices afterwards.
                self._matrices.purge(self.dataset_id, before_epoch=epoch)
            # Retire superseded process-executor planes promptly: batches
            # in flight hold pins, so their workers still finish on the
            # old epoch's segments; the unlink happens when they drain.
            backends = self._active_backends()
        for backend in backends:
            on_epoch = getattr(backend, "on_epoch", None)
            if on_epoch is not None:
                on_epoch(epoch, self.dataset_id)
        return extended

    def _snapshot(self) -> tuple[CoresetIndex, int, StripedLRUCache,
                                 MatrixCache]:
        """A consistent ``(index, epoch, cache, matrices)`` serving state.

        Results and matrices are cached under keys embedding the epoch;
        reading all four values under the lock :meth:`refresh` swaps
        them under guarantees a query that raced a refresh caches only
        under its own (now dead) epoch and into its own (now superseded)
        cache objects — never stale data in, or pressure on, the live
        ones.
        """
        self.ensure_index()  # after this, _index is never None again
        with self._counter_lock:
            return self._index, self._epoch, self.cache, self._matrices

    # -- queries -----------------------------------------------------------------
    def query(self, objective: str | Objective, k: int,
              epsilon: float = 1.0) -> QueryResult:
        """Answer one ``(objective, k, eps)`` request from cached state."""
        return self.query_batch([Query(get_objective(objective).name, k,
                                       epsilon)])[0]

    def query_batch(self, queries: Iterable[Query], *,
                    executor: str | None = None) -> list[QueryResult]:
        """Answer many requests, sharing work across them.

        Queries are routed first; same-rung cache misses are grouped so the
        rung's blocked pairwise matrix is computed (or fetched) exactly
        once per batch, then each solver runs on the shared matrix —
        in this thread (``serial``, the default), or on the requested
        execution backend (*executor* overrides the service default; the
        ``process`` backend dispatches solves to worker processes over
        the shared-memory data plane with identical answers).  Results
        come back in input order; exact repeats — within the batch or
        across calls — are served from the LRU.
        """
        return self._execute(queries, executor, self.executor_workers,
                             concurrent=False)

    def query_concurrent(self, queries: Iterable[Query],
                         max_workers: int = 4,
                         executor: str | None = None) -> list[QueryResult]:
        """Answer many requests on a worker pool, sharing cached state.

        With the default ``thread`` backend each query independently
        routes, probes the lock-striped result cache, fetches its rung
        matrix through the single-flight
        :class:`~repro.service.matrices.MatrixCache` (concurrent same-rung
        queries compute the matrix exactly once), and solves.  With
        ``executor="process"`` the batch fans out to worker processes
        over the shared-memory data plane instead, sidestepping the GIL
        for the Python-heavy solvers.  Results come back in input order
        and are identical to :meth:`query_batch` on the same service
        state — solvers are deterministic on a fixed core-set.

        Unlike :meth:`query_batch`, two *identical* in-flight thread
        queries may each run the (deterministic) solver if neither has
        been cached yet; the LRU still counts every query as exactly one
        hit or miss.
        """
        check_positive_int(max_workers, "max_workers")
        return self._execute(queries, executor, max_workers, concurrent=True)

    def _execute(self, queries: Iterable[Query], executor: str | None,
                 max_workers: int, concurrent: bool) -> list[QueryResult]:
        """Common query funnel: normalize, snapshot, route, dispatch, count.

        The epsilon-reuse candidates are resolved here, against the
        cache state *at batch start*, and handed to the backend: every
        executor then sees the same reuse set regardless of solve order
        or thread timing, which is what keeps concurrent answers
        bit-identical to ``query_batch`` on mixed-eps workloads.

        The backend is the call site's *executor*, else the service
        default — except that concurrent calls on a serial-default
        service run on ``thread``.
        """
        normalized = [self._normalize(query) for query in queries]
        if not normalized:
            if not concurrent:
                with self._counter_lock:
                    self.batches_answered += 1
            return []
        snapshot = self._snapshot()
        rungs, reuse = self._plan_batch(snapshot, normalized)
        if executor is None:
            if concurrent and self.default_executor == "serial":
                executor = "thread"
            else:
                executor = self.default_executor
        backend = self._executor_obj(executor)
        results = backend.run(self, snapshot, normalized, max_workers,
                              rungs, reuse)
        with self._counter_lock:
            self.queries_answered += len(normalized)
            if concurrent:
                self.concurrent_batches += 1
            else:
                self.batches_answered += 1
        return results

    def _probe_batch(self, snapshot, normalized: list[Query],
                     rungs: list[LadderRung],
                     reuse: dict) -> tuple[list, dict]:
        """Resolve cache hits and group the misses by cache key.

        The one probe loop every batch-shaped backend shares — keeping
        it in a single place is what keeps the serial and process
        executors' probe, stats and in-batch-repeat semantics in
        lockstep (the bit-identity contract).  Returns ``(results,
        groups)``: *results* in input order with hits filled (``None``
        marks a slot to solve), and *groups* mapping each missed cache
        key to ``(rung, members)`` where the first member is the
        occurrence to solve and the rest are in-batch repeats.  Repeats
        defer their counted cache probe to :meth:`_finish_group`, so
        stats count each query exactly once and agree with the cached
        flags actually returned.
        """
        index, epoch, cache, _ = snapshot
        results: list[QueryResult | None] = [None] * len(normalized)
        groups: dict[tuple, tuple[LadderRung, list[tuple[int, Query]]]] = {}
        pending: set[tuple] = set()
        for i, query in enumerate(normalized):
            rung = rungs[i]
            cache_key = (self.dataset_id, epoch, query.objective, query.k,
                         index.seed, rung.key)
            if cache_key not in pending:
                _, hit = self._lookup(cache, epoch, index, query, rung,
                                      reuse)
                if hit is not None:
                    results[i] = hit
                    continue
                pending.add(cache_key)
            entry = groups.get(cache_key)
            if entry is None:
                groups[cache_key] = entry = (rung, [])
            entry[1].append((i, query))
        return results, groups

    def _finish_group(self, cache: StripedLRUCache, cache_key: tuple,
                      result: QueryResult, members: list,
                      results: list) -> None:
        """Memoize one solved group and fill its member result slots.

        In-batch repeats run their deferred, counted probe here.
        Normally that is an LRU hit; interleaved puts may have evicted
        the entry (tiny cache), so the batch-local *result* is the
        fallback — the miss the probe just counted is then accurate,
        and no solver runs either way.
        """
        cache.put(cache_key, result)
        results[members[0][0]] = result
        for i, query in members[1:]:
            hit = cache.get(cache_key)
            if hit is None:
                hit = result
            results[i] = replace(hit, epsilon=query.epsilon, cached=True,
                                 solve_seconds=0.0)

    def _solve_grouped(self, snapshot, normalized: list[Query],
                       rungs: list[LadderRung],
                       reuse: dict) -> list[QueryResult]:
        """The serial grouped solve path (the reference executor's body)."""
        _, epoch, cache, matrices = snapshot
        results, groups = self._probe_batch(snapshot, normalized, rungs,
                                            reuse)
        by_rung: dict[tuple, tuple[LadderRung, list[tuple]]] = {}
        for cache_key, (rung, _members) in groups.items():
            entry = by_rung.get(rung.key)
            if entry is None:
                by_rung[rung.key] = entry = (rung, [])
            entry[1].append(cache_key)
        for rung, cache_keys in by_rung.values():
            dist = self._matrix_for(matrices, epoch, rung)
            for cache_key in cache_keys:
                _, members = groups[cache_key]
                result = self._solve(members[0][1], rung, dist, epoch)
                self._finish_group(cache, cache_key, result, members,
                                   results)
        return results  # type: ignore[return-value]

    def _answer_one(self, index: CoresetIndex, epoch: int,
                    cache: StripedLRUCache, matrices: MatrixCache,
                    query: Query, rung: LadderRung,
                    reuse: dict) -> QueryResult:
        """Serve one pre-routed query: probe, (maybe) solve, memoize."""
        cache_key, hit = self._lookup(cache, epoch, index, query, rung, reuse)
        if hit is not None:
            return hit
        dist = self._matrix_for(matrices, epoch, rung)
        result = self._solve(query, rung, dist, epoch)
        cache.put(cache_key, result)
        return result

    def _plan_batch(self, snapshot, normalized: list[Query],
                    ) -> tuple[list, dict]:
        """Route the batch and resolve its epsilon-reuse answers up front.

        Returns ``(rungs, reuse)``: the rung serving each query (in input
        order — backends consume these instead of re-routing), and the
        epsilon-reuse answers available at batch start keyed by cache
        key.  For each
        query routing to a rung whose own key is absent, cached answers
        of *larger* covering rungs — solved for a tighter ``eps``, hence
        valid for this looser one by the core-set guarantee — are peeked
        without touching stats or recency.  Resolving the whole batch up
        front (instead of peeking live during execution) pins the reuse
        set to the batch-start cache state, so answers do not depend on
        solve order or thread timing and every backend returns identical
        results.

        Each query traverses its covering-rung list exactly once: the
        same candidates feed both the routing decision
        (:meth:`CoresetIndex.select_rung
        <repro.service.index.CoresetIndex.select_rung>`) and the
        eps-reuse scan, and :attr:`routing_decisions` counts one
        decision per query — the single-query :meth:`query` path rides
        this same batch workspace rather than routing on its own.
        """
        index, epoch, cache, _ = snapshot
        rungs: list[LadderRung] = []
        reuse: dict[tuple, QueryResult] = {}
        for query in normalized:
            candidates = index.covering_rungs(query.objective, query.k)
            rung = index.select_rung(candidates, query.objective, query.k,
                                     query.epsilon)
            rungs.append(rung)
            cache_key = (self.dataset_id, epoch, query.objective, query.k,
                         index.seed, rung.key)
            if cache_key in reuse or cache.peek(cache_key) is not None:
                continue
            for other in candidates:
                if other.k_prime <= rung.k_prime:
                    continue
                reusable = cache.peek((self.dataset_id, epoch,
                                       query.objective, query.k,
                                       index.seed, other.key))
                if reusable is not None:
                    reuse[cache_key] = reusable
                    break
        with self._counter_lock:
            self.routing_decisions += len(normalized)
        return rungs, reuse

    def _lookup(self, cache: StripedLRUCache, epoch: int,
                index: CoresetIndex, query: Query, rung: LadderRung,
                reuse: dict) -> tuple[tuple, QueryResult | None]:
        """Counted result-cache probe with epsilon-aware reuse fallback.

        Returns ``(cache_key, hit-or-None)``.  The primary probe counts
        exactly one hit or miss for the query; on a miss, the
        batch-start reuse set from :meth:`_reuse_candidates` may serve a
        tighter-eps answer (counted in :attr:`eps_hits`).
        """
        cache_key = (self.dataset_id, epoch, query.objective, query.k,
                     index.seed, rung.key)
        hit = cache.get(cache_key)
        if hit is not None:
            # Echo the caller's own slack: the cached answer is valid
            # for any epsilon routing to the same rung.
            return cache_key, replace(hit, epsilon=query.epsilon,
                                      cached=True, solve_seconds=0.0)
        reusable = reuse.get(cache_key)
        if reusable is not None:
            with self._counter_lock:
                self.eps_hits += 1
            return cache_key, replace(reusable, epsilon=query.epsilon,
                                      cached=True, eps_hit=True,
                                      solve_seconds=0.0)
        return cache_key, None

    # -- execution backends ------------------------------------------------------
    def _executor_obj(self, name: str):
        """The (lazily created, cached) execution backend called *name*.

        With an injected :class:`~repro.service.executors.ExecutorPool`
        (registry mode) the backend comes from the shared pool instead —
        one process fleet serves every tenant.
        """
        if name not in EXECUTOR_NAMES:
            raise ValidationError(
                f"unknown executor {name!r}; "
                f"known: {', '.join(EXECUTOR_NAMES)}")
        if self._pool is not None:
            return self._pool.get(name)
        with self._executors_lock:
            backend = self._executors.get(name)
            if backend is None or getattr(backend, "closed", False):
                backend = create_executor(
                    name, matrix_budget_bytes=self._matrix_budget_bytes)
                self._executors[name] = backend
            return backend

    def _active_backends(self) -> list:
        """Every live backend this service dispatches to (own or pooled)."""
        if self._pool is not None:
            return self._pool.backends()
        with self._executors_lock:
            return list(self._executors.values())

    def warm_executor(self, executor: str | None = None,
                      max_workers: int | None = None) -> None:
        """Pre-start an execution backend's workers.

        Spawning process workers costs noticeable wall time (a fresh
        interpreter per worker); benchmarks call this before their timed
        region so measured queries/sec reflect serving, not cold starts.
        No-op for the serial and thread backends.
        """
        name = executor or self.default_executor
        workers = (self.executor_workers if max_workers is None
                   else check_positive_int(max_workers, "max_workers"))
        self._executor_obj(name).warm(workers)

    def close(self) -> None:
        """Shut down execution backends and unlink shared serving state.

        After this returns, the process backend's worker pool is gone and
        zero shared-memory segments published by this service remain (the
        leak invariant the tests assert).  The service stays usable —
        backends are recreated lazily on the next query.

        In registry mode (injected matrix cache / executor pool) the
        shared resources outlive this tenant: only this dataset's
        namespace — its matrices, shared segments and worker planes — is
        dropped from them, which is exactly the memory an eviction must
        give back.
        """
        with self._executors_lock:
            backends = list(self._executors.values())
            self._executors.clear()
        for backend in backends:
            backend.close()
        if not self._owns_matrices:
            self._matrices.purge(self.dataset_id)
        if self._pool is not None:
            self._pool.drop_dataset(self.dataset_id)

    def __enter__(self) -> "DiversityService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _memo_for(self, epoch: int, rung: LadderRung) -> SolverMemo:
        """The solver memo of *rung* on *epoch*.

        Only the current epoch's memos are kept, and :meth:`refresh`
        replaces them all; a query still running on a superseded epoch
        gets a private memo, so it reads and fills only its own epoch's
        prefixes.  A memo holds indices, not the matrix, so it stays
        valid when the matrix is evicted and recomputed.
        """
        key = (epoch, rung.key)
        with self._counter_lock:
            memo = self._memos.get(key)
            if memo is None:
                memo = SolverMemo(rung.k_cap)
                if epoch == self._epoch:
                    self._memos[key] = memo
            return memo

    def _solve(self, query: Query, rung: LadderRung,
               dist: np.ndarray, epoch: int = 0) -> QueryResult:
        """Run the sequential solver for *query* on the rung's matrix."""
        objective = get_objective(query.objective)
        memo = self._memo_for(epoch, rung)
        started = time.perf_counter()
        indices = solve_on_matrix(dist, query.k, objective, memo=memo)
        value = objective.value(dist[np.ix_(indices, indices)])
        result = QueryResult(
            objective=objective.name, k=query.k, epsilon=query.epsilon,
            indices=indices, points=rung.coreset.points[indices],
            value=float(value), rung=rung.key, cached=False,
            solve_seconds=time.perf_counter() - started, epoch=epoch,
        )
        self._maybe_verify(rung, result)
        return result

    def _maybe_verify(self, rung: LadderRung, result: QueryResult) -> None:
        """Float64 shadow check of a fast-path (reduced-dtype) solve.

        Enabled by ``REPRO_VERIFY_DTYPE=1`` (or ``verify_dtype=True``),
        and a no-op whenever the rung already stores float64 — there is
        nothing to shadow.  On a sampled fraction of fresh solves the
        rung's matrix is recomputed in float64 and solved again; the
        fast-path answer must match the float64 objective value within
        ``verify_rtol``, and pick the same indices unless the difference
        is a tie (the fast-path selection's float64 value also lands
        within ``verify_rtol``).  Outcomes feed the ``verify`` counters
        in :meth:`stats`.  The shadow solves without the rung's memo,
        whose prefixes belong to the reduced-dtype matrix.
        """
        if not self._verify_enabled or self._verify_fraction <= 0.0:
            return
        if rung.coreset.points.dtype == np.float64:
            return
        stride = max(int(round(1.0 / self._verify_fraction)), 1)
        with self._counter_lock:
            self._verify_clock += 1
            take = self._verify_clock % stride == 0
        if not take:
            return
        objective = get_objective(result.objective)
        dist64 = PointSet(rung.coreset.points.astype(np.float64),
                          metric=rung.coreset.metric).pairwise()
        indices64 = solve_on_matrix(dist64, result.k, objective)
        value64 = float(objective.value(dist64[np.ix_(indices64, indices64)]))
        tol = self._verify_rtol * max(abs(value64), 1e-12)
        value_ok = abs(result.value - value64) <= tol
        if sorted(result.indices) == sorted(indices64):
            index_ok, tie = True, False
        else:
            # Different selections can still be equally diverse: score
            # the fast path's pick under the float64 matrix and accept
            # it as a tie when the objective cannot tell them apart.
            picked = np.asarray(result.indices)
            picked64 = float(objective.value(dist64[np.ix_(picked, picked)]))
            tie = abs(picked64 - value64) <= tol
            index_ok = False
        with self._counter_lock:
            self.verify_checks += 1
            if not value_ok:
                self.verify_value_mismatches += 1
            if not index_ok:
                if tie:
                    self.verify_ties += 1
                else:
                    self.verify_index_mismatches += 1

    def _matrix_for(self, matrices: MatrixCache, epoch: int,
                    rung: LadderRung) -> np.ndarray:
        """The rung's pairwise matrix from the budgeted single-flight cache.

        Both the cache object and the epoch in the key come from the
        query's :meth:`_snapshot`, so a query in flight across a
        :meth:`refresh` writes only to the superseded cache under its own
        dead epoch — it can never seed the serving cache with a matrix
        of the superseded index.  Keys open with :attr:`dataset_id`, so
        a registry-shared cache never aliases two tenants' rungs.  The
        matrix's size is announced, so the budget makes room before the
        compute rather than after it.
        """
        n = len(rung.coreset)
        return matrices.get_or_compute((self.dataset_id, epoch, rung.key),
                                       rung.coreset.pairwise,
                                       n * n * rung.coreset.dtype.itemsize)

    @staticmethod
    def _normalize(query) -> Query:
        """Validate a :class:`Query`, canonicalizing its objective name."""
        if not isinstance(query, Query):
            raise ValidationError(
                f"cannot interpret query {query!r}; pass a "
                "repro.service.Query")
        query = Query(get_objective(query.objective).name, query.k,
                      query.epsilon)
        check_positive_int(query.k, "k")
        check_in_range(query.epsilon, "epsilon", 0.0, 1.0)
        return query

    # -- observability -----------------------------------------------------------
    def stats(self) -> dict:
        """The versioned observability snapshot (stats schema v1).

        One JSON-ready dict, shared verbatim by this in-process API and
        the daemon's ``GET /stats`` (:mod:`repro.service.server`), with a
        ``schema_version`` stamp and six stable sections:

        * ``counters`` — ``queries_answered``, ``batches_answered``,
          ``concurrent_batches``, ``build_calls`` (frozen across
          queries), ``eps_hits`` (queries served from a cached
          tighter-eps answer), ``routing_decisions`` (exactly one per
          query answered);
        * ``caches`` — ``results``: the result-LRU block (``hits`` /
          ``misses`` / ``evictions`` / ``hit_rate`` / ``entries`` /
          ``capacity``);
        * ``matrices`` — ``local``: the in-process
          :class:`~repro.service.matrices.MatrixCache` block;
          ``shared``: the process backend's shared-segment block, or
          ``None`` until that backend exists;
        * ``executors`` — ``default``, ``workers``, ``active`` (backend
          names instantiated so far);
        * ``epochs`` — ``current``, ``refreshes``, ``index_built``,
          ``dtype`` (the index's storage dtype, ``None`` before build);
        * ``verify`` — the float64 shadow-check block: ``enabled`` /
          ``fraction`` / ``rtol`` configuration plus ``checks``,
          ``value_mismatches``, ``index_mismatches``, ``ties`` counters
          (see :meth:`_maybe_verify`).

        The key inventory is documented in ``docs/serving.md`` and
        drift-gated by ``tests/test_docs.py``.
        """
        if self._pool is not None:
            process_backend = self._pool.peek("process")
            active = sorted(self._pool.active())
        else:
            with self._executors_lock:
                process_backend = self._executors.get("process")
                active = sorted(self._executors)
        cache = self.cache
        return {
            "schema_version": SCHEMA_VERSION,
            "counters": {
                "queries_answered": self.queries_answered,
                "batches_answered": self.batches_answered,
                "concurrent_batches": self.concurrent_batches,
                "build_calls": self.build_calls,
                "eps_hits": self.eps_hits,
                "routing_decisions": self.routing_decisions,
            },
            "caches": {
                "results": {**cache.stats.as_dict(), "entries": len(cache),
                            "capacity": cache.capacity},
            },
            "matrices": {
                "local": self._matrices.describe(),
                "shared": (process_backend.stats()
                           if process_backend is not None else None),
            },
            "executors": {
                "default": self.default_executor,
                "workers": self.executor_workers,
                "active": active,
            },
            "epochs": {
                "current": self._epoch,
                "refreshes": self.refreshes,
                "index_built": self._index is not None,
                "dtype": (self._index.dtype
                          if self._index is not None else None),
            },
            "verify": {
                "enabled": self._verify_enabled,
                "fraction": self._verify_fraction,
                "rtol": self._verify_rtol,
                "checks": self.verify_checks,
                "value_mismatches": self.verify_value_mismatches,
                "index_mismatches": self.verify_index_mismatches,
                "ties": self.verify_ties,
            },
        }
