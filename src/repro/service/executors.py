"""Pluggable query-execution backends: ``serial`` / ``thread`` / ``process``.

:class:`~repro.service.service.DiversityService` routes, caches and
accounts for queries; *how* the cache-missed solves actually run is this
module's concern.  Three backends share one contract — answers are
bit-identical to serial ``query_batch`` on the same service state, queries
never build core-sets, and per-rung matrices are computed exactly once:

* :class:`SerialExecutor` — the reference path: same-rung misses are
  grouped so the rung matrix is fetched once, then each solver runs in
  the calling thread.
* :class:`ThreadExecutor` — a thread pool over the same cached state;
  scales while the solve is numpy-dominated (the GIL is released inside
  the kernels) but gates at ~2x for the Python-heavy solvers.
* :class:`ProcessExecutor` — real processes over a **shared-memory data
  plane** (:mod:`repro.shm`): the driver publishes each serving rung's
  core-set rows once per epoch and leases zero-filled matrix segments
  from a :class:`~repro.service.matrices.SharedMatrixCache`; workers
  attach by descriptor, fill each matrix exactly once under a striped
  cross-process lock (:func:`repro.shm.fill_once`) and reply with
  index-based answers — point rows never cross the IPC pipe in either
  direction.  Each task also carries the rung's known solver-memo
  prefixes and returns any it extended; the driver keeps the longer, so
  workers hold no memo state.

Epoch semantics: the process executor keeps one :class:`_EpochPlane` of
published core-sets per ``(dataset, epoch)`` and **one**
:class:`~repro.service.matrices.SharedMatrixCache` across all of them,
keyed ``(dataset_id, epoch, rung)`` — the single budget every tenant of
an :class:`ExecutorPool`-backed registry competes under.  A refresh
retires the dataset's superseded planes and purges its superseded matrix
keys, but a batch in flight holds pins, so its workers finish against
the old epoch's segments while new queries route to the new epoch; the
retired segments are unlinked when the last pin releases.
:meth:`ProcessExecutor.close` (with GC finalizers on every segment as
backstop) leaves zero ``/dev/shm`` entries behind.

Thread safety: executors are owned by one service and may be invoked from
many threads; plane bookkeeping is lock-guarded and the worker pool is
``concurrent.futures``-managed.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

from repro import shm
from repro.diversity.objectives import get_objective
from repro.diversity.sequential.memo import SolverMemo
from repro.diversity.sequential.registry import solve_on_matrix
from repro.exceptions import ValidationError
from repro.metricspace.distance import Metric
from repro.metricspace.points import PointSet
from repro.service.matrices import MatrixLease, SharedMatrixCache

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.service.index import LadderRung
    from repro.service.service import DiversityService, Query, QueryResult

#: Names accepted by ``DiversityService(executor=...)`` and the CLI.
EXECUTOR_NAMES = ("serial", "thread", "process")

#: Cross-process single-flight stripes (locks shared with every worker).
DEFAULT_LOCK_STRIPES = 8

#: Attached-segment cache capacity inside query workers: batches revisit
#: several small core-set and matrix segments, unlike MapReduce workers.
WORKER_ATTACH_CACHE = 64

# -- worker-process side -------------------------------------------------------

_WORKER_LOCKS: list | None = None


def _init_worker(stripe_locks: list, attach_cache_limit: int) -> None:
    """Pool initializer: install the stripe locks and attach-cache limit."""
    global _WORKER_LOCKS
    _WORKER_LOCKS = stripe_locks
    shm.set_attachment_cache_limit(attach_cache_limit)


def _warm_worker(seconds: float) -> int:
    """Warmup task: hold a worker long enough to force the pool to spawn."""
    time.sleep(seconds)
    return os.getpid()


def _solve_query(coreset_ref: shm.SharedArrayRef,
                 matrix_ref: shm.SharedArrayRef, stripe: int,
                 metric: Metric, objective_name: str, k: int,
                 k_cap: int, pairs: tuple, order: tuple) -> tuple:
    """Solve one routed query against the shared data plane (worker side).

    Attaches the rung's core-set rows and matrix segment by descriptor;
    the first caller per segment fills the matrix under its stripe lock
    (identical bytes to the driver's own ``pairwise`` — same rows, same
    blocked kernel, same tile sizing), everyone else reads it.  The solve
    starts from the driver's memo prefixes *pairs* and *order*.  Returns
    ``(indices, value, solve_seconds, computed_matrix, pairs, order)`` —
    indices into the rung core-set, never point rows, and the memo
    prefixes this solve extended (empty when it only sliced).
    """
    rows = coreset_ref.resolve()

    def compute() -> np.ndarray:
        """Blocked pairwise matrix of the attached core-set rows."""
        return PointSet(rows, metric).pairwise()

    dist, computed = shm.fill_once(matrix_ref, _WORKER_LOCKS[stripe], compute)
    objective = get_objective(objective_name)
    memo = SolverMemo(k_cap, pairs=pairs, order=order)
    started = time.perf_counter()
    indices = solve_on_matrix(dist, k, objective, memo=memo)
    value = float(objective.value(dist[np.ix_(indices, indices)]))
    return (np.asarray(indices, dtype=np.intp), value,
            time.perf_counter() - started, computed,
            memo.pairs if len(memo.pairs) > len(pairs) else (),
            memo.order if len(memo.order) > len(order) else ())


# -- driver side ---------------------------------------------------------------

class SerialExecutor:
    """The reference backend: grouped, in-thread solves (PR 3 semantics)."""

    name = "serial"

    def run(self, service: "DiversityService", snapshot,
            normalized: "list[Query]", max_workers: int,
            rungs: "list[LadderRung]", reuse: dict):
        """Delegate to the service's grouped serial solve path."""
        return service._solve_grouped(snapshot, normalized, rungs, reuse)

    def warm(self, max_workers: int) -> None:
        """Nothing to pre-start for in-thread execution."""

    def close(self) -> None:
        """Nothing to shut down for in-thread execution."""


class ThreadExecutor:
    """Thread-pool backend over the shared in-process caches."""

    name = "thread"

    def run(self, service: "DiversityService", snapshot,
            normalized: "list[Query]", max_workers: int,
            rungs: "list[LadderRung]", reuse: dict):
        """Fan the queries over a thread pool (one ``_answer_one`` each)."""
        workers = min(max_workers, len(normalized))
        with ThreadPoolExecutor(max_workers=workers,
                                thread_name_prefix="repro-query") as pool:
            index, epoch, cache, matrices = snapshot
            return list(pool.map(
                lambda pair: service._answer_one(index, epoch, cache,
                                                 matrices, pair[0], pair[1],
                                                 reuse),
                zip(normalized, rungs)))

    def warm(self, max_workers: int) -> None:
        """Threads start instantly; nothing to pre-start."""

    def close(self) -> None:
        """Per-call pools are already torn down; nothing persists."""


class _EpochPlane:
    """One ``(dataset, epoch)``'s published core-set segments.

    Created lazily on the first process batch of a dataset's epoch; rung
    core-sets publish once on demand.  Matrix segments live in the
    executor's single :class:`~repro.service.matrices.SharedMatrixCache`
    (keyed by ``(dataset_id, epoch, rung)``), not here — one budget
    governs every tenant's matrices.  Batches pin the plane for their
    duration (:meth:`acquire` / :meth:`release`); a :meth:`retire` from a
    newer epoch defers the actual unlink until the last pin drains, which
    is how an in-flight worker finishes on the old epoch's segments while
    new queries route to the new epoch.  *transient* marks the private,
    self-retiring planes handed to stale-epoch straggler batches — their
    matrix leases bypass residency so a dead epoch can never re-enter
    the shared cache.
    """

    def __init__(self, dataset_id: str, epoch: int, *,
                 transient: bool = False):
        self.dataset_id = dataset_id
        self.epoch = epoch
        self.transient = transient
        self._coresets: dict[tuple, shm.SharedNDArray] = {}
        self._lock = threading.Lock()
        self._pins = 0
        self._retired = False
        self._closed = False

    def coreset_ref(self, rung: "LadderRung") -> shm.SharedArrayRef:
        """The rung's published core-set rows (publishing on first use)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("epoch plane is closed")
            owner = self._coresets.get(rung.key)
            if owner is None:
                owner = shm.SharedNDArray.publish(rung.coreset.points)
                self._coresets[rung.key] = owner
            return owner.ref

    def acquire(self) -> None:
        """Pin the plane for one in-flight batch."""
        with self._lock:
            if self._closed:
                raise RuntimeError("epoch plane is closed")
            self._pins += 1

    def release(self) -> None:
        """Drop a batch's pin; a retired plane closes on the last one."""
        with self._lock:
            self._pins = max(self._pins - 1, 0)
            drain = self._retired and self._pins == 0 and not self._closed
        if drain:
            self.close()

    def retire(self) -> None:
        """Mark superseded; unlink now or when the last pin releases."""
        with self._lock:
            self._retired = True
            drain = self._pins == 0 and not self._closed
        if drain:
            self.close()

    def close(self) -> None:
        """Unlink every segment this plane published (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            owners = list(self._coresets.values())
            self._coresets.clear()
        for owner in owners:
            owner.close()

    @property
    def segment_names(self) -> list[str]:
        """Names of the core-set segments currently published (testing)."""
        with self._lock:
            return [owner.ref.name for owner in self._coresets.values()]


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    pool.shutdown(wait=False)


def _reap_broken_pool(pool: ProcessPoolExecutor) -> None:
    """Shut down a pool broken by a dead worker, without hanging.

    A submit that races the break can spawn a worker after the pool's
    manager thread has terminated the others.  The manager thread then
    waits on that worker forever, and ``shutdown(wait=True)`` would wait
    on the manager thread.  ``shutdown`` takes the lock every submit
    holds, so once it returns no worker can be spawned, and terminating
    every worker left lets the manager thread finish.
    """
    manager = pool._executor_manager_thread
    processes = pool._processes or {}
    pool.shutdown(wait=False)
    for process in list(processes.values()):
        process.terminate()
    if manager is not None:
        manager.join()


class ProcessExecutor:
    """Process-pool backend over the shared-memory data plane.

    Parameters
    ----------
    matrix_budget_bytes:
        Budget convention of :class:`~repro.service.matrices.MatrixCache`
        (``None`` environment, ``0`` unbudgeted, else bytes), applied to
        each epoch plane's shared matrix segments.
    stripes:
        Cross-process single-flight lock stripes.

    The worker pool uses the **spawn** context: workers never inherit the
    driver's threads or locks mid-state, and the resource-tracker
    accounting stays with the driver's tracker (see :mod:`repro.shm`).
    The pool persists across batches; it is (re)created lazily for the
    requested worker count and shut down by :meth:`close` or a GC
    finalizer.  A pool broken by a dead worker is replaced, and the
    batch that saw it break is resubmitted once (see :meth:`_map`).
    """

    name = "process"

    def __init__(self, matrix_budget_bytes: int | None = None,
                 stripes: int = DEFAULT_LOCK_STRIPES):
        self._budget = matrix_budget_bytes
        self._stripes = stripes
        self._ctx = multiprocessing.get_context("spawn")
        self._locks = [self._ctx.Lock() for _ in range(stripes)]
        self._pool: ProcessPoolExecutor | None = None
        self._pool_workers = 0
        self._pool_finalizer: weakref.finalize | None = None
        #: One matrix cache across every dataset and epoch, keyed
        #: ``(dataset_id, epoch, rung)``: the single budget all tenants
        #: of a registry compete under, with lifetime stats that survive
        #: refreshes (a refresh purges the superseded keys, it does not
        #: swap the cache).
        self._matrices = SharedMatrixCache(matrix_budget_bytes)
        self._planes: dict[tuple[str, int], _EpochPlane] = {}
        #: Highest epoch seen per dataset (batches or refresh
        #: notifications); batches snapshotted below it get a transient,
        #: self-retiring plane instead of resurrecting a dead epoch.
        self._ceiling: dict[str, int] = {}
        self._lock = threading.Lock()
        self.closed = False

    # -- pool lifecycle ----------------------------------------------------------
    def _ensure_pool(self, max_workers: int) -> ProcessPoolExecutor:
        # Grow-only: a request below the current pool size reuses the
        # larger pool (tearing down and respawning interpreters on every
        # width change would cost hundreds of milliseconds per worker —
        # e.g. a service alternating query_batch with a narrower
        # query_concurrent).  Sweeps wanting an exact width use a fresh
        # service per width, as the throughput harness does.
        with self._lock:
            if self._pool is not None and self._pool_workers >= max_workers:
                return self._pool
            self._drop_pool()
            self._pool = ProcessPoolExecutor(
                max_workers=max_workers, mp_context=self._ctx,
                initializer=_init_worker,
                initargs=(self._locks, WORKER_ATTACH_CACHE))
            self._pool_workers = max_workers
            self._pool_finalizer = weakref.finalize(self, _shutdown_pool,
                                                    self._pool)
            self.closed = False
            return self._pool

    def _drop_pool(self) -> None:
        # Caller holds self._lock.
        if self._pool is not None:
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
                self._pool_finalizer = None
            if self._pool._broken:
                _reap_broken_pool(self._pool)
            else:
                self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_workers = 0

    def _map(self, max_workers: int, fn, calls: list[tuple]) -> list:
        """``fn(*args)`` for every entry of *calls* on the pool, in order.

        A dead worker breaks the pool.  The broken pool is then dropped,
        unless a concurrent batch already replaced it, and so are the
        stripe locks: a worker killed inside :func:`repro.shm.fill_once`
        may have died holding one.  Its half-filled segment still has
        its ready flag unset, so the next worker to fill it starts over.
        Every call is then resubmitted once on a fresh pool; solves are
        deterministic, so the retry returns the same answers.  A second
        break propagates.  A submit that races the break may instead
        fail to spawn a worker on the pool's torn-down queues (an
        ``OSError`` or ``ValueError``), so any error on a pool marked
        broken counts as the break.
        """
        retried = False
        while True:
            pool = self._ensure_pool(max_workers)
            try:
                futures = [pool.submit(fn, *args) for args in calls]
                return [future.result() for future in futures]
            except Exception:
                if not pool._broken:
                    raise
                with self._lock:
                    if self._pool is pool:
                        self._drop_pool()
                        self._locks = [self._ctx.Lock()
                                       for _ in range(self._stripes)]
                if retried:
                    raise
                retried = True

    def warm(self, max_workers: int) -> None:
        """Spawn (and wait for) all *max_workers* workers up front.

        Worker spawn costs hundreds of milliseconds each (a fresh
        interpreter imports numpy and this package); benchmarks call this
        before the timed region so measured queries/sec reflect serving,
        not cold starts.
        """
        self._map(max_workers, _warm_worker, [(0.2,)] * max_workers)

    # -- plane lifecycle ---------------------------------------------------------
    def _plane_for(self, epoch: int, dataset_id: str = "") -> _EpochPlane:
        key = (dataset_id, epoch)
        with self._lock:
            ceiling = self._ceiling.get(dataset_id, -1)
            if epoch < ceiling and key not in self._planes:
                # A batch that snapshotted an epoch already superseded by
                # a refresh (and whose plane has been retired): give it a
                # private plane that is never registered — it drains with
                # the batch instead of resurrecting a dead epoch's
                # segments.
                plane = _EpochPlane(dataset_id, epoch, transient=True)
                plane.acquire()
                plane.retire()  # pinned, so this defers close to release
                return plane
            self._ceiling[dataset_id] = max(ceiling, epoch)
            plane = self._planes.get(key)
            if plane is None:
                plane = _EpochPlane(dataset_id, epoch)
                self._planes[key] = plane
            stale = [self._planes.pop(k) for k in list(self._planes)
                     if k[0] == dataset_id and k[1] < epoch]
            plane.acquire()
        for old in stale:
            old.retire()
        return plane

    def on_epoch(self, epoch: int, dataset_id: str = "") -> None:
        """Retire the dataset's planes and matrices superseded by *epoch*."""
        with self._lock:
            self._ceiling[dataset_id] = max(
                self._ceiling.get(dataset_id, -1), epoch)
            stale = [self._planes.pop(k) for k in list(self._planes)
                     if k[0] == dataset_id and k[1] < epoch]
        for old in stale:
            old.retire()
        # Superseded matrix segments unlink now (or, if an in-flight
        # batch still pins them, when its last lease releases).
        self._matrices.purge(dataset_id, before_epoch=epoch)

    def drop_dataset(self, dataset_id: str) -> None:
        """Drop one dataset's entire namespace: planes, matrices, ceiling.

        The eviction/detach hook of the multi-tenant registry — after
        this returns (and in-flight pins drain), the dataset holds no
        shared-memory segments, which is the memory an eviction must
        give back.  The dataset can come back later: its ceiling is
        forgotten, so a faulted-in tenant restarts cleanly at its
        current epoch.
        """
        with self._lock:
            stale = [self._planes.pop(k) for k in list(self._planes)
                     if k[0] == dataset_id]
            self._ceiling.pop(dataset_id, None)
        for old in stale:
            old.retire()
        self._matrices.purge(dataset_id)

    # -- execution ---------------------------------------------------------------
    def run(self, service: "DiversityService", snapshot,
            normalized: "list[Query]", max_workers: int,
            rungs: "list[LadderRung]", reuse: dict):
        """Serve a batch: probe driver-side, solve misses in workers.

        Mirrors the serial grouped path exactly — per-query counted cache
        probes (in-batch repeats defer theirs until after the solve),
        one dispatched solve per distinct cache key, results memoized in
        the driver's LRU — so answers, ``cached`` flags and cache stats
        are all identical to ``query_batch`` on the same state.  Tasks
        carry their rung's memo prefixes as the batch starts; prefixes a
        worker extended are merged back into the driver's memo.

        Every reply is collected before any result is memoized, so a
        batch resubmitted after a worker death probes and counts each
        query once.
        """
        from repro.service.service import QueryResult  # lazy: avoids a cycle

        _, epoch, cache, _ = snapshot
        dataset_id = getattr(service, "dataset_id", "")
        plane = self._plane_for(epoch, dataset_id)
        # Pin the cache object for the whole batch: leases taken here are
        # released on the same object even if close() swaps in a fresh one
        # concurrently.
        matrices = self._matrices
        leases: dict[tuple, tuple[shm.SharedArrayRef, MatrixLease]] = {}
        memos: dict[tuple, SolverMemo] = {}
        try:
            results, groups = service._probe_batch(snapshot, normalized,
                                                   rungs, reuse)
            calls = []
            for rung, members in groups.values():
                pair = leases.get(rung.key)
                if pair is None:
                    coreset_ref = plane.coreset_ref(rung)
                    lease = matrices.lease(
                        (dataset_id, epoch) + rung.key, len(rung.coreset),
                        dtype=rung.coreset.points.dtype,
                        transient=plane.transient)
                    pair = (coreset_ref, lease)
                    leases[rung.key] = pair
                coreset_ref, lease = pair
                stripe = hash(lease.ref.name) % self._stripes
                query = members[0][1]
                memo = memos.setdefault(rung.key,
                                        service._memo_for(epoch, rung))
                calls.append((coreset_ref, lease.ref, stripe,
                              rung.coreset.metric, query.objective, query.k,
                              rung.k_cap, memo.pairs, memo.order))
            replies = self._map(max_workers, _solve_query, calls)
            for (cache_key, (rung, members)), reply in zip(groups.items(),
                                                            replies):
                indices, value, seconds, computed, pairs, order = reply
                if computed:
                    matrices.note_computed((dataset_id, epoch) + rung.key)
                memos[rung.key].merge(pairs, order)
                first_query = members[0][1]
                result = QueryResult(
                    objective=first_query.objective, k=first_query.k,
                    epsilon=first_query.epsilon, indices=indices,
                    points=rung.coreset.points[indices], value=value,
                    rung=rung.key, cached=False, solve_seconds=seconds,
                    epoch=epoch)
                service._maybe_verify(rung, result)
                service._finish_group(cache, cache_key, result, members,
                                      results)
            return results
        finally:
            for _, lease in leases.values():
                matrices.release(lease)
            plane.release()

    # -- observability / shutdown ------------------------------------------------
    def segment_names(self) -> list[str]:
        """Every shared segment currently published across all planes.

        The leak tests assert these names disappear from ``/dev/shm``
        after :meth:`close` (and after an epoch retirement drains).
        """
        with self._lock:
            planes = list(self._planes.values())
            matrices = self._matrices
        names: list[str] = []
        for plane in planes:
            names.extend(plane.segment_names)
        names.extend(matrices.segment_names())
        return names

    def stats(self) -> dict:
        """The shared matrix cache's block plus plane bookkeeping.

        One cache spans every dataset and epoch, so lifetime counters
        survive refreshes by construction; before any batch has run it
        reports an empty cache at the configured budget.  ``epoch`` is
        the newest epoch with a live plane (across datasets).
        """
        with self._lock:
            plane_keys = list(self._planes)
            matrices = self._matrices
        payload = matrices.describe()
        payload["planes"] = len(plane_keys)
        payload["epoch"] = max((k[1] for k in plane_keys), default=None)
        return payload

    def close(self) -> None:
        """Shut down the pool and unlink every shared segment (idempotent).

        Core-set planes are *retired*, not force-closed: a batch
        concurrently in flight keeps its pins and drains on its own plane
        (segments unlink on its last release); with no batch in flight —
        the usual case — retirement unlinks immediately.  The shared
        matrix cache is closed outright and replaced with a fresh one, so
        a quiesced service leaves zero segments behind the moment this
        returns and the executor stays reusable.
        """
        with self._lock:
            self._drop_pool()
            planes = [self._planes.pop(k) for k in list(self._planes)]
            self._ceiling.clear()
            matrices = self._matrices
            self._matrices = SharedMatrixCache(self._budget)
            self.closed = True
        for plane in planes:
            plane.retire()
        matrices.close()


def create_executor(name: str, *,
                    matrix_budget_bytes: int | None = None):
    """Instantiate the execution backend called *name*.

    Raises
    ------
    ValidationError
        If *name* is not one of :data:`EXECUTOR_NAMES`.
    """
    if name == "serial":
        return SerialExecutor()
    if name == "thread":
        return ThreadExecutor()
    if name == "process":
        return ProcessExecutor(matrix_budget_bytes=matrix_budget_bytes)
    raise ValidationError(
        f"unknown executor {name!r}; known: {', '.join(EXECUTOR_NAMES)}")


class ExecutorPool:
    """One set of execution backends shared by every tenant of a registry.

    A standalone :class:`~repro.service.service.DiversityService` creates
    its own backends; in registry mode every tenant's service receives
    this pool instead, so all tenants ride **one** process fleet and one
    shared-memory matrix plane (the :class:`ProcessExecutor`'s single
    :class:`~repro.service.matrices.SharedMatrixCache`, with keys
    namespaced by ``(dataset_id, epoch, rung)``).

    Parameters
    ----------
    matrix_budget_bytes:
        Budget convention of :class:`~repro.service.matrices.MatrixCache`
        (``None`` environment, ``0`` unbudgeted, else bytes) applied to
        the pooled process executor's shared segments — the registry's
        single global budget.

    Thread safety: fully safe; backends are created lazily under a lock
    and are themselves thread-safe.
    """

    def __init__(self, matrix_budget_bytes: int | None = None):
        self._budget = matrix_budget_bytes
        self._backends: dict[str, object] = {}
        self._lock = threading.Lock()

    def get(self, name: str):
        """The pooled backend called *name*, creating it lazily."""
        if name not in EXECUTOR_NAMES:
            raise ValidationError(
                f"unknown executor {name!r}; "
                f"known: {', '.join(EXECUTOR_NAMES)}")
        with self._lock:
            backend = self._backends.get(name)
            if backend is None or getattr(backend, "closed", False):
                backend = create_executor(
                    name, matrix_budget_bytes=self._budget)
                self._backends[name] = backend
            return backend

    def peek(self, name: str):
        """The pooled backend called *name*, or ``None`` if never created."""
        with self._lock:
            return self._backends.get(name)

    def backends(self) -> list:
        """Every backend instantiated so far."""
        with self._lock:
            return list(self._backends.values())

    def active(self) -> list[str]:
        """Names of the backends instantiated so far (sorted)."""
        with self._lock:
            return sorted(self._backends)

    def drop_dataset(self, dataset_id: str) -> None:
        """Drop one dataset's namespace from every pooled backend."""
        for backend in self.backends():
            drop = getattr(backend, "drop_dataset", None)
            if drop is not None:
                drop(dataset_id)

    def segment_names(self) -> list[str]:
        """Every shared segment currently published by pooled backends."""
        names: list[str] = []
        for backend in self.backends():
            segment_names = getattr(backend, "segment_names", None)
            if segment_names is not None:
                names.extend(segment_names())
        return names

    def stats(self) -> dict | None:
        """The pooled process backend's stats block, or ``None``."""
        backend = self.peek("process")
        return backend.stats() if backend is not None else None

    def close(self) -> None:
        """Shut down every pooled backend; zero segments remain after."""
        with self._lock:
            backends = list(self._backends.values())
            self._backends.clear()
        for backend in backends:
            backend.close()
