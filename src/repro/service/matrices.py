"""Memory-budgeted, single-flight cache for per-rung distance matrices.

Rung pairwise matrices are the largest resident state of a warm
:class:`~repro.service.service.DiversityService` — ``O(points^2)`` in the
index's dtype per rung (float32 rungs cost half the bytes of float64),
dwarfing the core-sets themselves.  This module makes them
first-class cache citizens:

* **Budget** — total cached bytes are bounded by a budget taken from the
  ``REPRO_MATRIX_BUDGET_MB`` environment variable (or per-service
  override); least-recently-used matrices are evicted before a compute
  whose announced size would overflow it, and again on insert.  ``None``
  means unbudgeted.
* **Single-flight** — concurrent requests for the same rung block on a
  per-key lock while the first requester computes, so a matrix is
  computed exactly once under contention (the throughput benchmark's
  invariant).
* **Stats** — hits / misses / evictions / recomputes (plus raw compute
  count and resident bytes) feed ``service.stats()["matrices"]``, so an
  operator can see when a budget is set too low (recomputes climbing).

A matrix larger than the whole budget is still computed and returned but
never retained, keeping cache-resident memory under the budget at all
times; the caller's reference is its own working memory.

Thread safety: fully safe.  A registry lock guards the entry table,
recency order, stats and byte accounting; compute calls run outside it,
serialized per key by the single-flight locks.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Hashable

import numpy as np

from repro.utils.validation import check_positive_int

#: Environment variable holding the default matrix budget in MiB.
MATRIX_BUDGET_ENV_VAR = "REPRO_MATRIX_BUDGET_MB"


def matrix_budget_from_env() -> int | None:
    """The ``REPRO_MATRIX_BUDGET_MB`` budget in bytes, or ``None`` if unset.

    Malformed or non-positive values degrade to ``None`` (unbudgeted)
    rather than raising — the budget is an operational knob, never a
    correctness requirement.
    """
    raw = os.environ.get(MATRIX_BUDGET_ENV_VAR)
    if raw is None:
        return None
    try:
        megabytes = int(raw)
    except ValueError:
        return None
    return megabytes * 2**20 if megabytes > 0 else None


@dataclass
class MatrixStats:
    """Counters for one :class:`MatrixCache` lifetime.

    ``recomputes`` counts computes of keys that were previously cached
    and then evicted — the budget-pressure signal; ``computes`` counts
    every invocation of a compute callback (first builds included).
    Mutated only under the owning cache's lock; read freely.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    computes: int = 0
    recomputes: int = 0

    def as_dict(self) -> dict:
        """JSON-ready counters (the ``matrices`` block of ``service.stats()``)."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "computes": self.computes,
                "recomputes": self.recomputes}


def _resolve_budget(budget_bytes: int | None) -> int | None:
    """Resolve the shared budget convention: ``None`` env, ``0`` unbudgeted."""
    if budget_bytes is None:
        return matrix_budget_from_env()
    if budget_bytes == 0:
        return None
    return check_positive_int(budget_bytes, "budget_bytes")


class MatrixCache:
    """Keyed store of distance matrices under an optional byte budget.

    Parameters
    ----------
    budget_bytes:
        Maximum total bytes of cached matrices.  ``None`` (the default)
        reads :func:`matrix_budget_from_env`; pass any positive int to
        override, or ``0`` to force unbudgeted regardless of the
        environment.

    Example
    -------
    >>> cache = MatrixCache(budget_bytes=0)
    >>> first = cache.get_or_compute("rung", lambda: np.zeros((2, 2)))
    >>> again = cache.get_or_compute("rung", lambda: np.ones((2, 2)))
    >>> again is first, cache.stats.computes
    (True, 1)
    """

    def __init__(self, budget_bytes: int | None = None):
        self._budget = _resolve_budget(budget_bytes)
        self._entries: OrderedDict[Hashable, np.ndarray] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._key_locks: dict[Hashable, threading.Lock] = {}
        self._ever_cached: set[Hashable] = set()
        #: Weak references to over-budget matrices currently held by
        #: callers: lets concurrent requesters share one compute without
        #: the cache retaining the array (see get_or_compute).
        self._oversize: dict[Hashable, "weakref.ref[np.ndarray]"] = {}
        #: Bumped by clear(); computes that started before a clear must
        #: not park their (now superseded) matrix in the fresh cache.
        self._generation = 0
        self._dtype: str | None = None
        self.stats = MatrixStats()

    @property
    def budget_bytes(self) -> int | None:
        """The byte budget, or ``None`` when unbudgeted."""
        return self._budget

    @property
    def nbytes(self) -> int:
        """Bytes currently resident in the cache (always <= budget)."""
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        """Number of matrices currently resident."""
        with self._lock:
            return len(self._entries)

    def _probe(self, key: Hashable) -> np.ndarray | None:
        # Caller holds self._lock.  Resident entries first; then matrices
        # too large to retain, shared weakly while any caller still holds
        # them (dead references are pruned on sight).
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            return cached
        reference = self._oversize.get(key)
        if reference is not None:
            matrix = reference()
            if matrix is not None:
                return matrix
            del self._oversize[key]
        return None

    def get_or_compute(self, key: Hashable,
                       compute: Callable[[], np.ndarray],
                       nbytes: int = 0) -> np.ndarray:
        """Return the cached matrix for *key*, computing it at most once.

        A hit refreshes recency and returns the cached array.  On a miss
        the caller-supplied *compute* runs under a per-key single-flight
        lock: concurrent requesters of the same key wait for the first
        compute instead of duplicating it, then share its result — for
        over-budget matrices via a weak reference, so sharing works while
        any requester still holds the array without the cache retaining
        it.  The returned array should be treated as read-only shared
        state.

        *nbytes*, the size of the matrix *compute* will return, makes
        room before the compute: LRU entries are evicted until resident
        bytes plus *nbytes* fit the budget, so the resident matrices and
        the one being computed stay within it together.  A matrix larger
        than the whole budget evicts nothing; the default ``0`` announces
        nothing.
        """
        with self._lock:
            cached = self._probe(key)
            if cached is not None:
                self.stats.hits += 1
                return cached
            self.stats.misses += 1
            generation = self._generation
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            # Double-check: a concurrent holder of the key lock may have
            # just inserted the matrix (the single-flight follower path).
            with self._lock:
                cached = self._probe(key)
                if cached is not None:
                    return cached
                if self._budget is not None and nbytes <= self._budget:
                    self._evict_until(self._budget - nbytes, keep=0)
            matrix = np.asarray(compute())
            with self._lock:
                self.stats.computes += 1
                if key in self._ever_cached:
                    self.stats.recomputes += 1
                if generation == self._generation:
                    # A clear() during the compute supersedes the key
                    # space (e.g. an index refresh): serve the matrix but
                    # do not retain it, or a dead-keyed array would stay
                    # resident for the cache's lifetime.
                    self._insert(key, matrix)
            return matrix

    def _insert(self, key: Hashable, matrix: np.ndarray) -> None:
        # Caller holds self._lock.
        self._dtype = str(matrix.dtype)
        if self._budget is not None and matrix.nbytes > self._budget:
            # Oversized for the whole budget: hand it out uncached so
            # resident cache memory never exceeds the budget — but leave
            # a weak reference so concurrent requesters share this
            # compute instead of convoying on the key lock to recompute.
            # Count it as "cached once" so later rebuilds of the same key
            # register as recomputes — the operator's too-low-budget
            # signal must fire for exactly this configuration.
            self._oversize[key] = weakref.ref(matrix)
            self._ever_cached.add(key)
            return
        self._entries[key] = matrix
        self._bytes += matrix.nbytes
        self._ever_cached.add(key)
        if self._budget is not None:
            # The just-inserted key sits at the MRU end and fits the
            # budget on its own (oversize was filtered above): keep it.
            self._evict_until(self._budget, keep=1)

    def _evict_until(self, limit: int, keep: int) -> None:
        # Caller holds self._lock.  Evict LRU entries until resident bytes
        # fit *limit*, sparing the *keep* most recent.  A helper, so no
        # evicted array stays bound to a caller's local during a compute.
        while self._bytes > limit and len(self._entries) > keep:
            _, victim = self._entries.popitem(last=False)
            self._bytes -= victim.nbytes
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every cached matrix and key bookkeeping (stats are kept).

        In-flight computes that started before the clear hand their
        matrix to their caller but do not re-populate the cache — the
        clear marks a new key generation (see :meth:`get_or_compute`).
        """
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._key_locks.clear()
            self._ever_cached.clear()
            self._oversize.clear()
            self._generation += 1

    def purge(self, dataset_id: str, *,
              before_epoch: int | None = None) -> int:
        """Drop one dataset namespace's matrices; returns the count dropped.

        Multi-tenant convention: namespaced keys are tuples opening with
        ``(dataset_id, epoch, ...)`` (see
        :meth:`DiversityService._matrix_for
        <repro.service.service.DiversityService._matrix_for>`).  A
        registry sharing one cache across tenants purges a tenant's
        entries on refresh (*before_epoch* drops only superseded epochs)
        and on eviction/detach (``before_epoch=None`` drops the whole
        namespace) instead of swapping in a successor, which would throw
        away every *other* tenant's resident matrices.  Purging bumps
        the key generation, so in-flight computes still hand their
        matrix to their caller but no longer park it.
        """
        def doomed(key: Hashable) -> bool:
            if not (isinstance(key, tuple) and len(key) >= 2
                    and key[0] == dataset_id):
                return False
            return before_epoch is None or key[1] < before_epoch

        with self._lock:
            victims = [key for key in self._entries if doomed(key)]
            for key in victims:
                self._bytes -= self._entries.pop(key).nbytes
            for table in (self._key_locks, self._oversize):
                for key in [key for key in table if doomed(key)]:
                    del table[key]
            self._ever_cached -= {key for key in self._ever_cached
                                  if doomed(key)}
            self._generation += 1
            return len(victims)

    def successor(self) -> "MatrixCache":
        """A fresh cache for a new key epoch, inheriting budget and stats.

        :meth:`DiversityService.refresh <repro.service.service.DiversityService.refresh>`
        swaps this in instead of clearing the live cache: queries in
        flight across the refresh keep writing to the *old* object (their
        snapshot), which becomes garbage when they finish — so a
        superseded epoch can never pin matrices in the serving cache.
        The successor starts from the current budget (resolved, not
        re-read from the environment) and a snapshot of the lifetime
        stats; updates the old object receives after the swap are not
        folded in.
        """
        with self._lock:
            fresh = MatrixCache(0 if self._budget is None else self._budget)
            fresh.stats = replace(self.stats)
            fresh._dtype = self._dtype
            return fresh

    def contains(self, key: Hashable) -> bool:
        """Non-mutating residency probe: no stats, no recency refresh.

        A probe must not promote entries or distort the hit/miss
        accounting of :meth:`get_or_compute`.
        """
        with self._lock:
            return key in self._entries

    def describe(self) -> dict:
        """JSON-ready snapshot: stats plus dtype, residency and budget."""
        with self._lock:
            payload = self.stats.as_dict()
            payload.update({
                "dtype": self._dtype,
                "cached": len(self._entries),
                "resident_bytes": self._bytes,
                "budget_bytes": self._budget,
            })
            return payload
