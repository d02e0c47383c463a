"""The simulated MapReduce engine.

A *round* takes a list of reducer inputs (one per reducer), applies a
reducer function to each, and returns the outputs.  The engine measures
wall time and memory (in points, via a caller-provided sizing function) per
round, and can run reducers serially or on a ``ProcessPoolExecutor`` —
real processes, so the scalability experiment measures genuine parallel
speedup rather than GIL-bound threads.

Pool lifecycle
--------------
The process pool is **persistent**: it is created lazily on the first
process round and reused across every subsequent round and job until
:meth:`MapReduceEngine.close` (or the context manager exit, or garbage
collection) shuts it down.  The per-round alternative — spawn a fresh pool,
fork workers, tear it down — costs tens of milliseconds per round and used
to dominate the scalability benchmark.

Reducer functions submitted to the process executor must be picklable
(module-level functions); the library's algorithm module obeys this.
Payloads may be :class:`~repro.mapreduce.shm.SharedPartition` descriptors,
which ship zero-copy through the pipe and resolve against shared memory
inside the worker.
"""

from __future__ import annotations

import time
import weakref
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Any, Callable, Sequence

from repro.exceptions import MemoryBudgetExceededError, ValidationError
from repro.mapreduce.model import JobStats, RoundStats

SizeFn = Callable[[Any], int]


def _default_size(payload: Any) -> int:
    """Best-effort size of a payload in points."""
    try:
        return len(payload)
    except TypeError:
        return 1


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    # wait=False: GC-triggered cleanup must not block the caller; the
    # workers exit as soon as they drain their current item.
    pool.shutdown(wait=False)


class MapReduceEngine:
    """Round-based executor with memory accounting.

    Parameters
    ----------
    parallelism:
        Number of worker processes for the ``"process"`` executor (and the
        nominal reducer count reported in stats).
    executor:
        ``"serial"`` (default; deterministic, zero IPC overhead) or
        ``"process"`` (real multiprocessing, for timing experiments).
    local_memory_limit:
        Optional hard cap on per-reducer memory in points; exceeding it
        raises :class:`MemoryBudgetExceededError`, which is how tests pin
        down the ``M_L`` guarantees of Theorems 6-10.
    """

    def __init__(self, parallelism: int = 1, executor: str = "serial",
                 local_memory_limit: int | None = None):
        if parallelism < 1:
            raise ValidationError(f"parallelism must be >= 1, got {parallelism}")
        if executor not in ("serial", "process"):
            raise ValidationError(f"executor must be 'serial' or 'process', got {executor!r}")
        self.parallelism = parallelism
        self.executor = executor
        self.local_memory_limit = local_memory_limit
        self.stats = JobStats()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_finalizer: weakref.finalize | None = None

    # -- pool lifecycle ----------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.parallelism)
            self._pool_finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent).

        The engine stays usable: the next process round starts a fresh
        pool.
        """
        if self._pool is not None:
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
                self._pool_finalizer = None
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "MapReduceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- job accounting ----------------------------------------------------------
    def begin_job(self) -> JobStats:
        """Start a fresh :class:`JobStats` (the pool, if any, is kept warm).

        The engine outlives individual jobs; each driver-level ``run``
        calls this so its result reports only its own rounds.
        """
        self.stats = JobStats()
        return self.stats

    # -- rounds ------------------------------------------------------------------
    def run_round(
        self,
        inputs: Sequence[Any],
        reducer: Callable[[Any], Any],
        size_fn: SizeFn = _default_size,
    ) -> list[Any]:
        """Apply *reducer* to every input, recording a :class:`RoundStats`."""
        if not inputs:
            raise ValidationError("a MapReduce round needs at least one reducer input")
        start = time.perf_counter()
        if self.executor == "process" and len(inputs) > 1:
            try:
                outputs = list(self._ensure_pool().map(reducer, inputs))
            except BrokenExecutor:
                # A dead worker (OOM kill, native crash) poisons the
                # whole executor.  Drop it so the next round starts a
                # fresh pool instead of failing forever.
                self.close()
                raise
        else:
            outputs = [reducer(payload) for payload in inputs]
        wall = time.perf_counter() - start

        local_memories = [
            size_fn(payload) + size_fn(output)
            for payload, output in zip(inputs, outputs)
        ]
        local_memory = max(local_memories)
        total_memory = sum(size_fn(payload) for payload in inputs)
        stats = RoundStats(
            round_index=self.stats.num_rounds,
            num_reducers=len(inputs),
            local_memory_points=local_memory,
            total_memory_points=total_memory,
            wall_seconds=wall,
        )
        if self.local_memory_limit is not None and local_memory > self.local_memory_limit:
            raise MemoryBudgetExceededError(
                local_memory, self.local_memory_limit,
                context=f"round {stats.round_index}",
            )
        self.stats.add(stats)
        return outputs
