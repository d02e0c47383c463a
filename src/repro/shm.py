"""Reusable POSIX shared-memory data plane.

One process publishes a numpy array into a named
:class:`multiprocessing.shared_memory.SharedMemory` segment **once**; any
number of worker processes attach by a tiny picklable descriptor
(:class:`SharedArrayRef`) and read the rows zero-copy.  Its consumer is
the MapReduce engine (:mod:`repro.mapreduce.shm`), which ships dataset
partitions to reducer processes as descriptors instead of pickled rows.

Lifecycle: :class:`SharedNDArray` owns its segment and unlinks it on
:meth:`~SharedNDArray.close` (idempotent), with a ``weakref.finalize``
backstop so crashed or careless drivers do not leak ``/dev/shm`` entries.
Worker-side attachments are cached per process because attaching costs a
syscall plus a resource-tracker round trip; reducers stream through one
dataset-sized segment at a time, so the cache holds one.

Resource-tracker accounting: on CPython < 3.13 every attach registers the
segment name with the (pool-shared) resource tracker, whose per-name cache
is a set — worker registrations collapse into the publisher's own entry
and the publisher's unlink balances it.  Explicitly unregistering after
an attach would *break* that accounting (see the PR 2 engine notes); on
3.13+ attachments simply opt out via ``track=False``.  Either way worker
processes never double-register and the tracker stays silent.
"""

from __future__ import annotations

import inspect
import os
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

#: Where Linux exposes POSIX shm segments as files; attachment pruning
#: is a no-op on platforms without it.
_SHM_DIR = "/dev/shm"

#: Whether this interpreter's ``SharedMemory`` supports ``track=`` (3.13+),
#: letting attachments skip resource-tracker registration entirely.
_SUPPORTS_TRACK = "track" in inspect.signature(
    shared_memory.SharedMemory.__init__).parameters

# Per-process cache of attached segments, keyed by segment name.  The
# limit bounds how much unlinked-but-mapped memory a worker can pin:
# MapReduce workers touch one dataset-sized segment at a time.
_ATTACHED: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()
_ATTACH_CACHE_LIMIT = 1


def _evict_attachments() -> None:
    while len(_ATTACHED) > _ATTACH_CACHE_LIMIT:
        _, stale = _ATTACHED.popitem(last=False)
        try:
            stale.close()
        except BufferError:  # pragma: no cover - a view still lives
            pass


def _prune_dead_attachments() -> None:
    """Drop cached attachments whose segment has been unlinked.

    A publisher's close unlinks a segment, but a worker's cached mapping
    keeps the pages alive — and since publishers never reuse names, such
    a mapping can never be hit again; it is pure pinned waste.  Pruning
    on every *new* attach bounds that waste to the window until the next
    unseen segment arrives, which under cache churn is exactly when dead
    segments accumulate.
    """
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux
        return
    for name in list(_ATTACHED):
        if not os.path.exists(os.path.join(_SHM_DIR, name)):
            stale = _ATTACHED.pop(name)
            try:
                stale.close()
            except BufferError:  # pragma: no cover - a view still lives
                pass


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to the named segment, reusing this process's cached mapping.

    On CPython 3.13+ the attachment opts out of resource-tracker
    registration (``track=False``); on older interpreters the
    registration collapses into the publisher's entry (set semantics in
    the shared tracker) and is balanced by the publisher's unlink.
    """
    segment = _ATTACHED.get(name)
    if segment is None:
        _prune_dead_attachments()
        if _SUPPORTS_TRACK:  # pragma: no cover - 3.13+ only
            segment = shared_memory.SharedMemory(name=name, track=False)
        else:
            segment = shared_memory.SharedMemory(name=name)
        _ATTACHED[name] = segment
        _evict_attachments()
    else:
        _ATTACHED.move_to_end(name)
    return segment


def close_attachments() -> None:
    """Drop every cached attachment (best effort; views may pin some)."""
    while _ATTACHED:
        _, stale = _ATTACHED.popitem(last=False)
        try:
            stale.close()
        except BufferError:  # pragma: no cover - a view still lives
            pass


@dataclass(frozen=True)
class SharedArrayRef:
    """Picklable descriptor of one array living in a shared segment.

    A few dozen bytes cross the IPC pipe instead of the array's contents.
    """

    name: str
    shape: tuple
    dtype: str

    @property
    def nbytes(self) -> int:
        """Payload bytes of the segment."""
        return int(np.prod(self.shape)) * np.dtype(self.dtype).itemsize

    def resolve(self) -> np.ndarray:
        """The referenced array as a view over this process's attachment.

        Treat the view as read-only shared state.
        """
        segment = attach_segment(self.name)
        return np.ndarray(self.shape, dtype=np.dtype(self.dtype),
                          buffer=segment.buf)


class SharedNDArray:
    """Publisher-side owner of one array in a shared-memory segment.

    Parameters
    ----------
    shape, dtype:
        Geometry of the payload array.  The segment is created zero-filled
        (the kernel guarantees this for fresh POSIX shm).

    Example
    -------
    >>> owner = SharedNDArray.publish(np.arange(6.0).reshape(2, 3))
    >>> float(owner.ref.resolve()[1, 2])
    5.0
    >>> owner.close()
    """

    def __init__(self, shape: tuple, dtype="float64"):
        shape = tuple(int(side) for side in shape)
        dtype = np.dtype(dtype)
        size = int(np.prod(shape)) * dtype.itemsize
        self._segment = shared_memory.SharedMemory(create=True,
                                                   size=max(size, 1))
        self.ref = SharedArrayRef(name=self._segment.name, shape=shape,
                                  dtype=dtype.str)
        self._array: np.ndarray | None = np.ndarray(
            shape, dtype=dtype, buffer=self._segment.buf)
        self._closed = False
        self._finalizer = weakref.finalize(self, release_segment,
                                           self._segment)

    @classmethod
    def publish(cls, array: np.ndarray) -> "SharedNDArray":
        """Copy *array* into a fresh segment (its one IPC-visible copy)."""
        array = np.ascontiguousarray(array)
        owner = cls(array.shape, array.dtype)
        owner.array[...] = array
        return owner

    @property
    def array(self) -> np.ndarray:
        """The publisher's own view of the payload."""
        if self._array is None:
            raise RuntimeError("SharedNDArray is closed")
        return self._array

    @property
    def nbytes(self) -> int:
        """Total bytes of the backing segment."""
        return self.ref.nbytes

    def close(self) -> None:
        """Release and unlink the segment (idempotent)."""
        if not self._closed:
            self._closed = True
            self._array = None
            self._finalizer.detach()
            release_segment(self._segment)

    def __enter__(self) -> "SharedNDArray":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def release_segment(segment: shared_memory.SharedMemory) -> None:
    """Close and unlink *segment*, tolerating live views and double calls.

    A ``BufferError`` from ``close`` (some view still maps the buffer —
    possible when a finalizer fires before the views die) must not stop
    the unlink: removing the name is what prevents a ``/dev/shm`` leak,
    and the mapping itself dies with its holders.
    """
    try:
        segment.close()
    except BufferError:  # pragma: no cover - views outliving the owner
        pass
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass
