"""Zero-copy partition shipping over the shared-memory data plane.

The process-pool executor must get each reducer its partition without
pickling point arrays through the IPC pipe — at 100k+ points the pickle
bytes, not the algorithm, dominate round wall time.  The protocol here:

* the driver publishes the dataset array **once** into a shared-memory
  segment (:class:`SharedDataset`, backed by
  :class:`repro.shm.SharedNDArray`);
* each reducer receives a :class:`SharedPartition` — a tiny picklable
  descriptor ``(shm name, shape, dtype, row selector, metric)`` — and
  attaches to the block on first use (attachments are cached per worker
  process by :mod:`repro.shm`, so a multi-round job maps the segment once
  per worker);
* contiguous selectors resolve to true zero-copy views; fancy-index
  selectors copy *inside the worker*, off the IPC critical path;
* round outputs travel back as index arrays into the shared block wherever
  the algorithm allows, and the driver gathers rows locally
  (:meth:`SharedDataset.take`).

Lifecycle: ``SharedDataset`` is a context manager; the driver unlinks the
segment when the job is done (on Linux, workers holding attachments keep
the mapping alive until they drop it).  A ``weakref.finalize`` backstop
unlinks on garbage collection so crashed drivers do not leak ``/dev/shm``
segments.  Worker attachments keep a cache limit of one
segment — jobs touch exactly one dataset-sized block at a time, and a
stale unlinked segment kept mapped is a dataset's worth of RAM pinned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.metricspace.distance import Metric
from repro.metricspace.points import PointSet
from repro.shm import SharedArrayRef, SharedNDArray

#: A partition row selector: a contiguous ``(start, stop)`` span (zero-copy
#: in the worker) or an explicit index array (gathered in the worker).
Selector = Union[tuple[int, int], np.ndarray]


@dataclass(frozen=True)
class SharedPartition:
    """Picklable descriptor of one partition inside a shared dataset.

    A few dozen bytes (plus the index array for non-contiguous partitions)
    cross the IPC pipe instead of the partition's point rows.  Reducers
    call :meth:`materialize` to get a :class:`PointSet`, and
    :meth:`global_indices` to translate their local row choices back into
    dataset coordinates for the index-set reply path.
    """

    shm_name: str
    shape: tuple[int, int]
    dtype: str
    selector: Selector
    metric: Metric

    def __len__(self) -> int:
        if isinstance(self.selector, tuple):
            start, stop = self.selector
            return stop - start
        return int(self.selector.shape[0])

    def materialize(self) -> PointSet:
        """Resolve the descriptor against shared memory (worker side)."""
        block = SharedArrayRef(name=self.shm_name, shape=self.shape,
                               dtype=self.dtype).resolve()
        if isinstance(self.selector, tuple):
            start, stop = self.selector
            rows = block[start:stop]  # zero-copy view of the shared block
        else:
            rows = block[self.selector]  # gathered inside the worker
        return PointSet(rows, self.metric)

    def global_indices(self, local: Sequence[int]) -> np.ndarray:
        """Translate local row indices to rows of the shared dataset."""
        local = np.asarray(local, dtype=np.intp)
        if isinstance(self.selector, tuple):
            return self.selector[0] + local
        return np.asarray(self.selector, dtype=np.intp)[local]


def resolve_payload(payload):
    """Materialize a :class:`SharedPartition` (pass anything else through).

    Reducers accept payloads that may or may not have gone through shared
    memory; this keeps them agnostic to the executor in use.
    """
    if isinstance(payload, SharedPartition):
        return payload.materialize()
    return payload


class SharedDataset:
    """Driver-side handle for a dataset published to shared memory.

    Parameters
    ----------
    points:
        The dataset to publish.  Rows are copied into the segment once, at
        construction; every partition ships as a descriptor afterwards.

    Example
    -------
    >>> import numpy as np
    >>> ps = PointSet(np.arange(12.0).reshape(6, 2))
    >>> with SharedDataset(ps) as shared:
    ...     ref = shared.partition((2, 5))
    ...     int(ref.materialize().points[0, 0])
    4
    """

    def __init__(self, points: PointSet):
        array = np.ascontiguousarray(points.points)
        self.shape: tuple[int, int] = array.shape
        self.dtype = array.dtype.str
        self.metric = points.metric
        self._owner = SharedNDArray.publish(array)

    @property
    def name(self) -> str:
        """Name of the backing shared-memory segment."""
        return self._owner.ref.name

    def partition(self, selector: Selector) -> SharedPartition:
        """A :class:`SharedPartition` descriptor for *selector*'s rows."""
        if not isinstance(selector, tuple):
            selector = np.asarray(selector, dtype=np.intp)
        return SharedPartition(shm_name=self.name, shape=self.shape,
                               dtype=self.dtype, selector=selector,
                               metric=self.metric)

    def partitions(self, selectors: Sequence[Selector]) -> list[SharedPartition]:
        """Descriptors for a whole partitioning."""
        return [self.partition(selector) for selector in selectors]

    def take(self, indices: np.ndarray) -> np.ndarray:
        """Gather rows by global index (driver side, one local copy)."""
        return self._owner.array[np.asarray(indices, dtype=np.intp)].copy()

    def point_set(self, indices: np.ndarray) -> PointSet:
        """The gathered rows as a :class:`PointSet` over the dataset metric."""
        return PointSet(self.take(indices), self.metric)

    def close(self) -> None:
        """Release and unlink the segment (idempotent)."""
        self._owner.close()

    def __enter__(self) -> "SharedDataset":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
