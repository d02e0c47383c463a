"""SMM: the streaming doubling core-set algorithm (Section 4).

SMM is a variant of the 8-approximation doubling algorithm for k-center of
Charikar et al. [13].  It maintains a set ``T`` of at most ``k' + 1``
centers and a distance threshold ``d`` that doubles whenever ``T``
overflows.  Each *phase* consists of

* a **merge step** — a greedy maximal independent set of the threshold
  graph on ``T`` (edges between centers within ``2d``), which shrinks ``T``
  while preserving coverage; and
* an **update step** — new stream points within ``4d`` of a current center
  are discarded (or absorbed by subclasses), farther points join ``T``.

The phase invariants (coverage within ``2d``, pairwise separation at least
``d``) yield the range bound ``r_T <= 8 r*_{k'}`` of [13], which combined
with the doubling-dimension argument of Lemma 3 gives the
``(eps'/2) rho*_k`` proxy-distance bound that makes ``T`` a
``(1 + eps)``-core-set (Theorem 1).

To guarantee ``|T| >= k`` at the end of the stream, the algorithm retains
the set ``M`` of centers removed by the most recent merge and pads from it
if needed.

Implementation notes
--------------------
* Points can be processed one at a time through :meth:`process` or in
  blocks through :meth:`process_batch`; either way the only state is
  ``O(k')`` points, so the class honestly simulates the streaming model
  (``repro.streaming.memory`` audits this).
* Centers live in a preallocated ``(k'+1, dim)`` buffer so the per-point
  distance kernel is a single vectorized call with no re-stacking.
* :meth:`process_batch` is the hot path: it classifies a whole block
  against the current centers with **one** ``Metric.cross`` call, absorbs
  every covered run in bulk, and touches Python-level control flow only
  for the rare survivors that become centers (the *covered-filter*
  invariant: absorbing a covered point never changes the center set, the
  threshold, or the coverage status of later points, so covered runs can
  be retired wholesale without replaying them).  Its results — centers,
  threshold, phase count, subclass payloads, and peak-memory accounting —
  are identical to sequential ingestion.
* Exact duplicate points are discarded during initialization (they can
  never increase any diversity measure beyond one copy; subclasses absorb
  them as delegates instead).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.metricspace.distance import Metric, get_metric
from repro.metricspace.points import PointSet
from repro.utils.validation import (as_float_array, check_points_array,
                                    check_positive_int)


class SMM:
    """One-pass streaming core-set for remote-edge and remote-cycle.

    Parameters
    ----------
    k:
        Target solution size; the returned core-set has at least ``k``
        points (stream length permitting).
    k_prime:
        Core-set size parameter ``k'`` (``k' >= k``); theory wants
        ``k' = (32/eps')^D * k``, practice is happy with small multiples
        of ``k`` (Section 7.1).
    metric:
        Metric instance or registry name.

    Example
    -------
    >>> smm = SMM(k=2, k_prime=4, metric="euclidean")
    >>> for x in [0.0, 1.0, 5.0, 9.0, 10.0]:
    ...     smm.process([x])
    >>> coreset = smm.finalize()
    >>> len(coreset) >= 2
    True
    """

    def __init__(self, k: int, k_prime: int, metric: str | Metric = "euclidean"):
        self.k = check_positive_int(k, "k")
        self.k_prime = check_positive_int(k_prime, "k_prime")
        if self.k_prime < self.k:
            raise ValueError(f"k' must be at least k, got k'={k_prime} < k={k}")
        self.metric = get_metric(metric)
        self._capacity = self.k_prime + 1
        self._buffer: np.ndarray | None = None
        self._count = 0
        self._removed: list[np.ndarray] = []
        self._threshold: float = 0.0
        self._initialized = False
        self._finalized = False
        self._points_seen = 0
        self._phases = 0
        self._peak_memory = 0

    # -- public properties -----------------------------------------------------
    @property
    def threshold(self) -> float:
        """Current phase threshold ``d_i`` (0 until initialization ends)."""
        return self._threshold

    @property
    def phases(self) -> int:
        """Number of completed merge phases."""
        return self._phases

    @property
    def points_seen(self) -> int:
        """Number of stream points processed so far."""
        return self._points_seen

    @property
    def peak_memory_points(self) -> int:
        """Peak number of points held in memory at any time."""
        return self._peak_memory

    @property
    def num_centers(self) -> int:
        """Current number of centers in ``T``."""
        return self._count

    def centers(self) -> np.ndarray:
        """Snapshot of the current center set ``T`` (copy)."""
        if self._buffer is None:
            return np.empty((0, 0))
        return self._buffer[:self._count].copy()

    def memory_in_points(self) -> int:
        """Current number of points held (centers + merge leftovers)."""
        return self._count + len(self._removed)

    # -- subclass hooks ----------------------------------------------------------
    def _on_new_center(self, point: np.ndarray) -> None:
        """Called when *point* becomes a new center (subclass state)."""

    def _on_absorb(self, point: np.ndarray, center_position: int) -> None:
        """Called when *point* is covered by the center at *center_position*."""

    def _on_absorb_batch(self, points: np.ndarray, center_positions: np.ndarray) -> None:
        """Called when a block of covered *points* (rows, in stream order) is
        absorbed at once; ``center_positions[i]`` is the nearest center of
        row ``i``.  Subclasses with per-absorb state override this with a
        vectorized update; the default replays the per-point hook so
        subclasses that only override :meth:`_on_absorb` stay correct."""
        if type(self)._on_absorb is SMM._on_absorb:
            return  # the per-point hook is the base no-op; nothing to replay
        for row, position in zip(points, center_positions):
            self._on_absorb(row, int(position))

    def _on_merge_keep(self, old_positions: list[int]) -> None:
        """Called after a merge with the surviving old positions, in order."""

    def _on_merge_transfer(self, removed_old_position: int,
                           absorber_new_position: int) -> None:
        """Called when a removed center's payload moves to a survivor."""

    def _extra_memory_points(self) -> int:
        """Additional per-subclass memory, counted in points."""
        return 0

    # -- streaming interface ----------------------------------------------------
    def process(self, point: np.ndarray) -> None:
        """Feed one stream point into the sketch."""
        if self._finalized:
            raise NotFittedError("cannot process points after finalize()")
        point = as_float_array(point).reshape(-1)
        if self._buffer is None:
            self._buffer = np.empty((self._capacity, point.shape[0]),
                                    dtype=point.dtype)
        self._points_seen += 1
        if not self._initialized:
            self._process_initial(point)
        else:
            self._process_update(point)
        self._record_peak()

    def process_batch(self, points: np.ndarray) -> None:
        """Feed a block of stream points at once (the vectorized hot path).

        Equivalent to calling :meth:`process` on every row in order — the
        resulting centers, threshold, phases, subclass payloads, and peak
        memory are identical — but covered points are classified with one
        ``Metric.cross`` call per block instead of one kernel call per
        point, and absorbed in bulk through :meth:`_on_absorb_batch`.

        Accepts any ``(n, dim)`` array-like; a 1-d array of length ``n``
        is treated as ``n`` one-dimensional points, matching the row-wise
        reading of the per-point interface.  Empty blocks are no-ops.
        Unlike :meth:`process`, non-finite values are rejected eagerly.
        """
        if self._finalized:
            raise NotFittedError("cannot process points after finalize()")
        batch = as_float_array(points)
        if batch.size == 0:
            return
        batch = check_points_array(batch, "points")
        if self._buffer is None:
            self._buffer = np.empty((self._capacity, batch.shape[1]),
                                    dtype=batch.dtype)
        elif batch.shape[1] != self._buffer.shape[1]:
            raise ValidationError(
                f"points have dimension {batch.shape[1]}, "
                f"sketch expects {self._buffer.shape[1]}")
        index = 0
        total = batch.shape[0]
        # Initialization absorbs only exact duplicates and appends everything
        # else, so each row changes the center set; run it point-wise.
        while index < total and not self._initialized:
            self._points_seen += 1
            self._process_initial(batch[index])
            self._record_peak()
            index += 1
        while index < total:
            index = self._process_update_block(batch, index)

    def finalize(self) -> PointSet:
        """Close the stream and return the core-set (``>= k`` points)."""
        self._finalized = True
        if self._buffer is None:
            raise NotFittedError("finalize() called before any point was processed")
        selected = [self._buffer[i] for i in range(self._count)]
        if len(selected) < self.k:
            # Pad from the most recent merge's leftovers; M ∪ I had k'+1 >= k
            # points, so enough padding always exists for streams >= k.
            needed = self.k - len(selected)
            selected.extend(self._removed[:needed])
        if len(selected) < self.k <= self._points_seen:
            # Streams containing exact duplicates can leave fewer than k
            # distinct points; replicate (faithfully — the input multiset
            # provably held duplicates) until k copies are available.
            cursor = 0
            while len(selected) < self.k:
                selected.append(selected[cursor])
                cursor += 1
        return PointSet(np.vstack(selected), self.metric)

    # -- internals ---------------------------------------------------------------
    def _record_peak(self) -> None:
        memory = self.memory_in_points() + self._extra_memory_points()
        if memory > self._peak_memory:
            self._peak_memory = memory

    def _distances_to_centers(self, point: np.ndarray) -> np.ndarray:
        return self.metric.point_to_set(point, self._buffer[:self._count])

    def _append_center(self, point: np.ndarray) -> None:
        self._buffer[self._count] = point
        self._count += 1
        self._on_new_center(point)

    def _process_initial(self, point: np.ndarray) -> None:
        if self._count:
            dist = self._distances_to_centers(point)
            nearest = int(dist.argmin())
            # Exact duplicate: absorb instead of keeping a zero-distance
            # center, which would wedge the doubling schedule at d = 0.
            # The Gram-expansion kernel can report a tiny *nonzero*
            # distance for bitwise-identical rows (while the pairwise
            # matrix used for the threshold reports exactly 0), so the
            # distance test alone is not enough — compare the rows too.
            if (float(dist[nearest]) == 0.0
                    or np.array_equal(point, self._buffer[nearest])):
                self._on_absorb(point, nearest)
                return
        self._append_center(point)
        if self._count == self._capacity:
            pair_dist = self.metric.pairwise(self._buffer[:self._count])
            iu, ju = np.triu_indices(self._count, k=1)
            self._threshold = float(pair_dist[iu, ju].min())
            self._initialized = True
            self._start_phase()

    def _process_update(self, point: np.ndarray) -> None:
        dist = self._distances_to_centers(point)
        nearest = int(dist.argmin())
        if float(dist[nearest]) > 4.0 * self._threshold:
            self._append_center(point)
            if self._count == self._capacity:
                self._threshold *= 2.0
                self._start_phase()
        else:
            self._on_absorb(point, nearest)

    def _process_update_block(self, batch: np.ndarray, start: int) -> int:
        """Ingest ``batch[start:]`` until the block ends or a merge rescales.

        Covered runs are absorbed wholesale; each uncovered survivor becomes
        a center and only its distances to the *remaining* rows are
        computed, folding into the tracked nearest-center state.  Ties keep
        the earlier center, exactly like ``argmin`` over a fresh distance
        vector, because survivors take over only when strictly closer.  A
        merge changes both the threshold and the center set, so the caller
        must re-classify the remainder; returns the first unprocessed index.
        """
        block = batch[start:]
        distances = self.metric.cross(block, self._buffer[:self._count])
        nearest = distances.argmin(axis=1)
        nearest_dist = distances[np.arange(block.shape[0]), nearest]
        limit = 4.0 * self._threshold
        covered = nearest_dist <= limit
        row = 0
        rows = block.shape[0]
        while row < rows:
            uncovered_ahead = np.flatnonzero(~covered[row:])
            stop = row + int(uncovered_ahead[0]) if uncovered_ahead.size else rows
            if stop > row:
                # Absorbing covered points never shrinks memory, so the peak
                # over the run equals the state after its last point.
                self._points_seen += stop - row
                self._on_absorb_batch(block[row:stop], nearest[row:stop])
                self._record_peak()
                row = stop
                if row >= rows:
                    break
            self._points_seen += 1
            self._append_center(block[row])
            row += 1
            if self._count == self._capacity:
                self._threshold *= 2.0
                self._start_phase()
                self._record_peak()
                return start + row
            self._record_peak()
            if row < rows:
                survivor = self._buffer[self._count - 1:self._count]
                extra = self.metric.cross(block[row:], survivor)[:, 0]
                closer = extra < nearest_dist[row:]
                tail_dist = nearest_dist[row:]
                tail_dist[closer] = extra[closer]
                nearest[row:][closer] = self._count - 1
                covered[row:][closer] = tail_dist[closer] <= limit
        return start + rows

    def _start_phase(self) -> None:
        """Run merge steps (doubling further if needed) until ``|T| <= k'``."""
        self._merge()
        while self._count == self._capacity:
            # The independent set can be the whole of T when all centers are
            # farther than 2d apart; double and merge again.
            if self._threshold > 0.0:
                self._threshold *= 2.0
            else:
                # d wedged at exactly 0 (cancellation in the distance
                # kernel can report zero separation for distinct
                # near-identical centers, making the initial threshold 0
                # while doubling is a no-op): restart the schedule from
                # the smallest positive separation.  One exists, or the
                # zero-limit merge above would have shrunk T.
                pair_dist = self.metric.pairwise(self._buffer[:self._count])
                iu, ju = np.triu_indices(self._count, k=1)
                gaps = pair_dist[iu, ju]
                self._threshold = float(gaps[gaps > 0.0].min())
            self._merge()
        self._phases += 1

    def _merge(self) -> None:
        """Greedy maximal independent set of the ``2d``-threshold graph."""
        pair_dist = self.metric.pairwise(self._buffer[:self._count])
        limit = 2.0 * self._threshold
        kept: list[int] = []
        removed: list[int] = []
        for position in range(self._count):
            if kept and float(pair_dist[position, kept].min()) <= limit:
                removed.append(position)
            else:
                kept.append(position)
        self._removed = [self._buffer[i].copy() for i in removed]
        self._on_merge_keep(kept)
        # Attribute each removed center to its nearest survivor (which is
        # within 2d by maximality of the independent set).
        for old_position in removed:
            absorber = int(np.asarray(pair_dist[old_position, kept]).argmin())
            self._on_merge_transfer(old_position, absorber)
        self._buffer[:len(kept)] = self._buffer[kept]
        self._count = len(kept)
