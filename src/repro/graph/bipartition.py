"""Balanced minimum bipartition of a metric clique.

The remote-bipartition diversity of a set ``S`` is the minimum, over
bipartitions ``(Q, S \\ Q)`` with ``|Q| = floor(|S|/2)``, of the total weight
of edges crossing the cut.  Evaluating it exactly enumerates the
``C(n, floor(n/2))`` candidate sides ``Q``, or the ``C(n - 1, n/2)`` that
leave point 0 out at even ``n``, where ``Q`` and its complement give the
same cut.  So the library provides an exact evaluator for small ``n`` and a
swap-based local-search evaluator beyond that.
"""

from __future__ import annotations

from itertools import chain, combinations, islice

import numpy as np

from repro.exceptions import ValidationError

#: Largest set routed to exact enumeration by default (C(16, 8) = 12,870).
EXACT_LIMIT = 16

#: Cut-weight cells the exact enumeration gathers at once.
_BLOCK_CELLS = 1 << 16


def _check_square(dist: np.ndarray) -> np.ndarray:
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValidationError(f"distance matrix must be square, got shape {dist.shape}")
    return dist


def bipartition_cut_weight(dist: np.ndarray, side: np.ndarray) -> float:
    """Weight of edges crossing the cut defined by boolean mask *side*."""
    dist = _check_square(dist)
    side = np.asarray(side, dtype=bool)
    if side.shape != (dist.shape[0],):
        raise ValidationError("side mask must have one entry per point")
    return float(dist[np.ix_(side, ~side)].sum())


def exact_min_balanced_bipartition(dist: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact minimum balanced cut by subset enumeration.

    Returns ``(weight, side_mask)``.  Cost grows as ``C(n, n/2)``; callers
    should respect :data:`EXACT_LIMIT`.
    """
    dist = _check_square(dist)
    n = dist.shape[0]
    if n < 2:
        return 0.0, np.zeros(n, dtype=bool)
    half = n // 2
    cells = half * (n - half)
    flat = dist.ravel()
    best_weight = np.inf
    best_side = np.zeros(n, dtype=bool)
    # Q leaves point 0 out when the sides have equal size, so each cut is
    # counted once; at odd n, Q is the smaller side and may hold point 0.
    indices = chain.from_iterable(combinations(range(1 - n % 2, n), half))
    rows = max(1, _BLOCK_CELLS // cells)
    while (chunk := np.fromiter(islice(indices, rows * half), dtype=np.intp)).size:
        left = chunk.reshape(-1, half)
        member = np.zeros((len(left), n), dtype=bool)
        member[np.arange(len(left))[:, None], left] = True
        right = np.nonzero(~member)[1].reshape(len(left), n - half)
        # Each cut's block dist[left, right] as one contiguous row: summing
        # it is the pairwise summation of dist[np.ix_(side, ~side)].sum().
        block = (left[:, :, None] * n + right[:, None, :]).reshape(len(left), cells)
        weights = flat.take(block).sum(axis=1)
        best = int(np.argmin(weights))
        if weights[best] < best_weight:
            best_weight = weights[best]
            best_side = member[best].copy()
    return float(best_weight), best_side


def local_search_balanced_bipartition(
    dist: np.ndarray, max_rounds: int = 16, restarts: int = 3,
    seed: int | None = 0,
) -> tuple[float, np.ndarray]:
    """Swap-based local search for the minimum balanced cut.

    Starts from random balanced partitions and repeatedly performs the best
    improving swap of one point per side until a local optimum, keeping the
    best of *restarts* runs.  Deterministic for a fixed *seed*.
    """
    dist = _check_square(dist)
    n = dist.shape[0]
    if n < 2:
        return 0.0, np.zeros(n, dtype=bool)
    half = n // 2
    rng = np.random.default_rng(seed)
    best_weight = np.inf
    best_side = np.zeros(n, dtype=bool)
    for _ in range(max(restarts, 1)):
        perm = rng.permutation(n)
        side = np.zeros(n, dtype=bool)
        side[perm[:half]] = True
        weight = bipartition_cut_weight(dist, side)
        for _ in range(max_rounds):
            improved = False
            left = np.flatnonzero(side)
            right = np.flatnonzero(~side)
            cross = dist[np.ix_(left, right)]
            # Swapping l = left[i] and r = right[j] moves l into R and r
            # into L.  The cut loses d(l, R) + d(r, L) - d(l, r), as both
            # sums hold the edge (l, r), and gains d(l, L - l) + d(r, R - r)
            # + d(l, r), as (l, r) still crosses.  With a zero diagonal:
            #   delta[i, j] = d(l, L) + d(r, R) - d(l, R) - d(r, L) + 2 d(l, r)
            left_to_right = cross.sum(axis=1)        # d(l, R)
            right_to_left = cross.sum(axis=0)        # d(r, L)
            left_to_left = dist[np.ix_(left, left)].sum(axis=1)
            right_to_right = dist[np.ix_(right, right)].sum(axis=1)
            delta = (
                left_to_left[:, None] + right_to_right[None, :]
                - left_to_right[:, None] - right_to_left[None, :]
                + 2.0 * cross
            )
            i, j = np.unravel_index(int(np.argmin(delta)), delta.shape)
            if delta[i, j] < -1e-12:
                l_idx, r_idx = left[i], right[j]
                side[l_idx] = False
                side[r_idx] = True
                weight += float(delta[i, j])
                improved = True
            if not improved:
                break
        weight = bipartition_cut_weight(dist, side)
        if weight < best_weight:
            best_weight = weight
            best_side = side.copy()
    return float(best_weight), best_side


def min_balanced_bipartition(
    dist: np.ndarray, exact_limit: int = EXACT_LIMIT,
) -> tuple[float, np.ndarray]:
    """Minimum balanced cut: exact for ``n <= exact_limit``, local search beyond.

    This is the remote-bipartition diversity evaluator.
    """
    dist = _check_square(dist)
    if dist.shape[0] <= exact_limit:
        return exact_min_balanced_bipartition(dist)
    return local_search_balanced_bipartition(dist)
