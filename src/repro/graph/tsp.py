"""Travelling-salesman tours over metric cliques.

``w(TSP(S))`` defines the remote-cycle diversity objective.  Evaluating it
exactly is itself NP-hard, so the library offers:

* :func:`held_karp_tsp` — exact O(2^n n^2) dynamic program, vectorized
  one path length at a time; :func:`tsp_weight` uses it for every
  ``n <= HELD_KARP_LIMIT``, so it evaluates each remote-cycle value of
  at most 13 points;
* :func:`mst_doubling_tour` — the classical metric 2-approximation
  (preorder walk of the MST), refined by :func:`two_opt_improve`;
* :func:`tsp_weight` — dispatches between the two and is the evaluator the
  diversity layer uses.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.graph.mst import prim_mst

#: Largest instance routed to the exact Held-Karp solver by default.
HELD_KARP_LIMIT = 13

#: Candidate cells (end, next vertex, mask) one Held-Karp step evaluates
#: at once; ``dp`` itself is ``2^n x n``.
_BLOCK_CELLS = 1 << 16


def _check_square(dist: np.ndarray) -> np.ndarray:
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValidationError(f"distance matrix must be square, got shape {dist.shape}")
    return dist


def tour_weight(dist: np.ndarray, tour: list[int]) -> float:
    """Weight of the closed tour visiting *tour* in order."""
    dist = _check_square(dist)
    if len(tour) <= 1:
        return 0.0
    total = 0.0
    for i, node in enumerate(tour):
        total += dist[node, tour[(i + 1) % len(tour)]]
    return float(total)


def held_karp_tsp(dist: np.ndarray) -> tuple[float, list[int]]:
    """Exact TSP via the Held-Karp dynamic program.

    Returns ``(weight, tour)``.  Exponential in ``n``; guarded by callers.
    """
    dist = _check_square(dist)
    n = dist.shape[0]
    if n <= 1:
        return 0.0, list(range(n))
    if n == 2:
        return float(2.0 * dist[0, 1]), [0, 1]
    # dp[mask, j] = best cost of a path starting at 0, visiting exactly the
    # vertices in mask (0 always in mask), ending at j.
    full = 1 << n
    dp = np.full((full, n), np.inf)
    dp[1, 0] = 0.0
    masks = np.arange(1, full, 2)
    sizes = sum((masks >> bit) & 1 for bit in range(n))
    bits = 1 << np.arange(n)
    step = max(1, _BLOCK_CELLS // (n * n))
    # One layer of masks per path length.  A path extends to each j outside
    # its mask by the single addition dp[mask, e] + dist[e, j], minimized
    # over e; dp holds inf at every e that cannot end the path, so only
    # real ends attain a finite minimum.  dp[mask | bit_j, j] has one
    # source mask, so it is written exactly once.
    for size in range(1, n):
        layer = masks[sizes == size]
        for start in range(0, len(layer), step):
            chunk = layer[start:start + step]
            best = (dp[chunk].T[:, None, :] + dist[:, :, None]).min(axis=0)
            j, row = np.nonzero((chunk & bits[:, None]) == 0)
            dp[chunk[row] | bits[j], j] = best[j, row]
    mask = full - 1
    closing = dp[mask] + dist[:, 0]
    closing[0] = np.inf
    node = int(np.argmin(closing))
    weight = float(closing[node])
    # Walk the optimal path backwards.  The predecessor of (mask, node) is
    # the first end e attaining dp[mask, node], recomputed from the final
    # row of mask ^ bit_node, so ties break towards the smallest end.
    tour = [node]
    while mask != 1 and dp[mask, node] < np.inf:
        mask ^= 1 << node
        node = int(np.argmin(dp[mask] + dist[:, node]))
        tour.append(node)
    tour.reverse()
    return weight, tour


def mst_doubling_tour(dist: np.ndarray) -> list[int]:
    """Metric 2-approximate tour: preorder walk of the MST (shortcutting)."""
    dist = _check_square(dist)
    n = dist.shape[0]
    if n <= 2:
        return list(range(n))
    children: list[list[int]] = [[] for _ in range(n)]
    for parent_node, child in prim_mst(dist):
        children[parent_node].append(child)
    tour: list[int] = []
    stack = [0]
    while stack:
        node = stack.pop()
        tour.append(node)
        # Reversed push keeps the preorder left-to-right.
        stack.extend(reversed(children[node]))
    return tour


def two_opt_improve(dist: np.ndarray, tour: list[int],
                    max_rounds: int = 8) -> list[int]:
    """Improve *tour* with 2-opt edge exchanges until a local optimum.

    Each round scans all edge pairs once; stops early when no exchange
    improves the tour.  This is the standard polish that makes the
    MST-doubling tour near-optimal on doubling-dimension data.
    """
    dist = _check_square(dist)
    n = len(tour)
    if n < 4:
        return list(tour)
    tour = list(tour)
    for _ in range(max_rounds):
        improved = False
        for i in range(n - 1):
            a, b = tour[i], tour[i + 1]
            for j in range(i + 2, n):
                c, d = tour[j], tour[(j + 1) % n]
                if d == a:
                    continue
                delta = (dist[a, c] + dist[b, d]) - (dist[a, b] + dist[c, d])
                if delta < -1e-12:
                    tour[i + 1:j + 1] = reversed(tour[i + 1:j + 1])
                    improved = True
                    a, b = tour[i], tour[i + 1]
        if not improved:
            break
    return tour


def tsp_weight(dist: np.ndarray, exact_limit: int = HELD_KARP_LIMIT) -> float:
    """Weight of a TSP tour on *dist*: exact for small n, 2-opt heuristic beyond.

    This is the remote-cycle diversity evaluator.  For ``n > exact_limit``
    the returned value is an upper bound on the optimum within a factor 2
    (usually much closer after 2-opt).
    """
    dist = _check_square(dist)
    n = dist.shape[0]
    if n <= 3:
        # Any permutation of <= 3 points gives the same closed tour.
        return tour_weight(dist, list(range(n)))
    if n <= exact_limit:
        weight, _ = held_karp_tsp(dist)
        return weight
    tour = two_opt_improve(dist, mst_doubling_tour(dist))
    return tour_weight(dist, tour)
