"""Greedy prefixes of one distance matrix, shared by every ``k``.

Both greedies behind the sequential solvers are prefix-stable on a fixed
matrix: each step of the farthest-pair matching (remote-clique, -star,
-bipartition) and of the farthest-point order from the heaviest row
(remote-edge, -tree, -cycle) depends only on the steps before it, so

    greedy_max_matching(dist, P)[:p] == greedy_max_matching(dist, p)
    gmm_on_matrix(dist, K, first)[:k] == gmm_on_matrix(dist, k, first)

for every ``p <= P`` and ``k <= K``.  A :class:`SolverMemo` holds one
prefix of each greedy, computed once up to ``k_cap`` points, and the
solvers answer any ``k`` by slicing it: bit-identical to a memo-less
solve.  What stays per query (odd-``k`` clique extension, the star
centre swap, the objective value) is not memoized.

A memo holds indices only, never the matrix, so a matrix evicted from a
budgeted cache and recomputed later (bit-identically) finds its memo
still valid.  One memo serves exactly one matrix.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np


class SolverMemo:
    """The matching and farthest-point order prefixes of one matrix.

    Parameters
    ----------
    k_cap:
        Largest ``k`` the memo expects; the first fill of each prefix
        runs to ``min(k_cap, n)`` points, so later queries up to the cap
        only slice.  A larger ``k`` recomputes to that size (the held
        prefix stays valid).
    pairs, order:
        Prefixes already known for this matrix, e.g. shipped from
        another process.

    Fills are single-flight: concurrent solvers needing the same prefix
    wait for the first one's fill and then slice it.
    """

    def __init__(self, k_cap: int, *,
                 pairs: Sequence[tuple[int, int]] = (),
                 order: Sequence[int] = ()):
        self.k_cap = k_cap
        # Re-entrant: a fill merges its result under the lock it holds.
        self._locks = {"pairs": threading.RLock(),
                       "order": threading.RLock()}
        #: The greedy matching's first pairs, in pick order.
        self.pairs: tuple[tuple[int, int], ...] = ()
        #: The farthest-point order's first indices, heaviest row first.
        self.order: tuple[int, ...] = ()
        self.merge(pairs, order)

    def matching_for(self, k: int, n: int, fill: Callable[[int], list],
                     ) -> tuple[tuple[int, int], ...]:
        """The first ``k // 2`` matched pairs on an *n*-point matrix.

        ``fill(p)`` must return the greedy matching's first ``p`` pairs.
        """
        return self._take("pairs", k // 2, self._span(k, n) // 2, fill)

    def order_for(self, k: int, n: int,
                  fill: Callable[[int], np.ndarray]) -> np.ndarray:
        """The first ``k`` points of the farthest-point order.

        ``fill(m)`` must return the order's first ``m`` indices.
        """
        return np.asarray(self._take("order", k, self._span(k, n), fill),
                          dtype=np.intp)

    def merge(self, pairs: Sequence[tuple[int, int]] = (),
              order: Sequence[int] = ()) -> None:
        """Keep the longer of each held and given prefix.

        Both are prefixes of the same greedy run on this memo's matrix,
        so the longer one contains the shorter.
        """
        if len(pairs):
            self._keep("pairs", tuple((int(a), int(b)) for a, b in pairs))
        if len(order):
            self._keep("order", tuple(int(i) for i in order))

    def _span(self, k: int, n: int) -> int:
        """Points a fill for *k* covers: the cap (within *n*), or *k*."""
        return max(k, min(self.k_cap, n))

    def _take(self, slot: str, count: int, total: int,
              fill: Callable[[int], Sequence]) -> tuple:
        """The first *count* items of *slot*, filling to *total* if short."""
        held = getattr(self, slot)
        if len(held) < count:
            with self._locks[slot]:
                held = getattr(self, slot)
                if len(held) < count:
                    self.merge(**{slot: fill(total)})
                    held = getattr(self, slot)
        return held[:count]

    def _keep(self, slot: str, given: tuple) -> None:
        with self._locks[slot]:
            if len(given) > len(getattr(self, slot)):
                setattr(self, slot, given)
