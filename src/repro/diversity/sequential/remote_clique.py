"""Sequential 2-approximation for remote-clique (max-sum dispersion).

The Hassin-Rubinstein-Tamir algorithm [22]: greedily match the two farthest
unmatched points, ``floor(k/2)`` times, and output the matched points.  For
odd ``k`` one extra point is added — we pick the point maximizing its
distance sum to the selection, which can only help the objective.

With a :class:`~repro.diversity.sequential.memo.SolverMemo` the matching
is the memo's shared prefix; the greedy is prefix-stable, so slicing it
equals running it for ``k // 2`` pairs.
"""

from __future__ import annotations

import numpy as np

from repro.diversity.sequential.memo import SolverMemo
from repro.graph.matching import greedy_max_matching
from repro.utils.validation import as_float_array


def solve_remote_clique(dist: np.ndarray, k: int,
                        memo: SolverMemo | None = None) -> np.ndarray:
    """Select ``k`` indices 2-approximating the maximum pairwise-distance sum."""
    dist = as_float_array(dist)
    n = dist.shape[0]
    if k >= n:
        return np.arange(n, dtype=np.intp)
    if memo is None:
        pairs = greedy_max_matching(dist, k // 2)
    else:
        # The module-level name is looked up at fill time, so whatever
        # wraps it here sees exactly the matchings that run.
        pairs = memo.matching_for(
            k, n, lambda count: greedy_max_matching(dist, count))
    selected = [index for pair in pairs for index in pair]
    if len(selected) < k:
        remaining = np.setdiff1d(np.arange(n), np.asarray(selected, dtype=np.intp))
        if selected:
            gains = dist[np.ix_(remaining, selected)].sum(axis=1)
        else:
            gains = dist[remaining].sum(axis=1)
        selected.append(int(remaining[int(gains.argmax())]))
    return np.asarray(selected[:k], dtype=np.intp)
