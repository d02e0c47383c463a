"""Sequential 2-approximation for remote-star.

Chandra-Halldorsson [12] show the farthest-pair greedy matching also
2-approximates remote-star: the matched set's cheapest star is within a
factor two of optimal because every star contains at least ``floor(k/2)``
matching edges' worth of weight.  We reuse the matching selection and, as a
cheap deterministic polish, try swapping in the best non-selected point for
the current star center when it improves the objective.
"""

from __future__ import annotations

import numpy as np

from repro.diversity.measures import remote_star_value
from repro.diversity.sequential.memo import SolverMemo
from repro.diversity.sequential.remote_clique import solve_remote_clique
from repro.utils.validation import as_float_array

#: Trial-matrix cells scored per chunk of candidates in the center swap.
_TRIAL_CELLS = 1 << 18


def solve_remote_star(dist: np.ndarray, k: int,
                      memo: SolverMemo | None = None) -> np.ndarray:
    """Select ``k`` indices 2-approximating the maximum min-star weight."""
    dist = as_float_array(dist)
    n = dist.shape[0]
    selected = solve_remote_clique(dist, k, memo)
    if k >= n or k < 2:
        # Below two points every trial scores 0.0 and none improves.
        return selected
    # One greedy improvement round: replacing the current star center (the
    # argmin row) with an outside point keeps the matching bound and often
    # raises the realized value.
    sub = dist[np.ix_(selected, selected)]
    center_pos = int(sub.sum(axis=1).argmin())
    outside = np.setdiff1d(np.arange(n), selected)
    best_value, best_candidate = remote_star_value(sub), None
    # Each trial is scored as remote_star_value scores it: its k x k
    # matrix widened to float64, rows summed along the last axis, min.
    # The first candidate to strictly beat the running best wins.
    step = max(1, _TRIAL_CELLS // (k * k))
    for start in range(0, outside.size, step):
        candidates = outside[start:start + step]
        trials = np.tile(selected, (candidates.size, 1))
        trials[:, center_pos] = candidates
        matrices = dist[trials[:, :, None], trials[:, None, :]]
        values = np.asarray(matrices, dtype=np.float64).sum(axis=2).min(axis=1)
        top = int(values.argmax())
        if values[top] > best_value:
            best_value, best_candidate = values[top], candidates[top]
    if best_candidate is None:
        return selected
    best = selected.copy()
    best[center_pos] = best_candidate
    return best
