"""Sequential 3-approximation for remote-bipartition.

Chandra-Halldorsson [12] prove the farthest-pair greedy matching yields a
3-approximation for the balanced-bipartition dispersion objective: the
selection maximizing matched-edge weight cannot have a balanced cut more
than three times cheaper than the optimum's.  The selection is therefore
shared with remote-clique.
"""

from __future__ import annotations

import numpy as np

from repro.diversity.sequential.memo import SolverMemo
from repro.diversity.sequential.remote_clique import solve_remote_clique


def solve_remote_bipartition(dist: np.ndarray, k: int,
                             memo: SolverMemo | None = None) -> np.ndarray:
    """Select ``k`` indices 3-approximating the maximum balanced min-cut."""
    return solve_remote_clique(dist, k, memo)
