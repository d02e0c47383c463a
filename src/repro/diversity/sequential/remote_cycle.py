"""Sequential 3-approximation for remote-cycle.

Halldorsson-Iwano-Katoh-Tokuyama [21] show the farthest-point greedy (GMM)
selection 3-approximates the maximum-TSP-weight subset.  The selection is
therefore shared with remote-edge.
"""

from __future__ import annotations

import numpy as np

from repro.diversity.sequential.memo import SolverMemo
from repro.diversity.sequential.remote_edge import solve_remote_edge


def solve_remote_cycle(dist: np.ndarray, k: int,
                       memo: SolverMemo | None = None) -> np.ndarray:
    """Select ``k`` indices 3-approximating the maximum tour weight."""
    return solve_remote_edge(dist, k, memo)
