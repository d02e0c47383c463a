"""Sequential 4-approximation for remote-tree.

Halldorsson-Iwano-Katoh-Tokuyama [21] show the farthest-point greedy (GMM)
4-approximates the maximum-MST-weight subset: the greedy's anticover radii
lower-bound the MST weight of any k-subset within constant factors.
The selection is therefore shared with remote-edge.
"""

from __future__ import annotations

import numpy as np

from repro.diversity.sequential.memo import SolverMemo
from repro.diversity.sequential.remote_edge import solve_remote_edge


def solve_remote_tree(dist: np.ndarray, k: int,
                      memo: SolverMemo | None = None) -> np.ndarray:
    """Select ``k`` indices 4-approximating the maximum MST weight."""
    return solve_remote_edge(dist, k, memo)
