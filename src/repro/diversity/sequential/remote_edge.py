"""Sequential 2-approximation for remote-edge: the GMM greedy.

The farthest-point greedy's anticover property gives
``div(T) = rho_T >= r_T >= r*_k >= rho*_k / 2``, i.e. a 2-approximation
for remote-edge [32, 18], matching the lower bound under P != NP.

The same farthest-point order serves remote-tree and remote-cycle, whose
solvers delegate here; with a
:class:`~repro.diversity.sequential.memo.SolverMemo` the order is the
memo's shared prefix, which the greedy's prefix stability makes equal to
a fresh run for ``k`` points.
"""

from __future__ import annotations

import numpy as np

from repro.coresets.gmm import gmm_on_matrix
from repro.diversity.sequential.memo import SolverMemo
from repro.utils.validation import as_float_array


def solve_remote_edge(dist: np.ndarray, k: int,
                      memo: SolverMemo | None = None) -> np.ndarray:
    """Select ``k`` indices 2-approximating the maximum min-pairwise-distance.

    The initial center is the point with the largest distance sum, a
    deterministic choice that in practice starts the greedy at an extreme
    point.
    """
    dist = as_float_array(dist)
    if memo is None:
        return _farthest_point_order(dist, k)
    return memo.order_for(k, dist.shape[0],
                          lambda count: _farthest_point_order(dist, count))


def _farthest_point_order(dist: np.ndarray, k: int) -> np.ndarray:
    """The first *k* points of GMM started from the heaviest row."""
    first = int(dist.sum(axis=1).argmax())
    return gmm_on_matrix(dist, k, first_index=first)
