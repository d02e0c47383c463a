"""Sequential α-approximation algorithms, one per objective (Table 1).

Every solver has the matrix-level signature
``solve(dist: np.ndarray, k: int, memo=None) -> np.ndarray`` (selected
indices); the point-level convenience wrapper :func:`solve_sequential`
computes the pairwise matrix first.  Core-sets are small, so matrix-level
solving is the natural final stage of both the streaming and MapReduce
pipelines.  A :class:`SolverMemo` shares one greedy matching and one
farthest-point order across every ``k`` solved on the same matrix.
"""

from repro.diversity.sequential.memo import SolverMemo
from repro.diversity.sequential.registry import (
    sequential_solver,
    solve_on_matrix,
    solve_sequential,
)
from repro.diversity.sequential.remote_edge import solve_remote_edge
from repro.diversity.sequential.remote_clique import solve_remote_clique
from repro.diversity.sequential.remote_star import solve_remote_star
from repro.diversity.sequential.remote_bipartition import solve_remote_bipartition
from repro.diversity.sequential.remote_tree import solve_remote_tree
from repro.diversity.sequential.remote_cycle import solve_remote_cycle

__all__ = [
    "SolverMemo",
    "sequential_solver",
    "solve_on_matrix",
    "solve_sequential",
    "solve_remote_edge",
    "solve_remote_clique",
    "solve_remote_star",
    "solve_remote_bipartition",
    "solve_remote_tree",
    "solve_remote_cycle",
]
