"""Dispatch table mapping each objective to its sequential solver."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.diversity.objectives import Objective, get_objective
from repro.diversity.sequential.memo import SolverMemo
from repro.diversity.sequential.remote_bipartition import solve_remote_bipartition
from repro.diversity.sequential.remote_clique import solve_remote_clique
from repro.diversity.sequential.remote_cycle import solve_remote_cycle
from repro.diversity.sequential.remote_edge import solve_remote_edge
from repro.diversity.sequential.remote_star import solve_remote_star
from repro.diversity.sequential.remote_tree import solve_remote_tree
from repro.metricspace.points import PointSet
from repro.utils.validation import as_float_array, check_k_le_n

Solver = Callable[[np.ndarray, int, "SolverMemo | None"], np.ndarray]

_SOLVERS: dict[str, Solver] = {
    "remote-edge": solve_remote_edge,
    "remote-clique": solve_remote_clique,
    "remote-star": solve_remote_star,
    "remote-bipartition": solve_remote_bipartition,
    "remote-tree": solve_remote_tree,
    "remote-cycle": solve_remote_cycle,
}


def sequential_solver(objective: str | Objective) -> Solver:
    """The matrix-level sequential solver for *objective*."""
    return _SOLVERS[get_objective(objective).name]


def solve_on_matrix(dist: np.ndarray, k: int, objective: str | Objective,
                    memo: SolverMemo | None = None) -> np.ndarray:
    """Run the sequential approximation for *objective* on a distance matrix.

    *memo*, one :class:`~repro.diversity.sequential.memo.SolverMemo` per
    matrix, shares the greedy prefixes across every ``k`` and objective
    solved on *dist*; answers equal a memo-less solve bit for bit.
    """
    dist = as_float_array(dist)
    k = check_k_le_n(k, dist.shape[0])
    return sequential_solver(objective)(dist, k, memo)


def solve_sequential(points: PointSet, k: int,
                     objective: str | Objective) -> tuple[np.ndarray, float]:
    """Run the sequential approximation on a :class:`PointSet`.

    Returns ``(selected indices, achieved diversity value)``.  Computes the
    full pairwise matrix, so intended for core-sets and moderate inputs.
    """
    objective = get_objective(objective)
    dist = points.pairwise()
    indices = solve_on_matrix(dist, k, objective)
    value = objective.value(dist[np.ix_(indices, indices)])
    return indices, value
