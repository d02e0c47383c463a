"""Output checks: every answer the benchmark times is also verified.

An answer fails when its indices are not ``k`` distinct rows, or when its
``value`` differs from :meth:`Objective.value` recomputed from the
returned points with a direct distance formula (independent of the
blocked kernels the service used).  The tolerance follows the dtype the
distances were computed in.
"""

from __future__ import annotations

import numpy as np

from repro.diversity.objectives import get_objective

#: Relative tolerance of the value check, by the dtype of the points.
RTOL = {"float64": 1e-9, "float32": 1e-4}


def answer_errors(result, k: int) -> list[str]:
    """Why *result* (a ``QueryResult``) is not a valid size-*k* answer."""
    errors = []
    indices = np.asarray(result.indices)
    if indices.shape != (k,) or len(set(indices.tolist())) != k:
        errors.append(f"{result.objective} k={k}: indices {indices.tolist()} "
                      "are not k distinct rows")
        return errors
    points = np.asarray(result.points)
    rtol = RTOL.get(str(points.dtype), RTOL["float32"])
    points = points.astype(np.float64)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    value = float(get_objective(result.objective).value(dist))
    if abs(value - result.value) > rtol * max(abs(value), 1e-12):
        errors.append(f"{result.objective} k={k}: value {result.value!r} "
                      f"but the returned points give {value!r}")
    return errors
