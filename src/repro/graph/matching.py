"""Greedy farthest-pair matching.

The Hassin-Rubinstein-Tamir 2-approximation for remote-clique repeatedly
matches the two farthest unmatched points; the union of the first ``k/2``
matched pairs is the solution.  The same matching underlies the sequential
algorithms for remote-star and remote-bipartition [12].
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import as_float_array

#: Cells of ``dist`` one scan step copies and masks.  Bounds the matching's
#: scratch to a few MiB whatever ``n``: it never allocates an n x n array.
_BLOCK_CELLS = 1 << 18


def greedy_max_matching(dist: np.ndarray, pairs: int) -> list[tuple[int, int]]:
    """Greedily pick *pairs* disjoint index pairs in decreasing distance order.

    Each step matches the farthest pair ``(a, b)``, ``a < b``, of unmatched
    points, reading only the upper triangle of *dist*; exact ties go to
    the smallest ``a``, then the smallest ``b`` (the first maximum of the
    flattened upper triangle).

    Every row caches its best partner ``b > a``.  A row whose partner is
    still unmatched holds its exact best; a row whose partner has been
    matched (a *stale* row) holds an upper bound of it.  So the top row is
    a valid pick once no stale row ties or beats the best valid row, and
    only those stale rows are re-scanned.  *dist* is never written and
    float32 stays float32: widening is exact, so no comparison changes.

    Raises
    ------
    ValidationError
        If fewer than ``2 * pairs`` points are available.
    """
    dist = as_float_array(dist)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValidationError(f"distance matrix must be square, got shape {dist.shape}")
    n = dist.shape[0]
    if pairs < 0:
        raise ValidationError(f"pairs must be non-negative, got {pairs}")
    if 2 * pairs > n:
        raise ValidationError(f"cannot pick {pairs} disjoint pairs from {n} points")
    if pairs == 0:
        return []
    best, partner = _row_best(dist)
    # Slot n stays False: the partner of a row with no candidate left.
    matched = np.zeros(n + 1, dtype=bool)
    matching: list[tuple[int, int]] = []
    for _ in range(pairs):
        a = int(best.argmax())
        while matched[partner[a]]:
            stale = matched[partner]
            floor = best[~stale].max()
            # ``not <`` rather than ``>=``: ties are re-scanned too, and a
            # NaN still re-scans the top row, so every round progresses.
            rows = np.flatnonzero(stale & ~(best < floor))
            _rescan(dist, rows, matched, best, partner)
            a = int(best.argmax())
        b = int(partner[a])
        matching.append((a, b))
        matched[[a, b]] = True
        best[[a, b]] = -np.inf
        partner[[a, b]] = n
    return matching


def _row_best(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's max over ``b > a`` and its smallest such ``b``.

    Rows ``[lo, hi)`` split their upper triangle in two: columns
    ``[hi, n)`` are all valid and are read in place, and only the small
    square of columns ``[lo, hi)`` is copied to mask its diagonal and
    lower half.  The last row, which has no ``b > a``, keeps ``-inf`` and
    partner ``n``.
    """
    n = dist.shape[0]
    best = np.full(n, -np.inf, dtype=dist.dtype)
    partner = np.full(n, n, dtype=np.intp)
    step = max(1, int(_BLOCK_CELLS ** 0.5))
    for lo in range(0, n - 1, step):
        hi = min(lo + step, n - 1)
        rows = np.arange(hi - lo)
        square = dist[lo:hi, lo:hi].copy()
        square[np.tri(hi - lo, dtype=bool)] = -np.inf
        square_arg = square.argmax(axis=1)
        square_val = square[rows, square_arg]
        rect = dist[lo:hi, hi:]
        rect_arg = rect.argmax(axis=1)
        rect_val = rect[rows, rect_arg]
        # Square columns precede the rectangle's: they win ties.
        left = square_val >= rect_val
        best[lo:hi] = np.where(left, square_val, rect_val)
        partner[lo:hi] = np.where(left, lo + square_arg, hi + rect_arg)
    return best, partner


def _rescan(dist: np.ndarray, rows: np.ndarray, matched: np.ndarray,
            best: np.ndarray, partner: np.ndarray) -> None:
    """Recompute the cached best of *rows* (ascending) over unmatched ``b``.

    Rows are read in chunks of about :data:`_BLOCK_CELLS` cells, copied
    from column ``rows[0] + 1`` on; matched columns and ``b <= a`` are
    masked in the copy.  A row left with no candidate gets ``-inf`` and
    partner ``n``.
    """
    n = dist.shape[0]
    chunk = max(1, _BLOCK_CELLS // n)
    for start in range(0, rows.size, chunk):
        part = rows[start:start + chunk]
        first = int(part[0]) + 1
        block = dist[part, first:]
        columns = np.arange(first, n)
        invalid = matched[first:n] | (columns <= part[:, None])
        block[invalid] = -np.inf
        arg = block.argmax(axis=1)
        value = block[np.arange(part.size), arg]
        best[part] = value
        partner[part] = np.where(value == -np.inf, n, first + arg)
