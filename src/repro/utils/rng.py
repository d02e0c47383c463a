"""Seeded random-number-generator helpers.

Every stochastic component of the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None`` (fresh entropy), and
normalizes it through :func:`ensure_rng`.  Experiments use
:func:`spawn_rngs` to derive independent per-trial generators from a single
master seed so that trials are reproducible yet uncorrelated.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Normalize *seed* into a :class:`numpy.random.Generator`.

    Passing a ``Generator`` returns it unchanged, so components can share a
    generator and consume from a single stream of randomness.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: RngLike, count: int) -> list[np.random.Generator]:
    """Derive *count* independent generators from a master *seed*.

    Uses :class:`numpy.random.SeedSequence` spawning, which guarantees the
    children are statistically independent regardless of the master seed.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.SeedSequence):
        sequence = seed
    elif isinstance(seed, np.random.Generator):
        # Derive a sequence from the generator's own bit stream.
        sequence = np.random.SeedSequence(int(seed.integers(0, 2**63)))
    else:
        sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]
