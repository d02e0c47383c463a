"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metricspace.points import PointSet


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_points(rng) -> PointSet:
    """12 well-spread 2-d points — small enough for exact solvers."""
    return PointSet(rng.normal(size=(12, 2)), metric="euclidean")


@pytest.fixture
def medium_points(rng) -> PointSet:
    """300 3-d points: bulk cluster + a few distant outliers."""
    bulk = rng.normal(scale=0.2, size=(290, 3))
    outliers = 5.0 * rng.normal(size=(10, 3))
    data = np.vstack([bulk, outliers])
    return PointSet(data[rng.permutation(len(data))], metric="euclidean")


@pytest.fixture
def line_points() -> PointSet:
    """Deterministic collinear points with known diversity structure."""
    return PointSet(np.asarray([[0.0], [1.0], [2.0], [4.0], [8.0], [16.0]]),
                    metric="euclidean")
