"""Shared fixtures and brute-force oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from exec_oracle import exec_engine

from repro.core.geometry import L1, L2, LINF, Box


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def engine(request):
    """Parametrised indirectly with ``"reference"`` or ``"vectorized"``:
    the whole test runs on the scalar oracle engine or on production."""
    with exec_engine(request.param):
        yield request.param


@pytest.fixture
def pts3d(rng):
    """A modest 3-D point cloud."""
    return rng.random((2000, 3))


@pytest.fixture
def pts2d(rng):
    return rng.random((1500, 2))


# ----------------------------------------------------------------------
# brute-force oracles
# ----------------------------------------------------------------------
def brute_knn(points: np.ndarray, q: np.ndarray, k: int, metric=L2):
    """Exact kNN by full scan; returns sorted distances."""
    diff = np.abs(points - q)
    if metric.name == "l1":
        d = diff.sum(axis=1)
    elif metric.name == "linf":
        d = diff.max(axis=1)
    else:
        d = np.sqrt((diff * diff).sum(axis=1))
    return np.sort(d)[: min(k, len(points))]


def brute_range_query(points: np.ndarray, box: Box) -> np.ndarray:
    """Exact range query: the stored points inside ``box`` (closed), as rows."""
    mask = ((points >= box.lo) & (points <= box.hi)).all(axis=1)
    return points[mask]


def brute_box_count(points: np.ndarray, box: Box) -> int:
    return len(brute_range_query(points, box))


def brute_box_points(points: np.ndarray, box: Box) -> np.ndarray:
    return brute_range_query(points, box)


def sorted_rows(a: np.ndarray) -> np.ndarray:
    """Canonical row order for multiset comparison of point arrays."""
    if len(a) == 0:
        return a
    return a[np.lexsort(a.T[::-1])]


def assert_same_points(a: np.ndarray, b: np.ndarray) -> None:
    a = np.asarray(a, dtype=np.float64).reshape(-1, a.shape[-1] if a.ndim > 1 else 1)
    b = np.asarray(b, dtype=np.float64).reshape(-1, b.shape[-1] if b.ndim > 1 else 1)
    assert a.shape == b.shape, f"shapes differ: {a.shape} vs {b.shape}"
    np.testing.assert_allclose(sorted_rows(a), sorted_rows(b))
