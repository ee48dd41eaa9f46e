"""Unit tests for boxes, metrics, and the ℓ1/ℓ2 anchoring bound (§6)."""

import math

import numpy as np
import pytest

from repro.core.geometry import (
    L1,
    L2,
    LINF,
    Box,
    dist,
    dist_point_box,
    l1_radius_bound,
)


class TestBox:
    def test_contains_point_closed(self):
        b = Box(np.zeros(2), np.ones(2))
        assert b.contains_point(np.array([0.0, 1.0]))
        assert b.contains_point(np.array([0.5, 0.5]))
        assert not b.contains_point(np.array([1.0001, 0.5]))

    def test_contains_point_vectorized(self, rng):
        b = Box(np.array([0.2, 0.2]), np.array([0.8, 0.8]))
        pts = rng.random((100, 2))
        mask = b.contains_point(pts)
        want = ((pts >= b.lo) & (pts <= b.hi)).all(axis=1)
        assert np.array_equal(mask, want)

    def test_contains_box(self):
        outer = Box(np.zeros(3), np.ones(3))
        inner = Box(np.full(3, 0.25), np.full(3, 0.5))
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)
        assert outer.contains_box(outer)

    def test_intersects(self):
        a = Box(np.zeros(2), np.ones(2))
        b = Box(np.array([0.5, 0.5]), np.array([1.5, 1.5]))
        c = Box(np.array([2.0, 2.0]), np.array([3.0, 3.0]))
        assert a.intersects(b) and b.intersects(a)
        assert not a.intersects(c)
        # Shared boundary counts as intersecting (closed boxes).
        d = Box(np.array([1.0, 0.0]), np.array([2.0, 1.0]))
        assert a.intersects(d)

    def test_contains_sphere(self):
        b = Box(np.zeros(2), np.ones(2))
        assert b.contains_sphere(np.array([0.5, 0.5]), 0.4)
        assert not b.contains_sphere(np.array([0.5, 0.5]), 0.6)
        assert not b.contains_sphere(np.array([0.05, 0.5]), 0.1)

    def test_clip(self):
        a = Box(np.zeros(2), np.array([2.0, 3.0]))
        b = Box(np.array([1.0, 1.0]), np.array([5.0, 2.0]))
        c = a.clip(b)
        assert np.array_equal(c.lo, [1.0, 1.0])
        assert np.array_equal(c.hi, [2.0, 2.0])

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError):
            Box(np.zeros(2), np.ones(3))


class TestDist:
    def test_l2_matches_numpy(self, rng):
        a = rng.random((50, 4))
        b = rng.random(4)
        np.testing.assert_allclose(dist(a, b, L2), np.linalg.norm(a - b, axis=1))

    def test_l1_matches_numpy(self, rng):
        a = rng.random((50, 3))
        b = rng.random(3)
        np.testing.assert_allclose(dist(a, b, L1), np.abs(a - b).sum(axis=1))

    def test_linf_matches_numpy(self, rng):
        a = rng.random((50, 3))
        b = rng.random(3)
        np.testing.assert_allclose(dist(a, b, LINF), np.abs(a - b).max(axis=1))

    def test_zero_distance(self):
        p = np.array([1.0, 2.0, 3.0])
        for m in (L1, L2, LINF):
            assert dist(p, p, m) == 0.0

    def test_metric_callable(self):
        assert L2(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_unknown_metric_raises(self):
        from repro.core.geometry import Metric

        bogus = Metric("hamming", 1, 1)
        with pytest.raises(ValueError):
            dist(np.zeros(2), np.ones(2), bogus)


class TestDistPointBox:
    def test_inside_is_zero(self):
        b = Box(np.zeros(3), np.ones(3))
        assert dist_point_box(np.full(3, 0.5), b, L2) == 0.0
        assert dist_point_box(np.full(3, 0.5), b, L1) == 0.0

    def test_outside_single_axis(self):
        b = Box(np.zeros(2), np.ones(2))
        p = np.array([2.0, 0.5])
        for m in (L1, L2, LINF):
            assert dist_point_box(p, b, m) == pytest.approx(1.0)

    def test_corner_l2(self):
        b = Box(np.zeros(2), np.ones(2))
        p = np.array([2.0, 2.0])
        assert dist_point_box(p, b, L2) == pytest.approx(math.sqrt(2.0))
        assert dist_point_box(p, b, L1) == pytest.approx(2.0)
        assert dist_point_box(p, b, LINF) == pytest.approx(1.0)

    def test_lower_bounds_point_distances(self, rng):
        """min-dist to box ≤ distance to any point inside the box."""
        b = Box(np.array([0.3, 0.3, 0.3]), np.array([0.6, 0.7, 0.8]))
        inside = b.lo + rng.random((200, 3)) * (b.hi - b.lo)
        q = rng.random(3) * 3 - 1
        for m in (L1, L2, LINF):
            lb = dist_point_box(q, b, m)
            assert np.all(dist(inside, q, m) >= lb - 1e-12)


class TestAnchoring:
    def test_norm_ordering(self, rng):
        """‖x‖∞ ≤ ‖x‖₂ ≤ ‖x‖₁ ≤ √D·‖x‖₂ ≤ D·‖x‖∞."""
        for dims in (1, 2, 3, 5, 8):
            x = rng.normal(size=(200, dims))
            z = np.zeros(dims)
            l1 = dist(x, z, L1)
            l2 = dist(x, z, L2)
            li = dist(x, z, LINF)
            assert np.all(li <= l2 + 1e-12)
            assert np.all(l2 <= l1 + 1e-12)
            assert np.all(l1 <= math.sqrt(dims) * l2 + 1e-12)

    def test_l1_radius_bound_covers_l2_knn(self, rng):
        """Fetching ℓ1 ≤ √D·x (x = ℓ1 k-th dist) covers the true ℓ2 kNN."""
        pts = rng.random((500, 3))
        q = rng.random(3)
        k = 10
        l1_d = np.sort(dist(pts, q, L1))
        x = l1_d[k - 1]
        bound = l1_radius_bound(x, 3)
        l2_d = dist(pts, q, L2)
        true_knn_idx = np.argsort(l2_d)[:k]
        cand_mask = dist(pts, q, L1) <= bound + 1e-12
        assert cand_mask[true_knn_idx].all()

    def test_pim_cost_profile(self):
        # ℓ2 carries the 32-cycle multiply penalty; ℓ1/ℓ∞ do not (§6).
        assert L2.pim_cycles_per_dim > 10 * L1.pim_cycles_per_dim
        assert LINF.pim_cycles_per_dim == L1.pim_cycles_per_dim


class TestScalarReturnType:
    """Single-point (1-D) inputs must yield a true Python float.

    The old code returned a 0-d NumPy array from the ``axis=-1`` reduction,
    which callers on the kNN heap path then compared against Python floats
    (works, but silently allocates) and which breaks ``float``-typed
    consumers like sort keys and JSON export.
    """

    @pytest.mark.parametrize("metric", [L1, L2, LINF])
    def test_dist_scalar_is_float(self, metric):
        d = dist(np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.0, 0.3]), metric)
        assert type(d) is float
        # Batched inputs keep returning arrays.
        dd = dist(np.tile([0.1, 0.2, 0.3], (4, 1)), np.zeros(3), metric)
        assert isinstance(dd, np.ndarray) and dd.shape == (4,)

    @pytest.mark.parametrize("metric", [L1, L2, LINF])
    def test_dist_point_box_scalar_is_float(self, metric):
        box = Box(np.zeros(3), np.ones(3))
        d = dist_point_box(np.array([1.5, 0.5, -0.25]), box, metric)
        assert type(d) is float
        dd = dist_point_box(np.array([[1.5, 0.5, 0.0], [0.1, 0.1, 0.1]]),
                            box, metric)
        assert isinstance(dd, np.ndarray) and dd.shape == (2,)

    def test_scalar_value_matches_array_path(self, rng):
        p = rng.random(5)
        q = rng.random(5)
        box = Box(np.sort(rng.random(5)) * 0.3, 0.5 + np.sort(rng.random(5)) * 0.5)
        for metric in (L1, L2, LINF):
            assert dist(p, q, metric) == float(dist(p[None, :], q, metric)[0])
            assert dist_point_box(p, box, metric) == float(
                dist_point_box(p[None, :], box, metric)[0]
            )
