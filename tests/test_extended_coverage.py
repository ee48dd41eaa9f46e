"""Extended coverage: higher dimensions, alternate metrics, L0 modes,
demotions, and configuration corner cases."""

import numpy as np
import pytest

from repro.core import (
    LINF,
    Box,
    PIMZdTree,
    PIMZdTreeConfig,
    skew_resistant,
    throughput_optimized,
)
from repro.core.node import Layer
from repro.pim import PIMSystem

from conftest import assert_same_points, brute_box_count, brute_knn


class TestHigherDimensions:
    @pytest.mark.parametrize("dims", [4, 6])
    def test_full_pipeline(self, rng, dims):
        pts = rng.random((1500, dims))
        tree = PIMZdTree(
            pts, config=skew_resistant(8), system=PIMSystem(8, seed=1)
        )
        tree.check_invariants()
        tree.insert(rng.random((300, dims)))
        tree.check_invariants()
        allp = tree.all_points()
        q = pts[17]
        d, _ = tree.knn(q.reshape(1, -1), 6)[0]
        np.testing.assert_allclose(d, brute_knn(allp, q, 6), atol=1e-9)
        box = Box(np.full(dims, 0.2), np.full(dims, 0.8))
        assert tree.box_count([box])[0] == brute_box_count(allp, box)

    def test_1d(self, rng):
        pts = rng.random((800, 1))
        tree = PIMZdTree(
            pts, config=throughput_optimized(800, 4), system=PIMSystem(4, seed=1)
        )
        d, _ = tree.knn(pts[:1], 3)[0]
        np.testing.assert_allclose(d, brute_knn(pts, pts[0], 3), atol=1e-12)


class TestAlternateMetrics:
    def test_linf_knn_exact(self, rng):
        pts = rng.random((1200, 3))
        tree = PIMZdTree(
            pts, config=skew_resistant(8), system=PIMSystem(8, seed=2)
        )
        q = pts[5]
        d, _ = tree.knn(q.reshape(1, -1), 9, metric=LINF)[0]
        np.testing.assert_allclose(d, brute_knn(pts, q, 9, metric=LINF), atol=1e-12)

    def test_linf_cheap_on_pim(self, rng):
        """ℓ∞ queries skip the anchored two-stage path (already PIM-cheap)."""
        pts = rng.random((2000, 3))
        tree = PIMZdTree(
            pts, config=throughput_optimized(2000, 8), system=PIMSystem(8, seed=2)
        )
        snap = tree.system.snapshot()
        tree.knn(pts[:50], 5, metric=LINF)
        d = tree.system.stats.diff(snap).total
        assert d.pim_cycles > 0


class TestL0ReplicatedMode:
    @pytest.fixture
    def tiny_cache_tree(self, rng):
        pts = rng.random((4000, 3))
        system = PIMSystem(8, seed=1, llc_bytes=2048)
        return PIMZdTree(pts, config=skew_resistant(8), system=system), pts

    def test_updates_in_replicated_mode(self, tiny_cache_tree, rng):
        tree, pts = tiny_cache_tree
        assert not tree.l0_on_cpu
        extra = rng.random((800, 3))
        tree.insert(extra)
        tree.check_invariants()
        assert_same_points(tree.all_points(), np.vstack([pts, extra]))

    def test_l0_sync_broadcasts(self, tiny_cache_tree, rng):
        """L0 counter syncs must broadcast to all replicas (comm charge)."""
        tree, pts = tiny_cache_tree
        node = tree.root
        assert node.layer == Layer.L0
        before = tree.system.stats.total.comm_words
        _, dmax = tree.config.lazy_delta_bounds(0)
        tree.record_count_changes({node: int(dmax)})
        after = tree.system.stats.total.comm_words
        assert after - before >= 2 * tree.system.n_modules
        tree.record_count_changes({node: -int(dmax)})  # restore

    def test_queries_exact_in_replicated_mode(self, tiny_cache_tree):
        tree, pts = tiny_cache_tree
        q = pts[123]
        d, _ = tree.knn(q.reshape(1, -1), 5)[0]
        np.testing.assert_allclose(d, brute_knn(pts, q, 5), atol=1e-12)


class TestDemotions:
    def test_mass_delete_demotes_from_l0(self, rng):
        pts = rng.random((6000, 3))
        tree = PIMZdTree(
            pts, config=skew_resistant(8), system=PIMSystem(8, seed=1)
        )
        n_l0_before = len(tree.l0_nodes())
        # Delete ~85% — the L0 border must retreat upward.
        for i in range(0, 5000, 500):
            tree.delete(pts[i : i + 500])
            tree.check_invariants()
        assert len(tree.l0_nodes()) < n_l0_before
        # Remaining structure still answers exactly.
        live = pts[5000:]
        q = live[7]
        d, _ = tree.knn(q.reshape(1, -1), 5)[0]
        np.testing.assert_allclose(d, brute_knn(live, q, 5), atol=1e-12)

    def test_delete_then_regrow(self, rng):
        pts = rng.random((4000, 3))
        tree = PIMZdTree(
            pts, config=skew_resistant(8), system=PIMSystem(8, seed=1)
        )
        tree.delete(pts[:3000])
        tree.insert(pts[:3000])
        tree.check_invariants()
        assert_same_points(tree.all_points(), pts)


class TestConfigCorners:
    def test_custom_config(self, rng):
        pts = rng.random((2000, 3))
        cfg = PIMZdTreeConfig(
            "custom", theta_l0=200, theta_l1=20, chunk_factor=8, leaf_size=8
        )
        tree = PIMZdTree(pts, config=cfg, system=PIMSystem(8, seed=1))
        tree.check_invariants()
        q = pts[0]
        d, _ = tree.knn(q.reshape(1, -1), 4)[0]
        np.testing.assert_allclose(d, brute_knn(pts, q, 4), atol=1e-12)

    def test_explicit_bits(self, rng):
        pts = rng.random((1000, 3))
        tree = PIMZdTree(
            pts, config=throughput_optimized(1000, 4),
            system=PIMSystem(4, seed=1), bits=10,
        )
        assert tree.key_bits == 30
        tree.check_invariants()

    def test_leaf_size_one(self, rng):
        pts = rng.random((300, 2))
        cfg = PIMZdTreeConfig("tiny", theta_l0=100, theta_l1=4, chunk_factor=4,
                              leaf_size=1)
        tree = PIMZdTree(pts, config=cfg, system=PIMSystem(4, seed=1))
        tree.check_invariants()
        assert tree.size == 300

    def test_single_module(self, rng):
        pts = rng.random((1000, 3))
        tree = PIMZdTree(
            pts, config=throughput_optimized(1000, 1), system=PIMSystem(1, seed=1)
        )
        tree.insert(rng.random((200, 3)))
        tree.check_invariants()
        q = pts[3]
        d, _ = tree.knn(q.reshape(1, -1), 5)[0]
        np.testing.assert_allclose(
            d, brute_knn(tree.all_points(), q, 5), atol=1e-12
        )


class TestBaselineModes:
    def test_zd_fast_zorder_mode(self, rng):
        from repro.baselines import ZdTree

        pts = rng.random((1000, 3))
        t = ZdTree(pts, naive_zorder=False)
        t.check_invariants()
        t.insert(rng.random((200, 3)))
        t.check_invariants()
        q = pts[0]
        d, _ = t.knn(q, 5)
        np.testing.assert_allclose(d, brute_knn(t.all_points(), q, 5), atol=1e-12)
