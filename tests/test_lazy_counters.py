"""Tests for the lazy counter protocol (§3.4, Table 1, Lemma 3.1)."""

import numpy as np
import pytest

from repro.core import PIMZdTree, skew_resistant, throughput_optimized, vexec
from repro.core.node import Layer
from repro.pim import PIMSystem


def make_tree(points, variant="skew", n_modules=8, seed=1, **cfg_over):
    system = PIMSystem(n_modules, seed=seed)
    if variant == "throughput":
        cfg = throughput_optimized(len(points), n_modules, **cfg_over)
    else:
        cfg = skew_resistant(n_modules, **cfg_over)
    return PIMZdTree(points, config=cfg, system=system)


def walk(tree):
    stack = [tree.root]
    while stack:
        n = stack.pop()
        yield n
        if not n.is_leaf:
            stack.extend((n.left, n.right))


class TestLemma31:
    """SC must stay within [T/2, 2T] at all times (Lemma 3.1)."""

    @pytest.mark.parametrize("variant", ["throughput", "skew"])
    def test_after_insert_storm(self, rng, variant):
        pts = rng.random((3000, 3))
        tree = make_tree(pts[:1000], variant)
        for i in range(1000, 3000, 250):
            tree.insert(pts[i : i + 250])
            for n in walk(tree):
                if n.count > 0:
                    assert n.count / 2 <= n.sc <= 2 * n.count, (
                        f"{n}: sc={n.sc} count={n.count}"
                    )

    def test_after_deletions(self, rng):
        pts = rng.random((3000, 3))
        tree = make_tree(pts, "skew")
        for i in range(0, 2000, 400):
            tree.delete(pts[i : i + 400])
            for n in walk(tree):
                if n.count > 0:
                    assert n.count / 2 <= n.sc <= 2 * n.count

    def test_skewed_hotspot_inserts(self, rng):
        """Inserts hammering one corner must not break the bound."""
        pts = rng.random((2000, 3))
        tree = make_tree(pts, "skew")
        hot = rng.random((1500, 3)) * 0.02
        for i in range(0, 1500, 300):
            tree.insert(hot[i : i + 300])
            for n in walk(tree):
                if n.count > 0:
                    assert n.count / 2 <= n.sc <= 2 * n.count


class TestSyncBehaviour:
    def test_l2_nodes_always_exact(self, rng):
        pts = rng.random((2000, 3))
        tree = make_tree(pts, "skew")
        tree.insert(rng.random((500, 3)))
        for n in walk(tree):
            if n.layer == Layer.L2:
                assert n.sc == n.count
                assert n.delta == 0

    def test_l0_nodes_lag_within_delta(self, rng):
        pts = rng.random((4000, 3))
        tree = make_tree(pts, "skew")
        tree.insert(rng.random((300, 3)))
        dmin, dmax = tree.config.lazy_delta_bounds(0)
        for n in walk(tree):
            if n.layer == Layer.L0:
                assert dmin < n.delta < dmax

    def test_eager_mode_keeps_exact_everywhere(self, rng):
        pts = rng.random((2000, 3))
        tree = make_tree(pts, "skew", lazy_counters=False)
        tree.insert(rng.random((400, 3)))
        tree.delete(pts[:200])
        for n in walk(tree):
            assert n.sc == n.count

    def test_eager_mode_costs_more_sync_traffic(self, rng):
        """Table 3: removing lazy counters slows INSERT (more replica
        sync traffic)."""
        pts = rng.random((4000, 3))
        batch = rng.random((1000, 3))

        def insert_comm(lazy: bool) -> float:
            tree = make_tree(pts, "skew", lazy_counters=lazy)
            snap = tree.system.snapshot()
            tree.insert(batch)
            return tree.system.stats.diff(snap).total.comm_words

        assert insert_comm(False) > insert_comm(True)

    def test_record_count_change_sync_thresholds(self, rng):
        pts = rng.random((3000, 3))
        tree = make_tree(pts, "skew")
        # Pick an L0 node and apply changes below/above the threshold.
        node = tree.root
        assert node.layer == Layer.L0
        dmin, dmax = tree.config.lazy_delta_bounds(0)
        sc_before = node.sc
        synced = tree.record_count_changes({node: int(dmax) - 1})
        assert not synced and node.sc == sc_before
        synced = tree.record_count_changes({node: 1})  # reaches dmax
        assert synced and node.sc == node.count and node.delta == 0
        # Undo the artificial change to keep the structure consistent.
        tree.record_count_changes({node: -int(dmax)})
        tree.sync_counter(node)

    def test_zero_delta_no_sync(self, rng):
        pts = rng.random((1000, 3))
        tree = make_tree(pts, "skew")
        node = tree.root
        assert not tree.record_count_changes({node: 0})


# ----------------------------------------------------------------------
# the count path: one arena scatter, marks only where more than a count
# changed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", ["throughput", "skew"])
def test_count_changes_mark_only_leaves_and_synced_roots(rng, variant):
    """An insert into a leaf with room leaves no internal node dirty in
    the arena except chunk roots whose snapshot synced; the path's other
    count changes reach the arena through the scatter, which
    ``check_invariants`` compares with a fresh build."""
    tree = make_tree(rng.random((3000, 3)), variant)
    arena = vexec.node_arena(tree)
    assert not arena.dirty
    leaf = next(nd for nd in walk(tree)
                if nd.is_leaf and nd.count < tree.config.leaf_size)
    counts = {nd: nd.count for nd in walk(tree)}
    tree.insert(leaf.pts[:1])
    assert tree._arena is arena and leaf.count == counts[leaf] + 1
    changed = [nd for nd in walk(tree)
               if not nd.is_leaf and nd.count != counts[nd]]
    assert changed and tree.root in changed
    dirty_inner = [nd for nd in arena.dirty if not nd.is_leaf]
    assert all(
        nd.meta is not None and nd.meta.root is nd and nd.delta == 0
        for nd in dirty_inner
    ), "a count-only change marked its node"
    assert len(dirty_inner) < len(changed)
    tree.check_invariants()


@pytest.mark.parametrize("variant", ["throughput", "skew", "eager", "override"])
def test_delta_bounds_match_table1_per_layer(variant):
    if variant == "throughput":
        cfg = throughput_optimized(20_000, 16)
    elif variant == "skew":
        cfg = skew_resistant(64)
    elif variant == "eager":
        cfg = skew_resistant(64, lazy_counters=False)
    else:
        cfg = throughput_optimized(20_000, 16).with_overrides(theta_l1=7,
                                                              chunk_factor=5)
    assert len(cfg.delta_bounds) == len(Layer)
    for layer in Layer:
        assert cfg.delta_bounds[layer] == cfg.lazy_delta_bounds(int(layer))
