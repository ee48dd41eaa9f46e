"""Unit tests for meta-node chunking mechanics (§3.2, §6)."""

import numpy as np
import pytest

from repro.core import PIMZdTree, skew_resistant
from repro.core.chunking import MetaNode, chunk_region, iter_meta_subtree
from repro.core.config import PIMZdTreeConfig
from repro.core.node import Layer, Node, node_words
from repro.pim import PIMSystem


def build_manual_tree(counts):
    """A hand-built right-spine tree with the given leaf subtree sizes."""
    nid = [0]

    def make(prefix, depth):
        nid[0] += 1
        return Node(nid[0], prefix, depth)

    root = make(0, 0)
    node = root
    total = sum(counts)
    node.count = node.sc = total
    for i, c in enumerate(counts[:-1]):
        leaf = make(node.prefix << 1, node.depth + 1)
        leaf.keys = np.zeros(c, dtype=np.uint64)
        leaf.pts = np.zeros((c, 2))
        leaf.count = leaf.sc = c
        rest = make((node.prefix << 1) | 1, node.depth + 1)
        rest.count = rest.sc = sum(counts[i + 1:])
        node.left = leaf
        node.right = rest
        leaf.parent = node
        rest.parent = node
        node = rest
    node.keys = np.zeros(counts[-1], dtype=np.uint64)
    node.pts = np.zeros((counts[-1], 2))
    node.count = node.sc = counts[-1]
    return root


def assign_layers(root, theta_l0, theta_l1):
    stack = [(root, Layer.L0)]
    while stack:
        n, clamp = stack.pop()
        if n.sc >= theta_l0:
            raw = Layer.L0
        elif n.sc >= theta_l1:
            raw = Layer.L1
        else:
            raw = Layer.L2
        n.layer = Layer(max(raw, clamp))
        if not n.is_leaf:
            stack.append((n.left, n.layer))
            stack.append((n.right, n.layer))


CFG = PIMZdTreeConfig("t", theta_l0=10**9, theta_l1=4, chunk_factor=4)


class TestChunkRegion:
    def test_members_follow_size_rule(self):
        root = build_manual_tree([1, 1, 1, 64, 1, 1])
        assign_layers(root, 10**9, 4)
        metas = chunk_region(root, CFG, 2, lambda key: 0)
        # Root chunk: members are descendants with sc > root.sc/B.
        top = metas[0]
        threshold = root.sc / CFG.chunk_factor
        stack = [root]
        while stack:
            n = stack.pop()
            if n.meta is top and n is not root:
                assert n.sc > threshold and n.layer == top.layer
            if not n.is_leaf:
                stack.extend((n.left, n.right))

    def test_all_nodes_assigned(self):
        root = build_manual_tree([3, 5, 2, 9, 1, 7])
        assign_layers(root, 10**9, 4)
        metas = chunk_region(root, CFG, 2, lambda key: hash(key) % 4)
        stack = [root]
        while stack:
            n = stack.pop()
            assert n.meta is not None
            assert n.meta in metas
            if not n.is_leaf:
                stack.extend((n.left, n.right))

    def test_counts_and_payload(self):
        root = build_manual_tree([3, 5, 2])
        assign_layers(root, 10**9, 4)
        metas = chunk_region(root, CFG, 2, lambda key: 0)
        total_nodes = sum(m.n_nodes for m in metas)
        total_payload = sum(m.payload_words for m in metas)
        count = [0]
        words = [0]

        def rec(n):
            count[0] += 1
            words[0] += node_words(n, 2)
            if not n.is_leaf:
                rec(n.left)
                rec(n.right)

        rec(root)
        assert total_nodes == count[0]
        assert total_payload == words[0]

    def test_l0_region_rejected(self):
        root = build_manual_tree([3, 3])
        assign_layers(root, 2, 1)  # root becomes L0
        with pytest.raises(ValueError):
            chunk_region(root, CFG, 2, lambda key: 0)

    def test_layer_boundary_starts_new_chunk(self):
        root = build_manual_tree([1, 1, 30, 1])
        assign_layers(root, 10**9, 4)  # leaves of size 1 are L2
        metas = chunk_region(root, CFG, 2, lambda key: 0)
        for m in metas:
            stack = [m.root]
            # all members share the meta's layer
            seen = []
            while stack:
                n = stack.pop()
                if n.meta is m:
                    seen.append(n.layer)
                if not n.is_leaf:
                    stack.extend((n.left, n.right))
            assert all(l == m.layer for l in seen)

    def test_b_equal_one_singletons(self):
        cfg = PIMZdTreeConfig("t", theta_l0=10**9, theta_l1=1, chunk_factor=1)
        root = build_manual_tree([2, 2, 2])
        assign_layers(root, 10**9, 1)
        metas = chunk_region(root, cfg, 2, lambda key: 0)
        assert all(m.n_nodes == 1 for m in metas)

    def test_iter_meta_subtree_preorder(self):
        root = build_manual_tree([1, 1, 1, 1, 1])
        assign_layers(root, 10**9, 4)
        metas = chunk_region(root, CFG, 2, lambda key: 0)
        listed = list(iter_meta_subtree(metas[0]))
        assert set(listed) == set(metas)
        assert listed[0] is metas[0]


class TestSparseDenseModes:
    def test_mode_threshold(self):
        cfg = PIMZdTreeConfig("t", theta_l0=10**9, theta_l1=1, chunk_factor=16)
        m = MetaNode.__new__(MetaNode)
        m.n_nodes = 3
        m.payload_words = 30
        assert not m.dense(cfg)  # < B/4 = 4 nodes
        m.n_nodes = 4
        assert m.dense(cfg)

    def test_size_includes_index(self):
        cfg = PIMZdTreeConfig("t", theta_l0=10**9, theta_l1=1, chunk_factor=16)
        m = MetaNode.__new__(MetaNode)
        m.payload_words = 100
        m.n_nodes = 2  # sparse: two B/4 arrays
        assert m.size_words(cfg) == 100 + 2 * 4
        m.n_nodes = 10  # dense: B pointer slots
        assert m.size_words(cfg) == 100 + 16

    def test_dense_cheaper_per_node(self):
        cfg = PIMZdTreeConfig("t", theta_l0=10**9, theta_l1=1, chunk_factor=16)
        sparse = MetaNode.__new__(MetaNode)
        sparse.n_nodes = 2
        dense = MetaNode.__new__(MetaNode)
        dense.n_nodes = 8
        assert dense.cycles_per_node(cfg) < sparse.cycles_per_node(cfg)


class TestReplicaCounting:
    def test_chain_replicas(self, rng):
        """An L1 meta chain of length d gives each meta d-1 copies."""
        pts = rng.random((6000, 3))
        tree = PIMZdTree(
            pts, config=skew_resistant(8), system=PIMSystem(8, seed=4)
        )
        for m in tree.metas:
            if m.layer != Layer.L1:
                continue
            anc = len(m.l1_ancestors())
            assert m.replica_count() == anc + m.l1_desc_metas
            # Ancestors are L1 and form a chain up to the L0 border.
            up = m.parent
            walked = 0
            while up is not None and up.layer == Layer.L1:
                walked += 1
                up = up.parent
            assert walked == anc
