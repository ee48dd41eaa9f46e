"""Subtree-size chunking into meta-nodes (§3.2) with sparse/dense modes (§6).

Traditional fanout-based chunking assumes meaningful levels; zd-trees are
imbalanced, so PIM-zd-tree chunks purely by subtree size: for the highest
unchunked node ``N_i`` of a layer, every same-layer descendant ``N_j`` with
``T(N_j) > T(N_i)/B`` joins ``N_i``'s chunk (a *meta-node*); the rule then
recurses on the highest remaining nodes.  All nodes of a meta-node live on
one PIM module, and L1 sharing/caching operates at meta-node granularity.

Practical chunking (§6) gives each meta-node one of two capacity modes,
ART-style: chunks with < B/4 member nodes use *sparse* mode (two parallel
sorted arrays of keys and pointers — lookups binary-search), denser chunks
use *dense* mode (a B-slot pointer array indexed directly by key bits).
The mode changes both the chunk's storage footprint and its per-node
traversal cost on the PIM core.

Chunking decisions use the lazy counters (``node.sc``), not the exact
counts — exactly why Lemma 3.1's 2-approximation matters: it bounds how
far a chunk can drift from the shape the true sizes would give.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .config import PIMZdTreeConfig
from .node import Layer, Node, node_words

__all__ = ["MetaNode", "chunk_region", "iter_meta_subtree"]

# PIM-core cycles to advance one node inside a meta-node.
DENSE_CYCLES_PER_NODE = 8  # direct pointer-array indexing
SPARSE_CYCLES_PER_NODE = 14  # binary search in the sorted key array


class MetaNode:
    """A chunk of same-layer tree nodes resident on one PIM module."""

    __slots__ = (
        "root",
        "layer",
        "module",
        "parent",
        "children",
        "n_nodes",
        "payload_words",
        "l1_desc_metas",
        "hot_hits",
    )

    def __init__(self, root: Node, module: int) -> None:
        self.root = root
        self.layer: Layer = root.layer
        self.module = module
        self.parent: "MetaNode | None" = None
        self.children: list[MetaNode] = []
        self.n_nodes = 0
        self.payload_words = 0
        # Number of L1 meta-nodes strictly below this one (for replication
        # accounting: an L1 meta is cached by its L1 ancestors/descendants).
        self.l1_desc_metas = 0
        # Tasks dispatched to this meta's module on its behalf (maintained
        # by the push-pull executor, decayed by the rebalancer).  Pure
        # host-side popularity signal — never charged.
        self.hot_hits = 0

    # -- practical chunking (§6) ----------------------------------------
    def dense(self, config: PIMZdTreeConfig) -> bool:
        return self.n_nodes >= max(1, config.chunk_factor // 4)

    def index_words(self, config: PIMZdTreeConfig) -> int:
        b = config.chunk_factor
        return b if self.dense(config) else 2 * max(1, b // 4)

    def size_words(self, config: PIMZdTreeConfig) -> int:
        """Master-copy footprint: member nodes plus the chunk index."""
        return self.payload_words + self.index_words(config)

    def cycles_per_node(self, config: PIMZdTreeConfig) -> int:
        return DENSE_CYCLES_PER_NODE if self.dense(config) else SPARSE_CYCLES_PER_NODE

    def l1_ancestors(self) -> list["MetaNode"]:
        """L1 meta-nodes strictly above this one (stops at the L0 border)."""
        out = []
        m = self.parent
        while m is not None and m.layer == Layer.L1:
            out.append(m)
            m = m.parent
        return out

    def replica_count(self) -> int:
        """How many caches hold a copy of this meta-node (L1 sharing, §3.1).

        Each L1 meta-node is cached alongside the master storage of every
        L1 ancestor and every L1 descendant meta-node; other layers are
        never replicated at meta-node granularity.
        """
        if self.layer != Layer.L1:
            return 0
        return len(self.l1_ancestors()) + self.l1_desc_metas

    def upload_words(self, config: PIMZdTreeConfig) -> int:
        """Words sent to install this chunk on a module: the master copy
        plus one copy per cache that shares it (L1 fan-out)."""
        return self.size_words(config) * (1 + self.replica_count())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetaNode(root={self.root.nid} layer={self.layer.name} "
            f"module={self.module} nodes={self.n_nodes})"
        )


def chunk_region(
    region_root: Node,
    config: PIMZdTreeConfig,
    dims: int,
    place: Callable[[object], int],
) -> list[MetaNode]:
    """Chunk the whole subtree under ``region_root`` into meta-nodes.

    ``region_root`` must be the topmost node of a non-L0 region (its parent
    is an L0 node, or it is the tree root).  Returns every created meta-node
    (the first is the topmost).  ``place`` maps a placement key to a module
    (hash-randomised placement, §3).  Parent/child meta links are built for
    the region; the caller is responsible for linking the topmost meta to
    whatever sits above the region.
    """
    if region_root.layer == Layer.L0:
        raise ValueError("L0 nodes are globally shared, never chunked")
    metas: list[MetaNode] = []

    def build(root: Node, parent_meta: MetaNode | None) -> MetaNode:
        meta = MetaNode(root, place(("meta", root.nid)))
        meta.parent = parent_meta
        if parent_meta is not None:
            parent_meta.children.append(meta)
        metas.append(meta)
        threshold = root.sc / max(1, config.chunk_factor)
        stack = [root]
        while stack:
            n = stack.pop()
            n.meta = meta
            meta.n_nodes += 1
            meta.payload_words += node_words(n, dims)
            if n.is_leaf:
                continue
            for c in (n.left, n.right):
                assert c is not None
                if c.layer == root.layer and c.sc > threshold:
                    stack.append(c)
                else:
                    build(c, meta)
        return meta

    top = build(region_root, None)
    _accumulate_l1_desc(top)
    return metas


def _accumulate_l1_desc(meta: MetaNode) -> int:
    """Post-order fill of ``l1_desc_metas``; returns #L1 metas in subtree."""
    below = 0
    for child in meta.children:
        below += _accumulate_l1_desc(child)
    meta.l1_desc_metas = below
    return below + (1 if meta.layer == Layer.L1 else 0)


def iter_meta_subtree(meta: MetaNode) -> Iterator[MetaNode]:
    """All meta-nodes of the subtree rooted at ``meta`` (pre-order)."""
    yield meta
    for child in meta.children:
        yield from iter_meta_subtree(child)
