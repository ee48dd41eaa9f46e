"""Node representation of the PIM-zd-tree.

The tree is the compressed binary radix tree of §2.3 over Morton keys:
every internal node has exactly two children, a leaf holds at most
``leaf_size`` points (unless all its keys are identical), and each node
records its key ``prefix``/``depth``.  On top of the plain zd-tree shape,
a PIM-zd-tree node carries:

* ``count`` — the exact subtree size maintained by the master copy;
* ``sc`` — the *lazy counter* snapshot replicated into caches (§3.4); it
  only tracks ``count`` when the accumulated ``delta`` crosses the Table 1
  thresholds, and Lemma 3.1 guarantees ``count/2 ≤ sc ≤ 2·count``;
* ``layer`` — L0 (globally shared), L1 (partially shared) or L2
  (exclusive), derived from ``count`` against θ_L0/θ_L1 (§3.1);
* ``meta`` — the meta-node (chunk) the node belongs to (§3.2); ``None``
  for L0 nodes, which are not chunked;
* ``row`` — the node's row in the tree's structure-of-arrays arena
  (:class:`repro.core.vexec.NodeArena`), which also holds its box
  corners; ``-1`` until an arena flush rows the node, ``-2`` once it
  left the tree.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

__all__ = ["Layer", "Node", "node_words", "subtree_nodes", "LEAF_HEADER_WORDS",
           "INTERNAL_WORDS"]

INTERNAL_WORDS = 8  # prefix, depth, counters, two child refs, flags
LEAF_HEADER_WORDS = 4


class Layer(IntEnum):
    """The three layers of §3.1, ordered from root to leaves."""

    L0 = 0
    L1 = 1
    L2 = 2


class Node:
    """One zd-tree node (internal or leaf)."""

    __slots__ = (
        "nid",
        "prefix",
        "depth",
        "count",
        "sc",
        "delta",
        "left",
        "right",
        "parent",
        "keys",
        "pts",
        "layer",
        "meta",
        "row",
    )

    def __init__(self, nid: int, prefix: int, depth: int) -> None:
        self.nid = nid
        self.prefix = prefix
        self.depth = depth
        self.count = 0
        self.sc = 0  # lazy snapshot (§3.4)
        self.delta = 0  # unsynced count change since last snapshot
        self.left: Node | None = None
        self.right: Node | None = None
        self.parent: Node | None = None
        self.keys: np.ndarray | None = None  # leaves only, sorted uint64
        self.pts: np.ndarray | None = None  # leaves only, (count, D)
        self.layer: Layer = Layer.L2
        self.meta = None  # MetaNode, set by chunking
        self.row = -1  # index in the tree's NodeArena (repro.core.vexec)

    @property
    def is_leaf(self) -> bool:
        return self.keys is not None

    def key_range(self, key_bits: int) -> tuple[int, int]:
        """[lo, hi) of Morton keys covered by this node."""
        lo = self.prefix << (key_bits - self.depth) if self.depth else 0
        return lo, lo + (1 << (key_bits - self.depth))

    def key_lo(self, key_bits: int) -> int:
        """Start of the node's key range.

        A per-task traversal goes right-child-first (LIFO stack), so
        disjoint nodes are visited in *descending* ``key_lo`` order — the
        round kernels sort by this key to replay that visitation order
        exactly (repro.core.vexec).
        """
        return self.prefix << (key_bits - self.depth) if self.depth else 0

    def child_for_key(self, key: int, key_bits: int) -> "Node":
        """The child whose range contains ``key`` (internal nodes only)."""
        bit = (key >> (key_bits - self.depth - 1)) & 1
        return self.right if bit else self.left  # type: ignore[return-value]

    def words(self, dims: int) -> int:
        """Storage footprint of the master copy, in 8-byte words."""
        return node_words(self, dims)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "int"
        return (
            f"Node({kind} nid={self.nid} depth={self.depth} count={self.count} "
            f"layer={self.layer.name})"
        )


def subtree_nodes(root: Node) -> list[Node]:
    """Every node at or below ``root``, in left-first pre-order."""
    out: list[Node] = []
    stack = [root]
    while stack:
        n = stack.pop()
        out.append(n)
        if not n.is_leaf:
            stack.append(n.right)
            stack.append(n.left)
    return out


def node_words(node: Node, dims: int) -> int:
    """Words of storage for a node: header plus leaf payload."""
    if node.is_leaf:
        return LEAF_HEADER_WORDS + node.count * (dims + 1)
    return INTERNAL_WORDS
