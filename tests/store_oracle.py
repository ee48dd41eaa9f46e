"""The per-node snapshot encoder: the differential oracle for ``encode_tree``.

Production (``repro.store.snapshot.encode_tree``) lays the topology out in
column passes over the tree's node arena and builds each chunk blob with
one join.  This module keeps the plainest form of the same encoding: an
explicit preorder walk from the root (push right, then left), one
``struct`` record packed per node and per meta-node, and one
``ascontiguousarray`` + ``tobytes`` per leaf array, with leaves grouped
by owning chunk in walk order.  Its node record is a ``struct`` of its
own, not production's structured dtype, so the two layouts are checked
against each other too.

:func:`oracle_blobs` returns ``(topology, chunks)``; :func:`oracle_encode`
wraps them in the production manifest, so an image from either encoder
can be compared field by field.  ``tests/test_snapshot_codec.py`` holds
production byte-equal to it.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.store.snapshot import _BUILT_SC_NONE, _assemble

__all__ = ["oracle_blobs", "oracle_encode"]

# nid, prefix, depth, flags, layer, count, sc, delta, meta_idx
_NODE = struct.Struct("<QQHBBqqqi")
# root_nid, module, parent_idx, stale, built_sc, n_nodes, payload_words,
# l1_desc_metas, hot_hits, n_children
_META = struct.Struct("<QiiBqIdiQH")
_META_KID = struct.Struct("<i")
_LEAF_HEAD = struct.Struct("<QI")     # leaf nid, n points
_TOPO_HEAD = struct.Struct("<IIQ")    # n_nodes, n_metas, dims

_FLAG_LEAF = 1


def oracle_blobs(tree) -> tuple[bytes, dict[str, bytes]]:
    """``(topology, chunk id -> blob)`` of ``tree``, one node at a time."""
    metas = sorted(tree.metas, key=lambda m: m.root.nid)
    meta_idx = {id(m): i for i, m in enumerate(metas)}

    # Iterative preorder walk (push right then left so left pops first);
    # leaves are grouped by owning chunk in walk order.
    nodes: list = []
    chunk_leaves: dict[str, list] = {}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if node.is_leaf:
            cid = "l0" if node.meta is None else f"m{node.meta.root.nid}"
            chunk_leaves.setdefault(cid, []).append(node)
        else:
            stack.append(node.right)
            stack.append(node.left)

    topo = bytearray(
        _TOPO_HEAD.size + _NODE.size * len(nodes) + _META.size * len(metas)
        + _META_KID.size * sum(len(m.children) for m in metas))
    _TOPO_HEAD.pack_into(topo, 0, len(nodes), len(metas), tree.dims)
    off = _TOPO_HEAD.size
    for node in nodes:
        _NODE.pack_into(
            topo, off, node.nid, node.prefix, node.depth,
            _FLAG_LEAF if node.is_leaf else 0, int(node.layer), node.count,
            node.sc, node.delta,
            meta_idx[id(node.meta)] if node.meta is not None else -1)
        off += _NODE.size
    for m in metas:
        parent_idx = (meta_idx[id(m.parent)]
                      if m.parent is not None and id(m.parent) in meta_idx
                      else -1)
        built = tree._meta_built_sc.get(m, _BUILT_SC_NONE)
        stale = 1 if m in tree._stale_metas else 0
        _META.pack_into(
            topo, off, m.root.nid, int(m.module), parent_idx, stale,
            int(built), int(m.n_nodes), float(m.payload_words),
            int(m.l1_desc_metas), int(m.hot_hits), len(m.children))
        off += _META.size
        for c in m.children:
            _META_KID.pack_into(topo, off, meta_idx[id(c)])
            off += _META_KID.size

    chunks: dict[str, bytes] = {}
    for cid, leaves in chunk_leaves.items():
        parts = []
        for leaf in leaves:
            keys = np.ascontiguousarray(leaf.keys, dtype="<u8")
            pts = np.ascontiguousarray(leaf.pts, dtype="<f8")
            parts += (_LEAF_HEAD.pack(leaf.nid, len(keys)),
                      keys.tobytes(), pts.tobytes())
        chunks[cid] = b"".join(parts)
    return bytes(topo), chunks


def oracle_encode(tree, *, wal_seq: int = 0):
    """The full :class:`~repro.store.snapshot.SnapshotImage`, oracle blobs."""
    return _assemble(tree, *oracle_blobs(tree), wal_seq=wal_seq)
