"""Shared-memory zd-tree baseline (Blelloch & Dobson, ALENEX'22 [12]).

A zd-tree is a kd-tree whose splitting rule follows the bits of the
z-order (Morton) key: the root covers the whole bounding box and level *i*
splits on bit *i* of the key.  We implement the compressed-radix-tree
variant the paper describes (§2.3): empty leaves are omitted and
single-child paths are merged, so every internal node has exactly two
children and the tree has ``2·#leaves − 1`` nodes.

This is the *CPU baseline*: it executes as ordinary Python, charging an
optional :class:`~repro.baselines.cpu_cost.CPUCostMeter` for work and
cache-block traffic with a pointer-chasing cost profile (one 64-byte block
per internal node plus one for its bounding box, per-leaf allocations) and
the **naive O(bits) z-order encoding** used by prior shared-memory
implementations (§6 notes this; the fast codec is a PIM-zd-tree technique).

Supported operations (all batch): construction, INSERT, DELETE, exact kNN,
BoxCount and BoxFetch — the operation set of §4/§7.
"""

from __future__ import annotations

import heapq
import numpy as np

from ..core.geometry import L2, Box, Metric, dist, dist_point_box
from ..core.morton import MortonCodec
from .cpu_cost import CPUCostMeter

__all__ = ["ZdTree", "NullMeter"]

# Work charge constants (abstract instructions).
_C_NODE_VISIT = 6  # descend one internal node: load, test bit, branch
_C_LEAF_BASE = 4
_C_HEAP_OP = 12
_C_MERGE_PER_KEY = 4
_C_BUILD_PER_KEY = 10  # per key per level during subtree construction


class NullMeter:
    """A meter that ignores all charges (for tests that only check logic)."""

    def work(self, ops: float, span: float = 0.0) -> None:
        pass

    def touch(self, block_id) -> bool:
        return True

    def touch_words(self, obj_id, words: float) -> None:
        pass

    def stream(self, words: float) -> None:
        pass


class _Node:
    __slots__ = ("prefix", "depth", "count", "nid", "box")

    leaf = False

    def __init__(self, prefix: int, depth: int, count: int, nid: int) -> None:
        self.prefix = prefix
        self.depth = depth
        self.count = count
        self.nid = nid
        self.box: Box | None = None


class _Leaf(_Node):
    __slots__ = ("keys", "pts")

    leaf = True

    def __init__(self, prefix, depth, nid, keys: np.ndarray, pts: np.ndarray) -> None:
        super().__init__(prefix, depth, len(keys), nid)
        self.keys = keys
        self.pts = pts


class _Internal(_Node):
    __slots__ = ("left", "right")

    def __init__(self, prefix, depth, count, nid, left, right) -> None:
        super().__init__(prefix, depth, count, nid)
        self.left = left
        self.right = right


class ZdTree:
    """Batch-dynamic shared-memory zd-tree over D-dimensional float points."""

    def __init__(
        self,
        points: np.ndarray,
        *,
        bounds: tuple[np.ndarray, np.ndarray] | None = None,
        bits: int | None = None,
        leaf_size: int = 16,
        meter: CPUCostMeter | NullMeter | None = None,
        naive_zorder: bool = True,
    ) -> None:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[0] == 0:
            raise ValueError("ZdTree requires at least one initial point")
        self.dims = points.shape[1]
        self.leaf_size = int(leaf_size)
        self.meter = meter if meter is not None else NullMeter()
        self.naive_zorder = naive_zorder
        if bounds is not None:
            lo, hi = bounds
            self.codec = MortonCodec(lo, hi, self.dims, bits or _default_bits(self.dims))
        else:
            self.codec = MortonCodec.fit(points, bits)
        self._kb = self.codec.key_bits
        self._next_nid = 0
        keys = self._encode(points)
        order = np.argsort(keys, kind="stable")
        self.meter.work(len(keys) * max(1, int(np.log2(len(keys) + 1))))
        self.meter.stream(len(keys) * (self.dims + 1))
        self.root: _Node = self._build(keys[order], points[order], 0)

    # ------------------------------------------------------------------
    # basic helpers
    # ------------------------------------------------------------------
    def _encode(self, points: np.ndarray) -> np.ndarray:
        # Prior shared-memory implementations interleave bit by bit (O(bits)
        # work per key); the fast O(log bits) codec is a PIM-zd-tree
        # technique (§6) but can be enabled here for experimentation.  The
        # keys are the same either way: only the charged work differs.
        keys = self.codec.encode(points)
        if self.naive_zorder:
            self.meter.work(len(points) * self._kb)
        else:
            self.meter.work(
                len(points) * self.dims * max(1, int(np.log2(self.codec.bits)))
            )
        return keys

    def _new_nid(self) -> int:
        self._next_nid += 1
        return self._next_nid

    def _node_box(self, node: _Node) -> Box:
        # The zd-tree stores no boxes: they are decoded on demand from the
        # z-order prefix (registers only — work, not memory traffic).  The
        # Python-side cache on the node is a simulation memoisation.
        if node.box is None:
            lo, hi = self.codec.prefix_box(node.prefix, node.depth)
            node.box = Box(lo, hi)
        self.meter.work(self._box_decode_ops())
        return node.box

    def _touch_node(self, node: _Node) -> None:
        self.meter.touch(("zd", "node", node.nid))

    def _touch_leaf_data(self, leaf: _Leaf, n_points: int | None = None) -> None:
        n = leaf.count if n_points is None else n_points
        self.meter.touch_words(("zd", "leafdata", leaf.nid), n * (self.dims + 1))

    @property
    def size(self) -> int:
        return self.root.count

    def height(self) -> int:
        def h(node: _Node) -> int:
            if node.leaf:
                return 1
            return 1 + max(h(node.left), h(node.right))

        return h(self.root)

    def num_nodes(self) -> int:
        def c(node: _Node) -> int:
            if node.leaf:
                return 1
            return 1 + c(node.left) + c(node.right)

        return c(self.root)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, keys: np.ndarray, pts: np.ndarray, base_depth: int) -> _Node:
        """Build a subtree from keys sorted ascending; all keys share the
        first ``base_depth`` bits."""
        n = len(keys)
        self.meter.work(n * _C_BUILD_PER_KEY)
        first = int(keys[0])
        last = int(keys[-1])
        cp = self._common_depth(first, last)
        if n <= self.leaf_size or cp >= self._kb:
            prefix = first >> (self._kb - base_depth) if base_depth else 0
            return _Leaf(prefix, base_depth, self._new_nid(), keys.copy(), pts.copy())
        # Path compression: the node sits at the first depth where keys
        # actually differ.
        depth = cp
        prefix = first >> (self._kb - depth)
        split_bit = self._kb - depth - 1
        threshold = ((prefix << 1) | 1) << split_bit
        idx = _searchsorted_u64(keys, threshold)
        left = self._build(keys[:idx], pts[:idx], depth + 1)
        right = self._build(keys[idx:], pts[idx:], depth + 1)
        return _Internal(prefix, depth, n, self._new_nid(), left, right)

    def _common_depth(self, a: int, b: int) -> int:
        """Number of leading key bits shared by ``a`` and ``b``."""
        x = a ^ b
        if x == 0:
            return self._kb
        return self._kb - x.bit_length()

    # ------------------------------------------------------------------
    # INSERT
    # ------------------------------------------------------------------
    def insert(self, points: np.ndarray) -> None:
        """Insert a batch of points (duplicates allowed)."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[0] == 0:
            return
        if points.shape[1] != self.dims:
            raise ValueError("dimension mismatch")
        keys = self._encode(points)
        order = np.argsort(keys, kind="stable")
        n = len(keys)
        self.meter.work(n * max(1, int(np.log2(n + 1))), span=np.log2(n + 2))
        self.meter.stream(n * (self.dims + 1))
        self.root = self._insert_rec(self.root, keys[order], points[order], 0)

    def _insert_rec(
        self, node: _Node, keys: np.ndarray, pts: np.ndarray, base_depth: int
    ) -> _Node:
        """Merge sorted ``keys`` into the subtree rooted at ``node``.

        All keys share the first ``base_depth`` bits with ``node.prefix``
        (the bits consumed by ancestors).  Keys may still diverge inside
        the compressed edge between ``base_depth`` and ``node.depth``.
        """
        if len(keys) == 0:
            return node
        self._touch_node(node)
        self.meter.work(_C_NODE_VISIT + len(keys) * _C_MERGE_PER_KEY)
        kb = self._kb
        lo_key = node.prefix << (kb - node.depth) if node.depth else 0
        hi_key = lo_key + (1 << (kb - node.depth))
        i0 = _searchsorted_u64(keys, lo_key)
        i1 = _searchsorted_u64(keys, hi_key)
        if i0 > 0 or i1 < len(keys):
            return self._split_edge(node, keys, pts, base_depth, lo_key, hi_key)
        # All keys inside node's range.
        if node.leaf:
            return self._merge_leaf(node, keys, pts, base_depth)
        split_bit = kb - node.depth - 1
        threshold = ((node.prefix << 1) | 1) << split_bit
        mid = _searchsorted_u64(keys, threshold)
        node.left = self._insert_rec(node.left, keys[:mid], pts[:mid], node.depth + 1)
        node.right = self._insert_rec(node.right, keys[mid:], pts[mid:], node.depth + 1)
        node.count = node.left.count + node.right.count
        return node

    def _split_edge(
        self,
        node: _Node,
        keys: np.ndarray,
        pts: np.ndarray,
        base_depth: int,
        lo_key: int,
        hi_key: int,
    ) -> _Node:
        """Some keys diverge from ``node`` inside its compressed edge: create
        the internal node at the LCA of the batch and the node's range."""
        kb = self._kb
        span_lo = min(int(keys[0]), lo_key)
        span_hi = max(int(keys[-1]), hi_key - 1)
        d = self._common_depth(span_lo, span_hi)
        # d < node.depth by construction (otherwise no divergence).
        prefix = span_lo >> (kb - d)
        split_bit = kb - d - 1
        threshold = ((prefix << 1) | 1) << split_bit
        mid = _searchsorted_u64(keys, threshold)
        node_on_right = bool((lo_key >> split_bit) & 1)
        self.meter.work(_C_NODE_VISIT)
        if node_on_right:
            left = self._build(keys[:mid], pts[:mid], d + 1)
            right = self._insert_rec(node, keys[mid:], pts[mid:], d + 1)
        else:
            left = self._insert_rec(node, keys[:mid], pts[:mid], d + 1)
            right = self._build(keys[mid:], pts[mid:], d + 1)
        return _Internal(prefix, d, left.count + right.count, self._new_nid(), left, right)

    def _merge_leaf(
        self, leaf: _Leaf, keys: np.ndarray, pts: np.ndarray, base_depth: int
    ) -> _Node:
        self._touch_leaf_data(leaf)
        merged_keys = np.concatenate([leaf.keys, keys])
        merged_pts = np.vstack([leaf.pts, pts])
        order = np.argsort(merged_keys, kind="stable")
        merged_keys = merged_keys[order]
        merged_pts = merged_pts[order]
        self.meter.work(len(merged_keys) * _C_MERGE_PER_KEY)
        total = len(merged_keys)
        all_equal = int(merged_keys[0]) == int(merged_keys[-1])
        if total <= self.leaf_size or all_equal:
            leaf.keys = merged_keys
            leaf.pts = merged_pts
            leaf.count = total
            return leaf
        self.meter.stream(total * (self.dims + 1))
        return self._build(merged_keys, merged_pts, base_depth)

    # ------------------------------------------------------------------
    # DELETE
    # ------------------------------------------------------------------
    def delete(self, points: np.ndarray) -> int:
        """Delete all stored points exactly equal to each query point.

        Returns the number of points removed.  The tree must keep at least
        one point (an empty index is out of the paper's scope).
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[0] == 0:
            return 0
        keys = self._encode(points)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        points = points[order]
        before = self.root.count
        new_root = self._delete_rec(self.root, keys, points)
        if new_root is None:
            raise ValueError("delete would empty the tree")
        self.root = new_root
        return before - self.root.count

    def _delete_rec(
        self, node: _Node, keys: np.ndarray, pts: np.ndarray
    ) -> _Node | None:
        if len(keys) == 0:
            return node
        self._touch_node(node)
        self.meter.work(_C_NODE_VISIT + len(keys) * _C_MERGE_PER_KEY)
        kb = self._kb
        lo_key = node.prefix << (kb - node.depth) if node.depth else 0
        hi_key = lo_key + (1 << (kb - node.depth))
        i0 = _searchsorted_u64(keys, lo_key)
        i1 = _searchsorted_u64(keys, hi_key)
        keys = keys[i0:i1]
        pts = pts[i0:i1]
        if len(keys) == 0:
            return node
        if node.leaf:
            return self._delete_from_leaf(node, keys, pts)
        split_bit = kb - node.depth - 1
        threshold = ((node.prefix << 1) | 1) << split_bit
        mid = _searchsorted_u64(keys, threshold)
        left = self._delete_rec(node.left, keys[:mid], pts[:mid])
        right = self._delete_rec(node.right, keys[mid:], pts[mid:])
        if left is None and right is None:
            return None
        if left is None:
            return right
        if right is None:
            return left
        node.left = left
        node.right = right
        node.count = left.count + right.count
        return node

    def _delete_from_leaf(
        self, leaf: _Leaf, keys: np.ndarray, pts: np.ndarray
    ) -> _Node | None:
        self._touch_leaf_data(leaf)
        keep = np.ones(leaf.count, dtype=bool)
        for k, p in zip(keys.tolist(), pts):
            j0 = _searchsorted_u64(leaf.keys, int(k))
            j1 = _searchsorted_u64(leaf.keys, int(k) + 1)
            for j in range(j0, j1):
                if keep[j] and np.array_equal(leaf.pts[j], p):
                    keep[j] = False
        self.meter.work(leaf.count * self.dims)
        if keep.all():
            return leaf
        if not keep.any():
            return None
        leaf.keys = leaf.keys[keep]
        leaf.pts = leaf.pts[keep]
        leaf.count = len(leaf.keys)
        return leaf

    # ------------------------------------------------------------------
    # kNN
    # ------------------------------------------------------------------
    def knn(self, q: np.ndarray, k: int, metric: Metric = L2):
        """Exact k nearest neighbours of ``q``.

        Returns ``(dists, points)`` sorted by increasing distance; fewer
        than ``k`` results are returned only if the tree holds fewer points.
        """
        q = np.asarray(q, dtype=np.float64).reshape(self.dims)
        if k < 1:
            raise ValueError("k must be >= 1")
        # Max-heap of the current k best, keyed by negative distance.
        best: list[tuple[float, int, np.ndarray]] = []
        counter = [0]

        def kth_dist() -> float:
            return -best[0][0] if len(best) >= k else np.inf

        def visit(node: _Node) -> None:
            self._touch_node(node)
            self.meter.work(_C_NODE_VISIT)
            if node.leaf:
                self._touch_leaf_data(node)
                d = dist(node.pts, q, metric)
                self.meter.work(node.count * metric.cpu_ops_per_dim * self.dims)
                for dd, p in zip(d, node.pts):
                    if len(best) < k:
                        counter[0] += 1
                        heapq.heappush(best, (-float(dd), counter[0], p))
                        self.meter.work(_C_HEAP_OP)
                    elif dd < -best[0][0]:
                        counter[0] += 1
                        heapq.heapreplace(best, (-float(dd), counter[0], p))
                        self.meter.work(_C_HEAP_OP)
                return
            children = [node.left, node.right]
            dists = [
                dist_point_box(q, self._node_box(c), metric) for c in children
            ]
            self.meter.work(2 * metric.cpu_ops_per_dim * self.dims)
            for dd, child in sorted(zip(dists, children), key=lambda t: t[0]):
                if dd <= kth_dist():
                    visit(child)

        visit(self.root)
        out = sorted(((-negd, p) for negd, _, p in best), key=lambda t: t[0])
        dists = np.array([d for d, _ in out])
        pts = np.array([p for _, p in out]).reshape(len(out), self.dims)
        return dists, pts

    def knn_batch(self, queries: np.ndarray, k: int, metric: Metric = L2):
        """kNN for every query row; returns lists of (dists, points)."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        return [self.knn(q, k, metric) for q in queries]

    # ------------------------------------------------------------------
    # orthogonal range queries
    # ------------------------------------------------------------------
    def box_count(self, box: Box, *, box_prune: bool = False) -> int:
        """Number of stored points inside the closed box.

        The published zd-tree [12] is a radix tree over Morton keys built
        for kNN; its natural range primitive is a *z-interval scan*: the
        query box is mapped to the key interval between its corners'
        Morton codes and every leaf overlapping that interval is scanned,
        filtering points against the box.  Without BIGMIN-style interval
        splitting, the z-curve leaves the box and re-enters it many times,
        so the interval covers far more points than the box does — which
        is exactly why the paper measures zd-tree 518×/99× behind
        PIM-zd-tree on Box operations (Fig. 5).  ``box_prune=True``
        switches to geometric pruning (the optimisation PIM-zd-tree and
        Pkd-tree apply), kept for comparison experiments.
        """
        if box_prune:
            return self._box_count_pruned(box)
        zlo, zhi = self._box_key_interval(box)

        def visit(node: _Node) -> int:
            self._touch_node(node)
            self.meter.work(_C_NODE_VISIT)
            nlo, nhi = self._key_range(node)
            if nhi <= zlo or nlo > zhi:
                return 0
            if node.leaf:
                self._touch_leaf_data(node)
                self.meter.work(node.count * 2 * self.dims)
                return int(np.count_nonzero(box.contains_point(node.pts)))
            return visit(node.left) + visit(node.right)

        return visit(self.root)

    def _box_count_pruned(self, box: Box) -> int:
        def visit(node: _Node) -> int:
            self._touch_node(node)
            self.meter.work(_C_NODE_VISIT + self._box_decode_ops())
            nbox = self._node_box(node)
            if not box.intersects(nbox):
                return 0
            if node.leaf:
                self._touch_leaf_data(node)
                self.meter.work(node.count * 2 * self.dims)
                return int(np.count_nonzero(box.contains_point(node.pts)))
            return visit(node.left) + visit(node.right)

        return visit(self.root)

    def _box_key_interval(self, box: Box) -> tuple[int, int]:
        """Closed Morton-key interval spanned by the box corners."""
        corners = np.vstack([box.lo, box.hi])
        keys = self._encode(corners)
        return int(keys[0]), int(keys[1])

    def _key_range(self, node: _Node) -> tuple[int, int]:
        lo = node.prefix << (self._kb - node.depth) if node.depth else 0
        return lo, lo + (1 << (self._kb - node.depth))

    def _box_decode_ops(self) -> int:
        """Work to reconstruct a node's box from its z-order prefix."""
        return 2 * self.dims * max(1, int(np.log2(self.codec.bits)))

    def box_fetch(self, box: Box, *, box_prune: bool = False) -> np.ndarray:
        """All stored points inside the closed box, as an ``(m, D)`` array.

        Default is the z-interval scan of the published implementation
        (see :meth:`box_count`); ``box_prune=True`` applies geometric
        pruning instead.
        """
        chunks: list[np.ndarray] = []
        if box_prune:
            zlo, zhi = 0, (1 << self._kb)  # interval test always passes
        else:
            zlo, zhi = self._box_key_interval(box)

        def visit(node: _Node) -> None:
            self._touch_node(node)
            if box_prune:
                self.meter.work(_C_NODE_VISIT + self._box_decode_ops())
                if not box.intersects(self._node_box(node)):
                    return
            else:
                self.meter.work(_C_NODE_VISIT)
                nlo, nhi = self._key_range(node)
                if nhi <= zlo or nlo > zhi:
                    return
            if node.leaf:
                self._touch_leaf_data(node)
                self.meter.work(node.count * 2 * self.dims)
                mask = box.contains_point(node.pts)
                if mask.any():
                    chunks.append(node.pts[mask])
                return
            visit(node.left)
            visit(node.right)

        visit(self.root)
        if not chunks:
            return np.empty((0, self.dims))
        out = np.vstack(chunks)
        self.meter.stream(len(out) * self.dims)
        return out

    def _collect(self, node: _Node, chunks: list[np.ndarray]) -> None:
        if node.leaf:
            self._touch_leaf_data(node)
            self.meter.work(node.count)
            chunks.append(node.pts)
            return
        self._touch_node(node)
        self.meter.work(_C_NODE_VISIT)
        self._collect(node.left, chunks)
        self._collect(node.right, chunks)

    # ------------------------------------------------------------------
    # invariants (used by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        kb = self._kb

        def rec(node: _Node, lo: int, hi: int) -> int:
            node_lo = node.prefix << (kb - node.depth) if node.depth else 0
            node_hi = node_lo + (1 << (kb - node.depth))
            assert lo <= node_lo < node_hi <= hi, "node range escapes parent range"
            if node.leaf:
                assert node.count == len(node.keys) == len(node.pts)
                assert node.count > 0, "empty leaf present"
                keys = node.keys.astype(object)
                assert all(node_lo <= int(x) < node_hi for x in keys), "leaf key outside range"
                assert all(
                    int(a) <= int(b) for a, b in zip(keys[:-1], keys[1:])
                ), "leaf keys unsorted"
                equal = int(node.keys[0]) == int(node.keys[-1])
                assert node.count <= self.leaf_size or equal, "oversized mixed leaf"
                return node.count
            assert isinstance(node, _Internal)
            nl = rec(node.left, node_lo, node_lo + (node_hi - node_lo) // 2)
            nr = rec(node.right, node_lo + (node_hi - node_lo) // 2, node_hi)
            assert node.count == nl + nr, "count mismatch"
            assert node.left.depth > node.depth and node.right.depth > node.depth
            return node.count

        total = rec(self.root, 0, 1 << kb)
        assert total == self.root.count

    def all_points(self) -> np.ndarray:
        """Every stored point, in z-order (for test oracles)."""
        chunks: list[np.ndarray] = []
        self._collect_silent(self.root, chunks)
        return np.vstack(chunks) if chunks else np.empty((0, self.dims))

    def _collect_silent(self, node: _Node, chunks: list[np.ndarray]) -> None:
        if node.leaf:
            chunks.append(node.pts)
        else:
            self._collect_silent(node.left, chunks)
            self._collect_silent(node.right, chunks)


def _default_bits(dims: int) -> int:
    from ..core.morton import max_bits_per_dim

    return max_bits_per_dim(dims)


def _searchsorted_u64(keys: np.ndarray, bound: int, side: str = "left") -> int:
    """``np.searchsorted`` tolerant of bounds at or beyond 2**64."""
    if bound >= 1 << 64:
        return len(keys)
    if bound < 0:
        return 0
    return int(np.searchsorted(keys, np.uint64(bound), side=side))
