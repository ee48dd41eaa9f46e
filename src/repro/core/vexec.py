"""Batch-execution kernels for the query/update paths.

Every operation (:mod:`.search`, :mod:`.knn`, :mod:`.range_query`,
:mod:`.update`) runs on NumPy frontier-at-a-time kernels from this
module:

* :class:`NodeArena` — one tree-wide structure of arrays, a row per live
  node (box corners, count, child rows, key range, layer, owning meta),
  held by every tree from construction on, built by its first flush and
  kept current by a dirty set the tree's mutation primitives feed and
  :func:`node_arena` flushes before a kernel reads it.  It is the only
  derived structure: leaf payloads are read live from ``node.pts`` when
  a kernel gathers them, so nothing mirrors them;
* *round kernels*, one per task kind — ``kernel(groups, on_host)``
  receives **every (meta, tasks) group of a BSP round that runs at one
  site** and returns a :class:`~.push_pull.RoundOutput`.  The executor
  calls it once per round for the pushed groups (at the modules) and
  once more for the pulled ones (on the host).  The frontier is carried
  as parallel ``(task, row)`` arrays across all groups (:class:`_Round`),
  one level per step; locality is one vector compare per level on the
  arena's ``layer`` or ``meta_id`` column, the rule picked once per
  round.  The kernel is pure compute; the executor charges its totals
  afterwards;
* :func:`make_search_kernel` — the pointer-walk SEARCH kernel (SEARCH
  never tests a box, so it loops its groups and uses no arena);
* :func:`make_candidate_kernel` / :func:`make_fetch_kernel` — the two
  kNN steps, thin wrappers over one shared ball descent
  (:func:`_ball_descent`: coarse box-distance prune, optional ℓ∞ prune,
  one stacked row-distance evaluation per round);
* :func:`make_range_kernel` — box-mask range count/fetch
  (:func:`_range_descent`) for a whole round at once;
* :class:`_L0Table` — L0 as one table the arena caches and rebuilds
  only when L0's structure changed: its key-space frontier and its
  right-first pre-order;
* :func:`route_through_l0` — SEARCH's L0 routing: one ``searchsorted``
  of the batch's keys into the table's frontier;
* :func:`l0_box_seeds`, :func:`l0_candidate_seeds` and
  :func:`l0_fetch_seeds` — box seeding and kNN steps 2 and 4's, one
  range / ball walk per batch at the host's L0 walk, a third site of the
  round kernels' descents (:meth:`_Round.at_l0`).  There the walks run
  over the table's pre-order: each task meets its entry's subtree at
  once and a node is reached unless a node above it stopped the walk, a
  fixed number of whole-batch operations with no loop over levels;
* the rest of the kNN host passes (Alg. 3's CPU share, driven by
  ``repro.core.knn._ArrayHost``): :func:`trace_rows` /
  :func:`lowest_rows` / :func:`sphere_cover_mask` — the search traces as
  a padded ``(query, depth)`` row matrix, so picking a trace node is a
  masked compare and an ``argmax`` along depth; :func:`segmented_topk`
  — every per-query stable sort as one ``lexsort``;
* :func:`plan_leaf_deletions` — ``np.searchsorted``-based delete
  partitioning.

Counter-exactness contract
--------------------------
Every kernel produces *byte-identical* ``PIMStats`` to the scalar
engine — per-task handlers walking one (query, node) pair at a time,
kept as the test oracle ``tests/exec_oracle.py``.  This works because

1. every per-element charge in the scalar engine is an integer number of
   cycles/ops/words, so float64 sums are exact and order-independent —
   aggregating them per (phase, module, round) with ``np.bincount`` is
   lossless;
2. the BSP round structure (which task reaches which meta-node in which
   round) is preserved exactly: emitted tasks are re-ordered into the
   scalar emission order before entering the next frontier;
3. LLC touch *sequences* (order-sensitive under LRU eviction) are
   replayed in the exact scalar order via ``touch_cpu_blocks`` — on the
   host a pulled group's visits sort as (task, ``~hi_incl``, depth),
   each task's right-first pre-order;
4. all floating-point result values are computed by the same NumPy
   elementwise/row-reduction formulas the scalar engine uses, so they
   match bitwise, and concatenation follows the scalar right-child-first
   DFS order: disjoint subtrees are visited in descending ``key_lo``
   order, which ``np.lexsort`` on ``(task, ~key_lo)`` reconstructs;
5. batching across groups is order-neutral: the flat task index is
   (group in ``by_meta`` order, position in the group), so results sort
   by task, emitted tasks by (task, parent in right-first pre-order,
   child ``key_lo``) and gathered rows by (task, ``~key_lo``) — each the
   per-group scalar order prefixed with the group.  A task's visit set
   depends only on round-start state (kNN prunes on the round-start
   radius), never on another group.  The executor books the round as one
   ``charge_sequence`` whose elements are, in ``by_meta`` order, the
   charges per-group booking makes, and read routing makes the
   per-group choices in group order (``ReplicaSet.read_modules``), so
   the drop-RNG stream, dead-module raise points, tracing and replica
   routing see exactly what per-group charging gave them.

The L0 site and the host passes keep the same contract without rounds:
their charges are integer CPU ops, summed into one ``charge_cpu`` per
pass; their LLC touches (``("pimzd", "l0", nid)``) and emitted tasks
come in the scalar order — queries in batch order, then right-first
pre-order, ``(~hi_incl, depth)``, the L0 table's own order — before
``touch_cpu_blocks`` sees them; and a stable sort per query becomes one
stable ``lexsort((d, query))``, which orders ties by position exactly as
the per-query sorts (and a chain of per-round top-k merges) did.  The
only sequential dependency — step 2's pruning radius tightening as L0
leaves merge — is settled leaf by leaf in pre-order (:func:`_pile_replay`)
before the walk, which then cuts at that radius pair by pair.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, compress, repeat
from operator import attrgetter, is_, is_not, itemgetter

import numpy as np

from ..pim.model import CHARGE_PIM, CHARGE_RECV, CHARGE_SEND
from .chunking import MetaNode
from .geometry import LINF, Metric
from .node import Layer, Node, subtree_nodes
from .push_pull import (
    CPU_BOX_TEST_OPS,
    CPU_NODE_OPS,
    CPU_POINT_BASE_OPS,
    L0_PIM_CYCLES_PER_NODE,
    PIM_BOX_TEST_CYCLES,
    PIM_POINT_BASE_CYCLES,
    RESULT_WORDS,
    TRACE_WORDS,
    RoundOutput,
    Task,
)

__all__ = [
    "NodeArena",
    "node_arena",
    "check_arena",
    "route_through_l0",
    "make_search_kernel",
    "make_candidate_kernel",
    "make_fetch_kernel",
    "make_range_kernel",
    "l0_candidate_seeds",
    "l0_fetch_seeds",
    "trace_rows",
    "lowest_rows",
    "sphere_cover_mask",
    "segmented_topk",
    "l0_box_seeds",
    "plan_leaf_deletions",
]

_U64 = np.uint64
# C-level attribute readers: mapping them over node lists adds no Python
# frames (and no profiled calls).
_NID, _ROW, _SC = attrgetter("nid"), attrgetter("row"), attrgetter("sc")
_COUNT, _DEPTH, _LAYER = attrgetter("count"), attrgetter("depth"), attrgetter("layer")
_PREFIX, _KEYS = attrgetter("prefix"), attrgetter("keys")
_SEND_WORDS = attrgetter("send_words")
_LEFT, _RIGHT, _TRACE = attrgetter("left"), attrgetter("right"), attrgetter("trace")
_QID, _NODE, _META = attrgetter("qid"), attrgetter("node"), attrgetter("meta")
_ROOT, _PTS, _KEY = attrgetter("root"), attrgetter("pts"), attrgetter("key")
_FIRST, _SECOND = itemgetter(0), itemgetter(1)
# Layers as plain ints for array compares: an IntEnum operand sends NumPy
# through the enum metaclass's ``__getattr__`` on every compare.
_L0, _L1 = int(Layer.L0), int(Layer.L1)
# Reductions as ufunc methods: one C call each, where ``ndarray.sum`` /
# ``.max`` / ``.any`` go through a Python wrapper.  ``np.add.reduce`` is
# what ``ndarray.sum`` runs, so results are bitwise the same.
_SUM, _MAX, _SUM_AT = np.add.reduce, np.maximum.reduce, np.add.reduceat
_ANY, _ALL = np.logical_or.reduce, np.logical_and.reduce


def _box_gaps(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-dimension gap from point(s) ``p`` to boxes ``[lo, hi]`` (0 inside)."""
    return np.maximum(np.maximum(lo - p, p - hi), 0.0)


def _norm(v: np.ndarray, metric: Metric) -> np.ndarray:
    """Row-wise norm of non-negative offsets, in :mod:`.geometry`'s formulas
    (of a :func:`_box_gaps` row: bitwise ``dist_point_box``)."""
    if metric.name == "l1":
        return _SUM(v, axis=-1)
    if metric.name == "linf":
        return _MAX(v, axis=-1)
    return np.sqrt(_SUM(v * v, axis=-1))


def _dist_rows(rows: np.ndarray, q: np.ndarray, metric: Metric) -> np.ndarray:
    """Row-wise :func:`repro.core.geometry.dist` (same formula, bitwise)."""
    return _norm(np.abs(rows - q), metric)


# ======================================================================
# the node arena
# ======================================================================
_DEAD = -2  # ``node.row`` of a node that left the tree: never written again

# (column, dtype, one value per dimension?)  Rows and counts fit int32 (a
# tree of 2^31 Python nodes or points does not fit in memory) and a depth
# is at most the 64 key bits; box corners and per-visit cycles stay
# float64, bitwise those of ``prefix_box`` and ``cycles_per_node``.
_COLUMNS = (
    ("lo", np.float64, True), ("hi", np.float64, True),
    ("count", np.int32, False), ("is_leaf", bool, False),
    ("left", np.int32, False), ("right", np.int32, False),
    ("key_lo", _U64, False), ("hi_incl", _U64, False),
    ("depth", np.uint8, False), ("layer", np.int8, False),
    ("meta_id", np.int32, False), ("meta_cycles", np.float64, False),
)
# Columns holding rows of other nodes: compared by node identity.
_LINK_COLUMNS = ("left", "right", "meta_id")


def _capacity(rows: int) -> int:
    """Rows to allocate for ``rows``: an eighth of headroom, so appends
    reallocate geometrically without doubling the footprint."""
    return rows + rows // 8 + 64


class NodeArena:
    """Tree-wide structure-of-arrays view: one row per live node.

    Columns, indexed by ``node.row``: box corners ``lo``/``hi``, the
    exact ``count``, ``is_leaf``, the ``left``/``right`` child rows (-1
    on leaves), ``key_lo``/``hi_incl``/``depth``, the ``layer``, and the
    owning meta-node as an integer handle — ``meta_id`` is the row of
    the meta's root node (-1 in L0) and ``meta_cycles`` holds, *at that
    root row*, the meta's per-visit PIM cycles (0 elsewhere), so a
    chunk flipping between sparse and dense rewrites one row, not one
    per member.  Leaf payloads are not copied: kernels read
    ``nodes[row].pts`` live.

    Every tree holds one arena from construction (and ``decode_tree``)
    on, created with no rows; its first :meth:`flush` — the first kernel
    read or the first checkpoint — builds it, subsuming earlier marks.

    Upkeep is a dirty set in the ``mark_dirty → flush`` style: the
    tree's mutation primitives add the nodes they changed to ``dirty``
    (``PIMZdTree.mark_dirty`` / ``mark_dirty_subtree``) and
    :meth:`flush`, run lazily before a kernel reads the arena, rewrites
    only those rows.  Nodes the arena has not seen yet are found through
    their (dirty) parents and get appended rows; rows of nodes that left
    the tree (``PIMZdTree.mark_removed``) become garbage, and once
    garbage outweighs the live rows the arena is rebuilt compactly.

    The arena also caches L0's one table (:meth:`l0_table`, SEARCH's
    frontier and the L0 site's pre-order).  A flush drops it when a row
    in L0 before or after the flush changed its ``layer``, ``left`` or
    ``right`` (a new row in L0 included), and a rebuild always does; a
    table built under another root is rebuilt when next read.
    """

    __slots__ = ("tree", "n", "dead", "nodes", "dirty", "l0") + tuple(
        name for name, _, _ in _COLUMNS
    )

    def __init__(self, tree) -> None:
        self.tree = tree
        self.dirty: set[Node] = set()
        self.nodes: list[Node] = []  # no rows until the first flush
        self.n = self.dead = 0
        self.l0: _L0Table | None = None  # see l0_table
        self._resize(0, 0)

    # -- row bookkeeping ---------------------------------------------------
    def has_row(self, node: Node) -> bool:
        r = node.row
        return 0 <= r < len(self.nodes) and self.nodes[r] is node

    def remove(self, node: Node) -> None:
        """``node`` left the tree: its row (if any) is garbage from now on,
        in no layer (the L0 table finds L0's rows by layer)."""
        if self.has_row(node):
            self.dead += 1
            self.layer[node.row] = -1
        node.row = _DEAD

    def add_counts(self, nodes: list[Node], deltas: list[int]) -> None:
        """Add ``deltas`` to the ``count`` rows of those ``nodes`` that
        have a row; the next flush rows the others, counts included."""
        rows = np.fromiter(map(_ROW, nodes), dtype=np.intp, count=len(nodes))
        inside = (rows >= 0) & (rows < self.n)
        rows = rows[inside]
        owners = map(self.nodes.__getitem__, rows.tolist())
        live = np.fromiter(map(is_, owners, compress(nodes, inside)),
                           dtype=bool, count=rows.size)
        self.count[rows[live]] += np.array(deltas, dtype=np.int32)[inside][live]

    def preorder(self) -> np.ndarray:
        """The live rows in left-first preorder, after a flush.

        In a binary trie that is the order by ``(key_lo, depth)``: a
        node's subtree is the key range starting at its ``key_lo``, an
        ancestor shares its first key with its leftmost descendants at a
        smaller depth, and a right subtree starts past the end of its
        left sibling's.  A row is live while its node still names it.
        """
        self.flush()
        rows = np.fromiter(map(_ROW, self.nodes), dtype=np.intp, count=self.n)
        live = np.flatnonzero(rows == np.arange(self.n))
        return live[np.lexsort((self.depth[live], self.key_lo[live]))]

    def _resize(self, cap: int, keep: int) -> None:
        dims = self.tree.dims
        for name, dtype, wide in _COLUMNS:
            new = np.empty((cap, dims) if wide else cap, dtype=dtype)
            if keep:
                new[:keep] = getattr(self, name)[:keep]
            setattr(self, name, new)

    def _rebuild(self) -> None:
        """Row every reachable node from scratch (first build, compaction)."""
        self.nodes = nodes = subtree_nodes(self.tree.root)
        for row, nd in enumerate(nodes):
            nd.row = row
        self.n = len(nodes)
        self.dead = 0
        self.dirty.clear()
        self.l0 = None
        self._resize(_capacity(self.n), 0)
        self._write_fixed(nodes)
        self._write(nodes)

    # -- flush ---------------------------------------------------------------
    def flush(self) -> None:
        """Build the arena on its first call; later, bring the rows of
        every dirty node up to date.

        Dirty nodes are taken in nid order, not set order: set iteration
        follows memory addresses, and a new node reached both from the
        set and through a dirty parent is written once or twice depending
        on which comes first.
        """
        if not self.nodes:
            self._rebuild()
            return
        if not self.dirty:
            return
        nodes = self.nodes
        todo: list[Node] = []
        stack = sorted(self.dirty, key=_NID, reverse=True)
        self.dirty.clear()
        while stack:
            nd = stack.pop()
            if nd.row == _DEAD:
                continue
            if not self.has_row(nd):
                nd.row = len(nodes)
                nodes.append(nd)
            todo.append(nd)
            if nd.keys is None:
                # New nodes hang off dirty (or new) parents.
                for child in (nd.left, nd.right):
                    if not self.has_row(child):
                        stack.append(child)
        fresh = nodes[self.n:]
        if len(nodes) > len(self.count):
            self._resize(_capacity(len(nodes)), self.n)
        self.n = len(nodes)
        self._write_fixed(fresh)
        self._write(todo)
        if self.n > 2 * (self.n - self.dead):
            self._rebuild()

    def _write_fixed(self, nodes: list[Node]) -> None:
        """Columns fixed by a node's (prefix, depth, kind): written once."""
        n = len(nodes)
        if not n:
            return
        tree = self.tree
        kb = tree.key_bits
        rows = np.fromiter(map(_ROW, nodes), dtype=np.intp, count=n)
        depth = np.fromiter(map(_DEPTH, nodes), dtype=np.int64, count=n)
        prefix = np.fromiter(map(_PREFIX, nodes), dtype=_U64, count=n)
        # key_lo/hi_incl: guard the depth-0 row (a 64-bit shift is UB).
        sh = np.where(depth > 0, kb - depth, 0).astype(_U64)
        key_lo = np.where(depth > 0, prefix << sh, _U64(0))
        self.key_lo[rows] = key_lo
        self.hi_incl[rows] = np.where(
            depth > 0,
            key_lo + ((_U64(1) << sh) - _U64(1)),
            _U64(0xFFFFFFFFFFFFFFFF),
        )
        self.depth[rows] = depth
        self.lo[rows], self.hi[rows] = tree.codec.prefix_box_batch(prefix, depth)
        self.is_leaf[rows] = np.fromiter(
            map(is_not, map(_KEYS, nodes), repeat(None)), dtype=bool, count=n
        )
        self.left[rows] = -1
        self.right[rows] = -1
        self.layer[rows] = -1  # no layer yet: _write sets it

    def _write(self, nodes: list[Node]) -> None:
        """Columns the update path can change."""
        n = len(nodes)
        cfg = self.tree.config
        rows = np.fromiter(map(_ROW, nodes), dtype=np.intp, count=n)
        self.count[rows] = np.fromiter(map(_COUNT, nodes), dtype=np.int32,
                                       count=n)
        layer = np.fromiter(map(_LAYER, nodes), dtype=np.int8, count=n)
        moved = None
        if self.l0 is not None:
            # L0's structure: rows in L0 before or after, their layer and
            # child links.  A new row's old layer reads -1.
            was = self.layer[rows]
            touched = (was == _L0) | (layer == _L0)
            if _ANY(touched):
                moved = rows[touched]
                before = (was[touched], self.left[moved], self.right[moved])
        self.layer[rows] = layer
        meta_id = np.full(n, -1, dtype=np.int32)
        cycles = np.zeros(n)
        for i, nd in enumerate(nodes):
            m = nd.meta
            if m is not None:
                meta_id[i] = m.root.row
                if m.root is nd:
                    cycles[i] = m.cycles_per_node(cfg)
        self.meta_id[rows] = meta_id
        self.meta_cycles[rows] = cycles
        inner = [nd for nd in nodes if nd.keys is None]
        if inner:
            k = len(inner)
            rows = np.fromiter(map(_ROW, inner), dtype=np.intp, count=k)
            self.left[rows] = np.fromiter(map(_ROW, map(_LEFT, inner)),
                                          dtype=np.int32, count=k)
            self.right[rows] = np.fromiter(map(_ROW, map(_RIGHT, inner)),
                                           dtype=np.int32, count=k)
        if moved is not None and not (
                np.array_equal(before[0], self.layer[moved])
                and np.array_equal(before[1], self.left[moved])
                and np.array_equal(before[2], self.right[moved])):
            self.l0 = None

    def l0_table(self) -> "_L0Table":
        """L0's table, after a flush: the cached one while L0's structure
        and the root are the same, else a fresh build."""
        self.flush()
        t = self.l0
        if t is None or t.root is not self.tree.root:
            t = self.l0 = _L0Table(self)
        return t


def node_arena(tree) -> NodeArena:
    """The tree's arena, flushed (so built, on the first call)."""
    arena = tree._arena
    arena.flush()
    return arena


def check_arena(tree) -> None:
    """Assert the flushed arena equals one built from scratch.

    Compared over the rows of reachable nodes: every column, with the
    columns that hold rows (child links, meta handles) compared by the
    identity of the node they name; a cached L0 table must equal a fresh
    one.  ``tree.check_invariants`` calls this, so it
    builds an unbuilt arena.
    """
    arena = node_arena(tree)
    live = subtree_nodes(tree.root)
    assert all(arena.has_row(nd) for nd in live), "live node without a row"
    assert arena.n - arena.dead == len(live), "arena live-row count drifted"
    assert arena.n <= 2 * len(live), "arena garbage exceeds its bound"
    rows = [nd.row for nd in live]
    t = arena.l0
    if t is not None and t.root is tree.root:
        assert t.same_as(_L0Table(arena)), "L0 table is stale"
    # A fresh build rows the nodes 0..n-1 in ``live`` order; restored below.
    fresh = NodeArena(tree)
    fresh.flush()
    try:
        for name, _, _ in _COLUMNS:
            have = getattr(arena, name)[rows]
            want = getattr(fresh, name)[:len(live)]
            if name in _LINK_COLUMNS:
                assert all(
                    (i < 0) == (j < 0)
                    and (i < 0 or arena.nodes[i] is live[j])
                    for i, j in zip(have.tolist(), want.tolist())
                ), f"arena column {name} is stale"
            else:
                assert np.array_equal(have, want), f"arena column {name} is stale"
    finally:
        for nd, r in zip(live, rows):
            nd.row = r


def _gather_rows(arena: NodeArena, leaf_rows: np.ndarray):
    """Stack the payload rows of many (at least one) leaves.

    Returns ``(rows, row_pair, lens)``: ``rows`` stacks the leaves'
    points in order, ``row_pair`` maps each row to its index in
    ``leaf_rows`` and ``lens`` gives the per-leaf row counts.
    """
    parts = list(map(_PTS, map(arena.nodes.__getitem__, leaf_rows.tolist())))
    n = leaf_rows.size
    lens = np.fromiter(map(len, parts), dtype=np.intp, count=n)
    return np.concatenate(parts), np.arange(n).repeat(lens), lens


# ======================================================================
# L0 routing (SEARCH step 1)
# ======================================================================
def _l0_blocks(nodes) -> list[tuple]:
    """LLC block ids of host-resident L0 nodes, in the given order."""
    return list(zip(repeat("pimzd"), repeat("l0"), map(_NID, nodes)))


# What a frontier interval decides for its keys.
_LEAF, _EDGE, _BORDER, _OUTSIDE = 0, 1, 2, 3


class _L0Table:
    """L0 as one table, built from one scan of its rows: the key-space
    frontier SEARCH routes over and the right-first pre-order the L0
    site's descents walk.

    *Frontier.*  The root's key range cut into intervals whose keys all
    end their L0 walk the same way.  Interval ``i`` runs from
    ``starts[i]`` (sorted) up to the next start, the last one up to
    ``key_hi``, the root's ``hi_incl``.  Its keys end as ``kind[i]`` says,
    at the rows ``child[i]`` and ``stop[i]``: ``_LEAF`` — in the L0 leaf
    ``child[i]``; ``_BORDER`` — at ``child[i]``, a non-L0 child of an L0
    node, where their border task starts; ``_EDGE`` — off the compressed
    edge from ``stop[i]`` into ``child[i]``.  They visit the L0 nodes on
    the root path of ``stop[i]`` (the leaf itself, or the parent where
    they stop), root first.  Entry ``len(starts)`` is a key outside
    ``[key_lo, key_hi]``: ``_OUTSIDE``, the edge ``(None, root)``, no
    trace.  An empty L0 is one border interval at the root, with no trace
    either (``stop`` -1).

    The traces themselves, lists of ``Node`` objects, are made on first
    use and kept in ``memo``: a table serves a few batches between L0
    changes, and most of its intervals are never reached in that time.

    *Pre-order.*  Position ``i`` holds the L0 row ``rows[i]``, box
    ``lo[i]``/``hi[i]``, whose subtree in the table is the positions
    ``[i, end[i])``; column ``i`` of ``corners`` is the box as ``(lo,
    -hi)``, so that one ``<=`` against a query box's ``(hi, -lo)`` tests
    every face at once.  Right-first pre-order sorts by ``(hi_incl DESC,
    depth ASC)``, so the subtree of a node ends at the first position
    whose ``hi_incl`` is below the node's ``key_lo``.  Border edge ``j``
    runs from position ``edge_from[j]`` to its non-L0 child, row
    ``edge_to[j]``; edges are in their children's pre-order.

    Both halves come from one scan of L0's rows and one pass over its
    ``(inner, child)`` edges, the root taken as the child of an edge from
    no node over its whole range: an edge's non-L0 child is a border
    edge, and every child cuts its parent's key half into intervals.
    """

    __slots__ = ("root", "nodes", "key_lo", "key_hi", "starts", "kind",
                 "child", "stop", "memo", "rows", "end", "lo", "hi",
                 "corners", "edge_from", "edge_to", "_at")

    def __init__(self, a: NodeArena) -> None:
        root = self.root = a.tree.root
        self.nodes = a.nodes
        r0 = root.row
        key_lo = self.key_lo = a.key_lo[r0]
        key_hi = self.key_hi = a.hi_incl[r0]
        self.memo: dict[int, list[Node]] = {-1: []}
        if a.layer[r0] == _L0:
            self.memo[r0] = [root]
        # L0 is the top of the tree (a node's layer is at least its
        # parent's), so its live rows are exactly the L0 nodes the walk
        # can reach, and a dead row is in no layer.
        rows = (a.layer[:a.n] == _L0).nonzero()[0]
        self.rows = rows = rows[np.lexsort((a.depth[rows], ~a.hi_incl[rows]))]
        self.end = np.searchsorted(~a.hi_incl[rows], ~a.key_lo[rows], "right")
        self.lo, self.hi = a.lo[rows], a.hi[rows]
        self.corners = np.concatenate((self.lo, -self.hi), axis=1).T.copy()
        self._at = rows.argsort()

        # Every (inner, child) edge, left children first, and last the root
        # as the child of no node (-1) over the root's whole key range.
        inner = (~a.is_leaf[rows]).nonzero()[0]
        r = rows[inner]
        parent = np.concatenate((r, r, [-1]))
        child = np.concatenate((a.left[r], a.right[r], [r0]))
        # Border edges: the non-L0 children of L0 nodes.
        out = (a.layer[child[:-1]] != _L0).nonzero()[0]
        c = child[out]
        out = out[np.lexsort((a.depth[c], ~a.hi_incl[c]))]
        self.edge_from = np.concatenate((inner, inner))[out]
        self.edge_to = child[out]

        # Intervals: an inner node splits its range at its key bit into
        # two halves, one per child.  A child covers part of its half: the
        # part below and the part above it are compressed-edge gaps
        # (``_EDGE``); the child itself is an interval when it is an L0
        # leaf (``_LEAF``) or not in L0 (``_BORDER``), and is split again
        # when it is an internal L0 node.
        klo = a.key_lo[r]
        half = _U64(1) << (a.tree.key_bits - 1
                           - a.depth[r].astype(np.int64)).astype(_U64)
        lo_half = np.concatenate((klo, klo + half, [key_lo]))
        span = half - _U64(1)
        hi_half = lo_half + np.concatenate((span, span, [key_hi - key_lo]))
        c_lo, c_hi = a.key_lo[child], a.hi_incl[child]
        in_l0 = a.layer[child] == _L0
        leaf = in_l0 & a.is_leaf[child]
        border = ~in_l0
        below, above = c_lo > lo_half, c_hi < hi_half
        start = np.concatenate((lo_half[below], c_hi[above] + _U64(1),
                                c_lo[leaf], c_lo[border]))
        order = start.argsort(kind="stable")
        self.starts = start[order]
        kind = np.array((_EDGE, _EDGE, _LEAF, _BORDER)).repeat(
            [below.sum(), above.sum(), leaf.sum(), border.sum()])
        self.kind = kind[order].tolist() + [_OUTSIDE]
        kids = np.concatenate((child[below], child[above], child[leaf],
                               child[border]))
        self.child = kids[order].tolist() + [r0]
        stops = np.concatenate((parent[below], parent[above], child[leaf],
                                parent[border]))
        self.stop = stops[order].tolist() + [-1]

    def traces(self, ends: list[int]) -> list[list[Node]]:
        """The trace of each row in ``ends``, made and kept on first use:
        the nodes up to the nearest ancestor with a trace, after its
        trace.  Callers copy a trace, never change it."""
        memo, nodes = self.memo, self.nodes
        for e in set(ends).difference(memo):
            up, r = [], e
            while r not in memo:
                up += (nodes[r],)
                r = nodes[r].parent.row
            memo[e] = memo[r] + up[::-1]
        return list(map(memo.__getitem__, ends))

    def pairs(self, entry: np.ndarray):
        """Task ``i`` entering at the L0 row ``entry[i]`` meets its subtree:
        the ``(task, position)`` pairs, tasks in order and each task's
        positions in pre-order, with each pair's subtree end as a pair
        index."""
        at = self._at
        p = at[np.searchsorted(self.rows[at], entry)]
        lens = self.end[p] - p
        t = np.arange(p.size).repeat(lens)
        i = np.arange(t.size)
        pos = i + (p - (lens.cumsum() - lens)).repeat(lens)
        return t, pos, self.end[pos] + (i - pos)

    def same_as(self, other: "_L0Table") -> bool:
        """Equal tables over one arena: the same intervals, rows and
        edges, and every trace made so far equal to the other's."""
        return (self.root is other.root and self.nodes is other.nodes
                and self.kind == other.kind and self.child == other.child
                and self.stop == other.stop
                and all(map(np.array_equal,
                            (self.starts, self.rows, self.end, self.edge_from,
                             self.edge_to),
                            (other.starts, other.rows, other.end,
                             other.edge_from, other.edge_to)))
                and list(self.memo.values()) == other.traces(list(self.memo)))


def _under(mask: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Of ``(task, position)`` pairs in pre-order along the last axis —
    :meth:`_L0Table.pairs`, or a grid over the whole table with ``end``
    per column — those below a pair where ``mask`` holds: a pair lies
    under the earlier pairs whose subtree ``end`` reaches past it, and
    those are its ancestors (a task's pairs end before the next task's
    begin)."""
    reach = np.maximum.accumulate(np.where(mask, end, 0), axis=-1)
    out = np.zeros(mask.shape, dtype=bool)
    out[..., 1:] = reach[..., :-1] > np.arange(1, mask.shape[-1])
    return out


def route_through_l0(tree, results) -> list[Task]:
    """Traverse the globally-shared layer for every query (Alg. 1 step 1).

    Returns the border tasks entering L1/L2; terminal outcomes (leaf or
    edge divergence inside L0) are written into ``results`` directly.
    The whole batch is routed by one ``searchsorted`` of its keys into
    L0's frontier (:class:`_L0Table`, cached on the arena and rebuilt
    only when a flush changed L0's structure or the root moved):
    a key's interval gives its leaf, divergent edge or border task and
    its trace, a shared list of ``Node`` objects copied into
    ``res.trace`` (the update path reads traces).  A host-resident L0
    charges the CPU per visited node and replays the trace nodes' LLC
    touches in result order; a replicated one is walked in one round,
    queries hash-partitioned over the modules
    (:meth:`~repro.pim.PIMSystem.place_batch`), each module charged its
    queries' sends, visits and trace replies.
    """
    sys = tree.system
    f = tree._arena.l0_table()
    n = len(results)
    keys = np.fromiter(map(_KEY, results), dtype=_U64, count=n)
    at = np.searchsorted(f.starts, keys, side="right") - 1
    at[(keys < f.key_lo) | (keys > f.key_hi)] = len(f.starts)
    nodes, kind, child, stop = f.nodes, f.kind, f.child, f.stop
    idx = at.tolist()
    traces = f.traces(list(map(stop.__getitem__, idx)))
    for res, i, trace in zip(results, idx, traces):
        res.trace += trace
        k = kind[i]
        if k == _LEAF:
            res.leaf = nodes[child[i]]
        elif k == _EDGE:
            res.edge = (nodes[stop[i]], nodes[child[i]])
        elif k == _OUTSIDE:
            res.edge = (None, f.root)
    tasks = [Task(results[j].qid, nodes[child[i]].meta, nodes[child[i]])
             for j, i in enumerate(idx) if kind[i] == _BORDER]

    # -- charges, in the per-query walk's order ---------------------------
    depth = np.fromiter(map(len, traces), dtype=np.intp, count=n)
    if tree.l0_on_cpu:
        visits = int(_SUM(depth))
        if visits:
            sys.charge_cpu(CPU_NODE_OPS * visits)
            sys.touch_cpu_blocks(_l0_blocks(chain.from_iterable(traces)))
        return tasks
    # Per placed module, in first-appearance order: every module's sends,
    # then every module's cycles, then every module's recvs — so a
    # drop-prone fault plan rolls the transfers in that order too.
    placed = sys.place_batch(("l0q", tree._l0_route_salt),
                             list(map(_QID, results)))
    mids, first, slot = np.unique(placed, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    slot = rank[slot]
    n_mids = len(mids)
    queries = np.bincount(slot, minlength=n_mids).astype(np.float64)
    visits = np.bincount(slot, weights=depth, minlength=n_mids)
    amounts = np.concatenate([queries * 2, visits * L0_PIM_CYCLES_PER_NODE,
                              queries * TRACE_WORDS])
    with sys.round():
        sys.charge_sequence(np.repeat(_ROUTE_KINDS, n_mids),
                            np.tile(mids[order], 3), amounts)
    return tasks


_ROUTE_KINDS = np.array([CHARGE_SEND, CHARGE_PIM, CHARGE_RECV], dtype=np.intp)


# ======================================================================
# one BSP round as flat arrays
# ======================================================================
def _preorder(a: NodeArena, t: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The order of ``(t, row)`` pairs by task, then right-first pre-order
    — ``(hi_incl DESC, depth ASC)`` — within a task."""
    return np.lexsort((a.depth[row], ~a.hi_incl[row], t))


# The locality rule of a round, fixed once per kernel call (``_Round.rule``).
LAYER_RULE, META_RULE, MIXED_RULE = "layer", "meta", "mixed"


class _Site:
    """Where a round's descents run: how they walk there, what a visit
    weighs and in which order visits and border tasks come out.

    Weights for visited ``rows``: (visit, box test, point test) for a
    range descent, (visit, coarse test, ℓ∞ test, scanned point, its ℓ∞
    re-check) for a ball.  The pulled host: CPU ops, visits touch the
    LLC, a box test is 2·D ops; the walk is level by level, and visits
    and border tasks are sorted into the scalar order afterwards.
    """

    on_cpu = True

    def range_weights(self, a, rows, dims: int):
        return CPU_NODE_OPS, CPU_BOX_TEST_OPS, CPU_POINT_BASE_OPS + 2.0 * dims

    def ball_weights(self, a, rows, m: Metric, dims: int):
        return (CPU_NODE_OPS, 2 * dims, 2 * dims,
                CPU_POINT_BASE_OPS + m.cpu_ops_per_dim * float(dims),
                CPU_POINT_BASE_OPS + LINF.cpu_ops_per_dim * float(dims))

    def range_walk(self, rnd, Lo, Hi, skip, fetch: bool):
        return _range_levels(rnd, Lo, Hi, skip, fetch)

    def ball_walk(self, rnd, Q, bound, linf_bound, coarse: Metric):
        return _ball_levels(rnd, Q, bound, linf_bound, coarse)

    def visit_order(self, a, t, row):
        return _preorder(a, t, row)

    def emit_order(self, a, t, child, parent):
        """A non-local child is emitted when its *parent* is visited, left
        child (the smaller ``key_lo``) first."""
        return np.lexsort((a.key_lo[child], a.depth[parent],
                           ~a.hi_incl[parent], t))


class _Modules(_Site):
    """The modules: PIM cycles, a visit costing its meta's cycles."""

    on_cpu = False

    def range_weights(self, a, rows, dims: int):
        return (a.meta_cycles[a.meta_id[rows]], PIM_BOX_TEST_CYCLES,
                PIM_POINT_BASE_CYCLES + 2.0 * dims)

    def ball_weights(self, a, rows, m: Metric, dims: int):
        test, linf = m.pim_cycles_per_dim * dims, LINF.pim_cycles_per_dim * dims
        return (a.meta_cycles[a.meta_id[rows]], test, linf,
                PIM_POINT_BASE_CYCLES + float(test), PIM_POINT_BASE_CYCLES + float(linf))


class _L0Walk(_Site):
    """The host's walk of the shared L0 layer (§3.1): a visit with its box
    tests is ``CPU_BOX_TEST_OPS``, a scanned point its compares alone —
    the weights of box seeding and of both kNN steps' L0 seeding.

    Every walk here runs over L0's table (:class:`_L0Table`) in a fixed
    number of whole-batch operations — a pair is reached unless a pair
    above it stopped the walk (:func:`_under`) — so there is no loop over
    levels, and visits come out in the scalar order: tasks in order,
    right-first pre-order within a task.  Border tasks come out in that
    order too, as the walk pops each border node itself.
    """

    def range_weights(self, a, rows, dims: int):
        return CPU_BOX_TEST_OPS, 0, 2.0 * dims

    def ball_weights(self, a, rows, m: Metric, dims: int):
        return CPU_BOX_TEST_OPS, 0, 0, m.cpu_ops_per_dim * float(dims), 0.0

    def range_walk(self, rnd, Lo, Hi, skip, fetch: bool):
        return _range_table(rnd, Lo, Hi, skip, fetch)

    def ball_walk(self, rnd, Q, bound, linf_bound, coarse: Metric):
        return _ball_table(rnd, Q, bound, linf_bound, coarse)

    def visit_order(self, a, t, row):
        return slice(None)

    def emit_order(self, a, t, child, parent):
        return slice(None)


MODULES, PULLED, AT_L0 = _Modules(), _Site(), _L0Walk()


class _Round:
    """The groups of one BSP round that run at one site, as flat arrays.

    The task index ``t`` runs over the groups in the executor's
    ``by_meta`` order and, inside a group, in task order — sorting by
    ``t`` *is* sorting by (group, position), which is how the kernels
    restore the scalar result and emission order across groups.  Kernels
    carry their frontier as parallel ``(t, row)`` arrays and book into
    per-task columns in the site's unit (:class:`_Site`) — ``work`` and
    ``recv`` (result words, a ``RESULT_WORDS`` header each).
    :meth:`output` sums a module's columns per group; on the host it sums
    the ops and orders the visited rows, which become the LLC touches.

    Locality: on a module an L1 task sees every L1 node (the module
    caches all L1 descendants, §3.1); any other task — and every task on
    the host, which fetched only the meta's master nodes — sees only its
    own meta's members.  ``rule`` says which compare a round needs:
    ``LAYER_RULE`` when every task is a pushed L1 task (every meta at
    P = 64 and P = 2048), ``META_RULE`` on the host or with no L1 task,
    ``MIXED_RULE`` — a per-task choice — only when both kinds share a
    pushed round.  At the L0 site (:meth:`at_l0`) the rule is a layer
    compare too: a node is local when it is in L0.
    """

    __slots__ = ("arena", "site", "tasks", "qids", "n", "starts", "rule",
                 "layer", "mid", "l1", "entry", "out", "work", "recv", "_acc",
                 "_seen")

    def __init__(self, tree, groups, on_host: bool) -> None:
        metas = list(map(_FIRST, groups))
        per_group = list(map(_SECOND, groups))
        tasks = list(chain.from_iterable(per_group))
        n_groups, n = len(metas), len(tasks)
        self._begin(node_arena(tree), PULLED if on_host else MODULES,
                    list(map(_QID, tasks)),
                    np.fromiter(map(_ROW, map(_NODE, tasks)), dtype=np.intp,
                                count=n))
        self.tasks = tasks
        lens = np.fromiter(map(len, per_group), dtype=np.intp, count=n_groups)
        self.starts = lens.cumsum() - lens
        layers = [] if on_host else list(map(_LAYER, metas))
        n_l1 = layers.count(Layer.L1)
        if n_l1 == n_groups:
            self.layer = _L1
        else:
            self.mid = np.fromiter(map(_ROW, map(_ROOT, metas)), dtype=np.intp,
                                   count=n_groups).repeat(lens)
            if n_l1:
                self.rule = MIXED_RULE
                self.l1 = (np.fromiter(layers, dtype=np.int8, count=n_groups)
                           == _L1).repeat(lens)
            else:
                self.rule = META_RULE
        self.recv += RESULT_WORDS
        self._acc[:, 2] = np.fromiter(map(_SEND_WORDS, tasks),
                                      dtype=np.float64, count=n)

    @classmethod
    def at_l0(cls, tree, n: int, send_words: int, start=None,
              payload=None) -> _Round:
        """A batch of ``n`` queries entering the tree at rows ``start``
        (the root when None) as a round at the L0 site: queries entering
        in L0 are its tasks; any other entry is a border task as it is."""
        rnd = cls.__new__(cls)
        a = node_arena(tree)
        if start is None:
            start = np.full(n, tree.root.row)
        inside = a.layer[start] == _L0
        q = inside.nonzero()[0]
        rnd._begin(a, AT_L0, q.tolist(), start[q])
        rnd.layer = _L0
        if q.size < n:
            below = (~inside).nonzero()[0]
            nodes = list(map(a.nodes.__getitem__, start[below].tolist()))
            rnd.out.emits.extend(map(Task, below.tolist(), map(_META, nodes),
                                     nodes, repeat(payload), repeat(send_words)))
        return rnd

    def _begin(self, arena, site, qids: list[int], entry: np.ndarray) -> None:
        """Every slot, for tasks ``qids`` entering at rows ``entry``: a
        layer rule with no layer yet, no groups, empty columns."""
        self.arena, self.site, self.qids, self.entry = arena, site, qids, entry
        self.n = n = len(qids)
        self.tasks, self.starts = [], None
        self.rule, self.layer, self.mid, self.l1 = LAYER_RULE, None, None, None
        self.out = RoundOutput()
        # Per-task columns: work, result words, task words (summed per
        # group by ``output``).  Every entry is an integer, so the sums are
        # exact in any order.
        self._acc = acc = np.zeros((n, 3))
        self.work, self.recv = acc[:, 0], acc[:, 1]
        self._seen = None

    def local(self, t: np.ndarray, child: np.ndarray) -> np.ndarray:
        """Is ``child`` inside task ``t``'s reach under a meta rule?  (A
        layer rule, ``layer`` set, is one compare the walks inline.)"""
        a = self.arena
        same_meta = a.meta_id[child] == self.mid[t]
        if self.rule is META_RULE:
            return same_meta
        return np.where(self.l1[t], a.layer[child] == _L1, same_meta)

    def visited(self, t: np.ndarray, row: np.ndarray, work: np.ndarray) -> None:
        """Tasks ``t`` visited nodes ``row`` at ``work`` each (node visit,
        tests and leaf scans together): the one descent of a kernel."""
        self.work += np.bincount(t, weights=work, minlength=self.n)
        if self.site.on_cpu:
            self._seen = (t, row)

    def emit(self, t, child, parent, send_words, payload=None) -> None:
        """Queue boundary tasks in the site's scalar emission order
        (:meth:`_Site.emit_order`).  ``payload``, when given, is an array
        aligned with ``t``."""
        a = self.arena
        order = self.site.emit_order(a, t, child, parent)
        nodes = list(map(a.nodes.__getitem__, child[order].tolist()))
        self.out.emits.extend(map(
            Task, map(self.qids.__getitem__, t[order].tolist()),
            map(_META, nodes), nodes,
            repeat(None) if payload is None else payload[order].tolist(),
            repeat(send_words)))

    def output(self) -> RoundOutput:
        out = self.out
        if self.site.on_cpu:
            out.cpu_ops = float(_SUM(self.work))
            if self._seen is not None:
                a = self.arena
                t, r = self._seen
                rows = r[self.site.visit_order(a, t, r)]
                out.touched = list(map(_NID, map(a.nodes.__getitem__,
                                                 rows.tolist())))
            return out
        out.cycles, out.recv, out.send = _SUM_AT(self._acc, self.starts,
                                                 axis=0).T
        return out

    def seeds(self, sys) -> tuple[list[Task], dict[int, list]]:
        """Book the L0 walk (CPU ops, ``("pimzd", "l0", nid)`` touches);
        its border tasks in query order and ``{qid: [result]}``."""
        out = self.output()
        if out.cpu_ops:
            sys.charge_cpu(int(out.cpu_ops))
        if out.touched:
            sys.touch_cpu_blocks(zip(repeat("pimzd"), repeat("l0"),
                                     out.touched))
        if self.n:
            out.emits.sort(key=_QID)    # entries below L0 were queued first
        return out.emits, {qid: [value] for qid, value in out.results}


def _slices(arr: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """``arr[s:e]`` for each ``(s, e)``, lazily."""
    return map(arr.__getitem__, map(slice, starts.tolist(), ends.tolist()))


# ======================================================================
# SEARCH round kernel
# ======================================================================
def make_search_kernel(tree, results):
    """Pointer-walk descent for a round's search tasks.

    SEARCH is pure pointer-chasing — it never tests a box or scans a
    leaf, so there is nothing for the arena to batch.  The kernel walks
    the pointers directly (scalar-speed), group by group, and aggregates
    the charges per group, which is counter-exact.  On the host the
    visits are the path itself, in order.
    """
    kb = tree.key_bits

    def kernel(groups, on_host: bool) -> RoundOutput:
        cfg = tree.config
        out = RoundOutput()
        out.cycles, out.recv, out.send = np.zeros((3, len(groups)))
        touched = out.touched
        cyc_of: dict[MetaNode, float] = {}
        for gi, (meta, ts) in enumerate(groups):
            l1_rule = meta.layer == Layer.L1 and not on_host
            cycles = recv = send = 0.0
            for t in ts:
                send += t.send_words
                res = results[t.qid]
                node = t.node
                while True:
                    m = node.meta
                    c = cyc_of.get(m)
                    if c is None:
                        c = cyc_of[m] = float(m.cycles_per_node(cfg))
                    cycles += c
                    res.trace.append(node)
                    if on_host:
                        touched.append(node.nid)
                    if node.is_leaf:
                        res.leaf = node
                        break
                    child = node.child_for_key(res.key, kb)
                    lo, hi = child.key_range(kb)
                    if not lo <= res.key < hi:
                        res.edge = (node, child)
                        break
                    if (child.layer == Layer.L1 if l1_rule
                            else child.meta is meta):
                        node = child
                        continue
                    out.emits.append(Task(t.qid, child.meta, child))
                    break
                recv += TRACE_WORDS + RESULT_WORDS
            out.cycles[gi] = cycles
            out.recv[gi] = recv
            out.send[gi] = send
        out.cpu_ops = float(CPU_NODE_OPS * len(touched))
        return out

    return kernel


# ======================================================================
# kNN round kernels
# ======================================================================
def _ball_descent(rnd: _Round, Q, bound, linf_bound, coarse: Metric):
    """Shared kNN descent over a whole round: from every task's entry
    node, visit each locally reachable node whose box lies within
    ``bound[t]`` of query ``Q[t]`` under ``coarse`` — and, where
    ``linf_bound`` (None: nowhere) holds a finite ``linf_bound[t]``, also
    within that ℓ∞ distance — booking work and queueing boundary tasks as
    a per-task traversal would.

    The site walks (:meth:`_Site.ball_walk`) and :func:`_ball_visits`
    books what it reached.
    """
    use_linf = None
    if linf_bound is not None:
        use_linf = np.isfinite(linf_bound)
        if not _ANY(use_linf):
            linf_bound = use_linf = None
    walk = rnd.site.ball_walk(rnd, Q, bound, linf_bound, coarse)
    return _ball_visits(rnd, Q, walk, use_linf, coarse)


def _ball_visits(rnd: _Round, Q, walk, use_linf, coarse: Metric):
    """Book a ball walk: a visit's node, tests and leaf scan as one work
    entry (the ℓ∞ test and re-check where ``use_linf[t]``, unless it is
    None), and reached leaves, emits and host touches in the scalar order
    (module docstring, "Counter-exactness contract").

    Returns ``(rows, row_t, dd)`` for the reached leaves in scalar
    leaf-scan order (stacked points, owning task, coarse distance to the
    task's query), or ``None`` if no leaf was reached.
    """
    a = rnd.arena
    dims = Q.shape[1]
    (vt, vr, coarse_ok, leaf), emits = walk
    visit, box_w, linf_w, scan_w, linf_scan_w = rnd.site.ball_weights(
        a, vr, coarse, dims)
    # Each visit: the node and its coarse test and a reached leaf's point
    # scan; where it applies, the ℓ∞ test where the coarse one passed and
    # the scan's ℓ∞ re-check.
    work = visit + box_w + leaf * (a.count[vr] * scan_w)
    if use_linf is not None:
        work += use_linf[vt] * (coarse_ok * linf_w
                                + leaf * (a.count[vr] * linf_scan_w))
    rnd.visited(vt, vr, work)
    if emits is not None:
        rnd.emit(*emits, dims + 3)
    lt, lr = vt[leaf], vr[leaf]
    if not lt.size:
        return None
    # Scalar leaf-scan order: tasks in (group, position) order, leaves per
    # task in right-first DFS order = descending key_lo (disjoint leaves).
    order = np.lexsort((~a.key_lo[lr], lt))
    rows, row_pair, _ = _gather_rows(a, lr[order])
    row_t = lt[order][row_pair]
    return rows, row_t, _dist_rows(rows, Q[row_t], coarse)


def _ball_levels(rnd: _Round, Q, bound, linf_bound, coarse: Metric):
    """:func:`_ball_descent`'s walk one level per step over the whole
    round's ``(t, row)`` frontier, one gap array feeding both box tests
    (the ℓ∞ one unless ``linf_bound`` is None).  A level's rows are in no
    particular order.  Returns the visits ``(t, row, coarse pass,
    reached leaf)`` and the border tasks ``(t, child, parent)`` or None.
    """
    a = rnd.arena
    layer = rnd.layer
    t = np.arange(len(Q), dtype=np.intp)
    row = rnd.entry
    levels: list[tuple] = []    # (t, row, coarse pass, reached leaf) per level
    edges: list[tuple] = []     # (t, child, parent, local) per level
    while True:
        gap = _box_gaps(Q[t], a.lo[row], a.hi[row])
        near = coarse_ok = _norm(gap, coarse) <= bound[t]
        if linf_bound is not None:
            near = coarse_ok & (_MAX(gap, axis=1) <= linf_bound[t])
        leaf = near & a.is_leaf[row]
        levels.append((t, row, coarse_ok, leaf))
        inner = (near ^ leaf).nonzero()[0]
        if not inner.size:
            break
        r, pair = row[inner], np.concatenate((inner, inner))
        child, parent = np.concatenate((a.left[r], a.right[r])), row[pair]
        t = t[pair]
        loc = (a.layer[child] == layer if layer is not None
               else rnd.local(t, child))
        edges.append((t, child, parent, loc))
        t, row = t[loc], child[loc]
        if not t.size:
            break
    return tuple(map(np.concatenate, zip(*levels))), _border(edges)


def _ball_table(rnd: _Round, Q, bound, linf_bound, coarse: Metric):
    """:func:`_ball_descent`'s walk over L0's table (:class:`_L0Walk`):
    every task meets its entry's subtree as ``(task, position)`` pairs,
    cut where a pair lies beyond the ball (:func:`_table_cut`)."""
    tab = rnd.arena.l0_table()
    t, pos, end = tab.pairs(rnd.entry)
    # ``_box_gaps`` in place (``take`` gathers rows faster than fancy
    # indexing); the ℓ∞ gap is a max, exact in any order, so it runs down
    # the columns.
    q = Q.take(t, axis=0)
    gap = tab.lo.take(pos, axis=0)
    gap -= q
    q -= tab.hi.take(pos, axis=0)
    np.maximum(gap, q, out=gap)
    np.maximum(gap, 0.0, out=gap)
    near = coarse_ok = _norm(gap, coarse) <= bound[t]
    if linf_bound is not None:
        near = coarse_ok & (reduce(np.maximum, gap.T) <= linf_bound[t])
    return _table_cut(rnd, tab, t, pos, end, near, coarse_ok)


def _table_cut(rnd: _Round, tab, t, pos, end, near, coarse_ok):
    """A ball walk over L0's ``(task, position)`` pairs: a pair is reached
    unless a pair above it is not ``near``.  Returns what
    :func:`_ball_levels` returns, in the scalar order, with no parents."""
    a = rnd.arena
    v = (~_under(~near, end)).nonzero()[0]
    vt, vr, near = t[v], tab.rows[pos[v]], near[v]
    leaf = near & a.is_leaf[vr]
    # The border: non-L0 children of reached inner nodes within the ball.
    inner = (near ^ leaf).nonzero()[0]
    r = vr[inner]
    child = np.concatenate((a.left[r], a.right[r]))
    ext = (a.layer[child] != rnd.layer).nonzero()[0]
    visits = (vt, vr, coarse_ok[v], leaf)
    if not ext.size:
        return visits, None
    et, ec = np.concatenate((vt[inner], vt[inner]))[ext], child[ext]
    order = _preorder(a, et, ec)
    return visits, (et[order], ec[order], None)


def _border(edges: list[tuple]):
    """A level walk's non-local children, ``(t, child, parent, ...)``,
    from its per-level ``(t, child, parent, ..., local)`` edges; None if
    there are none."""
    if edges:
        *cols, loc = map(np.concatenate, zip(*edges))
        ext = ~loc
        if _ANY(ext):
            return tuple(map(itemgetter(ext), cols))
    return None


def make_candidate_kernel(tree, states, coarse: Metric, k: int):
    """Fused distance-matrix evaluation for kNN candidate search."""
    dims = tree.dims
    Qall = np.stack([st.q for st in states])

    def kernel(groups, on_host: bool) -> RoundOutput:
        rnd = _Round(tree, groups, on_host)
        qids, n = rnd.qids, rnd.n
        # The round-start radius is fixed for the whole round, so batching
        # across groups cannot change what any task prunes.
        radius = np.array([states[q].radius() for q in qids])
        hit = _ball_descent(rnd, Qall[qids], radius, None, coarse)
        if hit is not None:
            # The candidate sort: 4 ops per candidate, 6 cycles.
            rnd.work += np.bincount(hit[1], minlength=n) * (4 if on_host else 6)
            rnd.recv += _candidates(rnd, hit, k) * (dims + 1)
        return rnd.output()

    return kernel


def _candidates(rnd: _Round, hit, k: int) -> np.ndarray:
    """Queue each task's ``k`` best reached points as a ``("cand", d, p)``
    result; returns how many each task keeps."""
    rows, row_t, dd = hit
    sel, kept = segmented_topk(dd, row_t, k, rnd.n)
    ends = kept.cumsum()
    got = kept.nonzero()[0]
    starts, ends = (ends - kept)[got], ends[got]
    rnd.out.results.extend(zip(
        map(rnd.qids.__getitem__, got.tolist()),
        zip(repeat("cand"), _slices(dd[sel], starts, ends),
            _slices(rows[sel], starts, ends))))
    return kept


def make_fetch_kernel(tree, states, coarse: Metric, bounds, exact_radii):
    """Fused ball-fetch for kNN step 4 (anchored bound + ℓ∞ filter)."""
    Qall = np.stack([st.q for st in states])
    bounds = np.asarray(bounds, dtype=np.float64)
    # No ℓ∞ filter under a coarse ℓ2.
    exact_radii = (
        np.asarray(exact_radii, dtype=np.float64)
        if coarse.name != "l2"
        else np.full(len(bounds), np.inf)
    )

    def kernel(groups, on_host: bool) -> RoundOutput:
        rnd = _Round(tree, groups, on_host)
        qids = rnd.qids
        _ball_fetch(rnd, Qall[qids], bounds[qids], exact_radii[qids], coarse)
        return rnd.output()

    return kernel


def _ball_fetch(rnd: _Round, Q, bound, linf_bound, coarse: Metric) -> None:
    """kNN step 4 over a round: the points in each task's ball, replied."""
    hit = _ball_descent(rnd, Q, bound, linf_bound, coarse)
    if hit is not None:
        rows, row_t, dd = hit
        mask = dd <= bound[row_t]
        row_rex = linf_bound[row_t]
        if _ANY(np.isfinite(row_rex)):
            mask &= _dist_rows(rows, Q[row_t], LINF) <= row_rex
        _reply_points(rnd, rows, row_t, mask, Q.shape[1])


def l0_fetch_seeds(tree, Q, start, coarse: Metric, bound, r_exact):
    """kNN step 4's L0 seeding: its ball fetch (ℓ∞ ≤ ``r_exact`` where
    finite) at the L0 site from rows ``start``; ``(tasks, {qid: [item]})``."""
    rnd = _Round.at_l0(tree, len(Q), tree.dims + 3, start)
    if rnd.n:
        q = rnd.qids
        _ball_fetch(rnd, Q[q], bound[q], r_exact[q], coarse)
    return rnd.seeds(tree.system)


def l0_candidate_seeds(tree, Q, start, coarse: Metric, k: int):
    """Alg. 3 step 2's L0 seeding at the L0 site from rows ``start``: each
    query walks its start's subtree, pruned at its running radius
    (:func:`_pile_replay`), and keeps the ``k`` best points of the L0
    leaves it merges; ``(tasks, {qid: [("cand", d, p)]})``."""
    rnd = _Round.at_l0(tree, len(Q), tree.dims + 3, start)
    if rnd.n:
        Q = Q[rnd.qids]
        a, tab = rnd.arena, rnd.arena.l0_table()
        t, pos, end = tab.pairs(rnd.entry)
        leaf = a.is_leaf[tab.rows[pos]].nonzero()[0]
        near = (_pile_replay(tab, Q, coarse, k, t, pos, end, leaf) if leaf.size
                else np.ones(t.size, dtype=bool))
        hit = _ball_visits(rnd, Q, _table_cut(rnd, tab, t, pos, end, near, near),
                           None, coarse)
        if hit is not None:
            _candidates(rnd, hit, k)
    return rnd.seeds(tree.system)


def _pile_replay(tab: _L0Table, Q, coarse: Metric, k: int, t, pos, end, leaf):
    """Step 2's prune per ``(query, position)`` pair when pairs ``leaf``
    are L0 leaves (piles of equal keys): which pairs lie within the
    radius in force where they stand.

    The scalar walk prunes a node against the radius when it is popped:
    the k-th best candidate after every leaf merged before it in
    right-first pre-order, ∞ until then.  So per query the radius is a
    step function of position, settled leaf by leaf in pre-order: a leaf
    merges unless a pair on its path (itself included) lies beyond the
    radius at that pair, and a merge sets the radius of every later pair.
    """
    near = np.ones(t.size, dtype=bool)
    nodes = tab.nodes
    for qi in np.unique(t[leaf]).tolist():
        lo, hi = np.searchsorted(t, (qi, qi + 1)).tolist()
        p, up = pos[lo:hi], end[lo:hi] - lo
        d = _norm(_box_gaps(Q[qi], tab.lo[p], tab.hi[p]), coarse)
        radius = np.full(hi - lo, np.inf)
        got = np.empty(0)
        for i in (leaf[t[leaf] == qi] - lo).tolist():
            if _ANY((up[:i + 1] > i) & (d[:i + 1] > radius[:i + 1])):
                continue    # a pair on its path was pruned first
            pts = nodes[tab.rows[p[i]]].pts
            got = np.concatenate((got, _dist_rows(pts, Q[qi], coarse)))
            if got.size >= k:
                radius[i + 1:] = np.partition(got, k - 1)[k - 1]
        near[lo:hi] = d <= radius
    return near


# ======================================================================
# kNN host passes (the CPU's share of Alg. 3)
# ======================================================================
def segmented_topk(d: np.ndarray, seg: np.ndarray, k: int, n_seg: int):
    """Each segment's ``k`` smallest ``d``, ties in position order.

    Returns ``(idx, counts)``: ``idx`` indexes ``d``, grouped by segment
    in ascending order and ordered inside a group exactly as a stable
    ``argsort`` of that segment orders it; ``counts[s] = min(k, |s|)``
    is group ``s``'s length.  One stable ``lexsort`` stands in for a
    sort per segment — and, because a stable top-k of a concatenation
    equals repeated stable top-k merges of its parts, for a sequence of
    merges too.
    """
    order = np.lexsort((d, seg))
    counts = np.bincount(seg, minlength=n_seg)
    rank = np.arange(d.size) - (counts.cumsum() - counts).repeat(counts)
    return order[rank < k], np.minimum(counts, k)


def trace_rows(results):
    """The search traces as padded ``(query, depth)`` matrices.

    Returns ``(rows, sc, n)``: each trace's arena rows and lazy counters,
    root first, -1 past the trace's end, and the total trace length.
    """
    n = len(results)
    traces = list(map(_TRACE, results))
    lens = np.fromiter(map(len, traces), dtype=np.intp, count=n)
    flat = list(chain.from_iterable(traces))
    m = len(flat)
    qi = np.repeat(np.arange(n), lens)
    pos = np.arange(m) - np.repeat(np.cumsum(lens) - lens, lens)
    width = max(1, int(lens.max()))
    rows = np.full((n, width), -1, dtype=np.intp)
    sc = np.full((n, width), -1, dtype=np.int64)
    rows[qi, pos] = np.fromiter(map(_ROW, flat), dtype=np.intp, count=m)
    sc[qi, pos] = np.fromiter(map(_SC, flat), dtype=np.int64, count=m)
    return rows, sc, m


def lowest_rows(mask: np.ndarray, rows: np.ndarray, default: int) -> np.ndarray:
    """Per query, the deepest trace row where ``mask`` holds, else ``default``."""
    deepest = mask.shape[1] - 1 - mask[:, ::-1].argmax(axis=1)
    return np.where(mask.any(axis=1), rows[np.arange(len(rows)), deepest],
                    default)


def sphere_cover_mask(arena: NodeArena, rows, Q, r) -> np.ndarray:
    """``(query, depth)``: does the trace row's box contain the ball
    ``B(Q[i], r[i])``?  The compares of ``Box.contains_sphere``."""
    c, rr = Q[:, None, :], r[:, None, None]
    inside = ((c - rr >= arena.lo[rows]) & (c + rr <= arena.hi[rows])).all(-1)
    return inside & (rows >= 0) & np.isfinite(r)[:, None]


def _reply_points(rnd: _Round, rows, row_t, mask, dims: int) -> None:
    """Per task (``row_t`` sorted), ship back the rows ``mask`` selects."""
    counts = np.bincount(row_t[mask], minlength=rnd.n)
    rnd.recv += counts * dims
    got = counts.nonzero()[0]
    if got.size:
        ends = counts.cumsum()
        rnd.out.results.extend(zip(
            map(rnd.qids.__getitem__, got.tolist()),
            zip(repeat("pts"), _slices(rows[mask], (ends - counts)[got],
                                       ends[got]))))


# ======================================================================
# range-query round kernel
# ======================================================================
def l0_box_seeds(tree, Lo, Hi, *, fetch: bool):
    """Range L0 seeding for a box batch: the range descent at the L0 site
    from the root.  Returns ``(border tasks, {qid: [(kind, value)]})``."""
    n = len(Lo)
    rnd = _Round.at_l0(tree, n, 2 * tree.dims + 2, payload="test")
    if rnd.n:
        _range_descent(rnd, Lo, Hi, np.zeros(n, dtype=bool), fetch)
    return rnd.seeds(tree.system)


def make_range_kernel(tree, Lo, Hi, *, fetch: bool):
    """Mask-based range filtering for a round's box-query tasks; ``Lo`` /
    ``Hi`` are the batch's ``(n, D)`` box corners, row ``qid`` per box."""

    def kernel(groups, on_host: bool) -> RoundOutput:
        rnd = _Round(tree, groups, on_host)
        skip = np.array([t.payload == "all" for t in rnd.tasks], dtype=bool)
        _range_descent(rnd, Lo[rnd.qids], Hi[rnd.qids], skip, fetch)
        return rnd.output()

    return kernel


# A range task's payload by its ``skip`` flag.
_RANGE_MODES = np.array(["test", "all"], dtype=object)


def _range_descent(rnd: _Round, Lo, Hi, skip, fetch: bool) -> None:
    """Box count/fetch over a whole round; ``skip[t]`` marks tasks whose
    entry subtree is already known to be contained (``"all"`` mode).

    The site walks (:meth:`_Site.range_walk`); totals are sums, and
    fetched leaves, emits and host touches come out in the scalar order
    (module docstring, "Counter-exactness contract").
    """
    a = rnd.arena
    n_tasks, dims = Lo.shape
    (vt, vr, skipped, cont, part), emits = rnd.site.range_walk(
        rnd, Lo, Hi, skip, fetch)
    part &= a.is_leaf[vr]
    # Each visit: the node, a box test unless the entry is known
    # contained, and the point tests (two compares per dimension) of a
    # partly covered leaf.
    visit, test_w, scan_w = rnd.site.range_weights(a, vr, dims)
    rnd.visited(vt, vr, visit + test_w * ~skipped + part * (a.count[vr] * scan_w))
    if emits is not None:
        et, ec, ep, es = emits
        rnd.emit(et, ec, ep, 2 * dims + 2, _RANGE_MODES[es.view(np.int8)])
    pt, pr = vt[part], vr[part]

    if not fetch:
        # Integer-valued weights: the float64 sums are exact.
        totals = np.bincount(vt[cont], weights=a.count[vr[cont]],
                             minlength=n_tasks)
        if pr.size:
            rows, row_pair, _ = _gather_rows(a, pr)
            row_t = pt[row_pair]
            inside = _ALL((rows >= Lo[row_t]) & (rows <= Hi[row_t]), axis=1)
            totals += np.bincount(row_t[inside], minlength=n_tasks)
        hit = totals.nonzero()[0]
        rnd.recv[hit] += 1
        rnd.out.results.extend(zip(
            map(rnd.qids.__getitem__, hit.tolist()),
            zip(repeat("count"), totals[hit].astype(np.int64).tolist())))
        return

    cont &= a.is_leaf[vr]
    wr = vr[cont]
    lr = np.concatenate((wr, pr))
    if not lr.size:
        return
    lt = np.concatenate((vt[cont], pt))
    whole = np.arange(lr.size) < wr.size
    order = np.lexsort((~a.key_lo[lr], lt))
    lr, lt, whole = lr[order], lt[order], whole[order]
    rows, row_pair, lens = _gather_rows(a, lr)
    row_t = lt[row_pair]
    # Contained leaves skip the membership test, so
    # their rows are taken wholesale (no float compare involved).
    inside = whole.repeat(lens)
    pm = ~inside
    if _ANY(pm):
        inside[pm] = _ALL((rows[pm] >= Lo[row_t[pm]])
                          & (rows[pm] <= Hi[row_t[pm]]), axis=1)
    _reply_points(rnd, rows, row_t, inside, dims)


def _range_levels(rnd: _Round, Lo, Hi, skip, fetch: bool):
    """:func:`_range_descent`'s walk one level per step over the
    ``(t, row)`` frontier, children expanded once per level; a level's
    rows are in no particular order.  Returns the visits ``(t, row,
    skip, contained, partial)`` and the border tasks ``(t, child,
    parent, skip)`` or None."""
    a = rnd.arena
    layer = rnd.layer
    t = np.arange(len(Lo), dtype=np.intp)
    row = rnd.entry
    levels: list[tuple] = []    # (t, row, skip, contained, partial) per level
    edges: list[tuple] = []     # (t, child, parent, skip, local) per level
    while True:
        nlo, nhi = a.lo[row], a.hi[row]
        ql, qh = Lo[t], Hi[t]
        inter = _ALL((nlo <= qh) & (ql <= nhi), axis=1)
        cont = skip | _ALL((ql <= nlo) & (nhi <= qh), axis=1)
        part = inter > cont     # meets the box, not contained in it
        levels.append((t, row, skip, cont, part))
        # Counting totals a contained subtree; fetching opens it down to
        # its leaves, whose points are then taken wholesale.
        inner = ((inter | cont if fetch else part) > a.is_leaf[row]).nonzero()[0]
        if not inner.size:
            break
        r, pair = row[inner], np.concatenate((inner, inner))
        child, parent = np.concatenate((a.left[r], a.right[r])), row[pair]
        t, skip = t[pair], cont[pair]
        loc = (a.layer[child] == layer if layer is not None
               else rnd.local(t, child))
        edges.append((t, child, parent, skip, loc))
        t, row, skip = t[loc], child[loc], skip[loc]
        if not t.size:
            break
    return tuple(map(np.concatenate, zip(*levels))), _border(edges)


def _range_table(rnd: _Round, Lo, Hi, skip, fetch: bool):
    """:func:`_range_descent`'s walk over L0's table (:class:`_L0Table`),
    every task entering at the root (position 0), as a box batch's L0
    walk does.  On the ``(task, position)`` grid, a node is reached unless
    a node above it does not open — misses the box, or, counting, is
    contained in it; fetching, a node under a contained one is contained
    too.  A reached node that opens emits its border edges.  Returns what
    :func:`_range_levels` returns, in the scalar order, with no
    parents."""
    tab = rnd.arena.l0_table()
    end = tab.end
    # Every face of every box against every node: one compare per test.
    corners = tab.corners
    inter = _ALL(corners <= np.concatenate((Hi, -Lo), axis=1)[:, :, None],
                 axis=1)
    cont = _ALL(np.concatenate((Lo, -Hi), axis=1)[:, :, None] <= corners,
                axis=1)
    entry_skip, skip = skip, np.zeros(inter.shape, dtype=bool)
    skip[:, 0] = entry_skip
    cont |= skip
    if fetch:
        skip |= _under(cont, end)
        cont |= skip
    part = inter > cont
    opens = inter | cont if fetch else part
    reached = ~_under(~opens, end)
    vt, vp = reached.nonzero()
    visits = (vt, tab.rows[vp], skip[vt, vp], cont[vt, vp], part[vt, vp])
    at = tab.edge_from
    et, ej = (reached[:, at] & opens[:, at]).nonzero()
    if not et.size:
        return visits, None
    return visits, (et, tab.edge_to[ej], None, cont[et, at[ej]])


# ======================================================================
# delete partitioning
# ======================================================================
def plan_leaf_deletions(leaf, qids, results, points, removal_count) -> np.ndarray:
    """Vectorized delete plan for one leaf: which stored rows go.

    Batched ``np.searchsorted`` over all query keys plus a row-equality
    mask per query replaces the per-row Python scan.  Claim semantics
    are preserved exactly: queries claim rows in qid order, and only
    queries with equal keys (hence equal row ranges) can contend.
    """
    keep = np.ones(leaf.count, dtype=bool)
    karr = np.array([results[q].key for q in qids], dtype=_U64)
    j0s = np.searchsorted(leaf.keys, karr, side="left")
    j1s = np.searchsorted(leaf.keys, karr, side="right")
    for i, q in enumerate(qids):
        j0, j1 = int(j0s[i]), int(j1s[i])
        removed_here = 0
        if j1 > j0:
            p = points[q]
            match = (leaf.pts[j0:j1] == p).all(axis=1) & keep[j0:j1]
            removed_here = int(match.sum())
            if removed_here:
                keep[j0:j1] &= ~match
        removal_count[q] = removed_here
    return keep
