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
* :func:`route_through_l0` — SEARCH's L0 routing over the arena's link
  and key-range columns: one level per step for the whole batch, or key
  by key for a batch too small to pay for array calls;
* the kNN host passes (Alg. 3's CPU share, driven by
  ``repro.core.knn._ArrayHost``): :func:`seed_knn_l0` — both L0 walks
  as one ``(query, row)`` frontier per batch; :func:`trace_rows` /
  :func:`lowest_rows` / :func:`sphere_cover_mask` — the search traces as
  a padded ``(query, depth)`` row matrix, so picking a trace node is a
  masked compare and an ``argmax`` along depth; :func:`segmented_topk`
  — every per-query stable sort as one ``lexsort``;
* :func:`seed_l0_boxes` — batched host-side L0 seeding for range
  queries: (box × L0-row) intersect/contain masks built one dimension
  at a time over the arena's L0 rows, read by the per-box scalar DFS;
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
   charges per-group booking makes, and read routing still runs group
   by group, so the drop-RNG stream, dead-module raise points, tracing and replica
   routing see exactly what per-group charging gave them.

The host passes keep the same contract without rounds: their charges
are integer CPU ops, summed into one ``charge_cpu`` per pass; their LLC
touches (``("pimzd", "l0", nid)``) and emitted tasks are sorted into the
scalar order — queries in batch order, then right-first pre-order,
``(~hi_incl, depth)`` — before ``touch_cpu_blocks`` sees them; and a
stable sort per query becomes one stable ``lexsort((d, query))``, which
orders ties by position exactly as the per-query sorts (and a chain of
per-round top-k merges) did.  The only sequential dependency — step 2's
pruning radius tightening as L0 leaves merge — is settled leaf by leaf
in pre-order (:func:`_pile_visits`).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain, compress, repeat
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
    "seed_knn_l0",
    "trace_rows",
    "lowest_rows",
    "sphere_cover_mask",
    "segmented_topk",
    "seed_l0_boxes",
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
_ROOT, _PTS = attrgetter("root"), attrgetter("pts")
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
    """Row-wise norm of non-negative offsets, in :mod:`.geometry`'s formulas."""
    if metric.name == "l1":
        return _SUM(v, axis=-1)
    if metric.name == "linf":
        return _MAX(v, axis=-1)
    return np.sqrt(_SUM(v * v, axis=-1))


def _dist_point_boxes(p: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                      metric: Metric) -> np.ndarray:
    """Row-wise :func:`repro.core.geometry.dist_point_box`.

    Same elementwise formula, so each row is bitwise identical to the
    scalar per-(point, box) call.
    """
    return _norm(_box_gaps(p, lo, hi), metric)


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
    """

    __slots__ = ("tree", "n", "dead", "nodes", "dirty") + tuple(
        name for name, _, _ in _COLUMNS
    )

    def __init__(self, tree) -> None:
        self.tree = tree
        self.dirty: set[Node] = set()
        self.nodes: list[Node] = []  # no rows until the first flush
        self.n = self.dead = 0
        self._resize(0, 0)

    # -- row bookkeeping ---------------------------------------------------
    def has_row(self, node: Node) -> bool:
        r = node.row
        return 0 <= r < len(self.nodes) and self.nodes[r] is node

    def remove(self, node: Node) -> None:
        """``node`` left the tree: its row (if any) is garbage from now on."""
        if self.has_row(node):
            self.dead += 1
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

    def _write(self, nodes: list[Node]) -> None:
        """Columns the update path can change."""
        n = len(nodes)
        cfg = self.tree.config
        rows = np.fromiter(map(_ROW, nodes), dtype=np.intp, count=n)
        self.count[rows] = np.fromiter(map(_COUNT, nodes), dtype=np.int32,
                                       count=n)
        self.layer[rows] = np.fromiter(map(_LAYER, nodes), dtype=np.int8,
                                       count=n)
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


def node_arena(tree) -> NodeArena:
    """The tree's arena, flushed (so built, on the first call)."""
    arena = tree._arena
    arena.flush()
    return arena


def check_arena(tree) -> None:
    """Assert the flushed arena equals one built from scratch.

    Compared over the rows of reachable nodes: every column, with the
    columns that hold rows (child links, meta handles) compared by the
    identity of the node they name.  ``tree.check_invariants`` calls
    this, so it builds an unbuilt arena.
    """
    arena = node_arena(tree)
    live = subtree_nodes(tree.root)
    assert all(arena.has_row(nd) for nd in live), "live node without a row"
    assert arena.n - arena.dead == len(live), "arena live-row count drifted"
    assert arena.n <= 2 * len(live), "arena garbage exceeds its bound"
    rows = [nd.row for nd in live]
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
def _l0_blocks(nodes: list[Node]) -> list[tuple]:
    """LLC block ids of host-resident L0 nodes, in the given order."""
    return list(zip(repeat("pimzd"), repeat("l0"), map(_NID, nodes)))


def route_through_l0(tree, results) -> list[Task]:
    """Traverse the globally-shared layer for every query (Alg. 1 step 1).

    Returns the border tasks entering L1/L2; terminal outcomes (leaf or
    edge divergence inside L0) are written into ``results`` directly.
    Every query descends L0 over the arena's ``left/right/key_lo/hi_incl/
    layer`` columns: the key bit at the node's depth picks the child, a
    range compare detects a divergent compressed edge.  A batch of more
    than ``_ROUTE_EACH_MAX`` queries advances one level per step with
    array ops (:func:`_route_levels`); a smaller one — where a dozen
    array calls per level cost more than the whole batch's scalar reads
    — walks each key down the same columns (:func:`_route_each`).
    Traces are Node lists (the update path reads them); terminal
    outcomes, border tasks and all simulated charges are the same either
    way.  A host-resident L0 charges the CPU per visited node; a
    replicated one is walked in one round, queries hash-partitioned over
    the modules.
    """
    sys = tree.system
    a = node_arena(tree)
    root = tree.root
    if root.layer != Layer.L0:
        # Empty L0: the border sits at the root itself (no trace/charges).
        lo, hi = root.key_range(tree.key_bits)
        path, tasks = [], []
        for res in results:
            if lo <= res.key < hi:
                tasks.append(Task(res.qid, root.meta, root))
            else:
                res.edge = (None, root)
    elif len(results) <= _ROUTE_EACH_MAX:
        path, tasks = _route_each(tree, a, results)
    else:
        path, tasks = _route_levels(tree, a, results)

    # -- charges, in the per-query walk's order ---------------------------
    if tree.l0_on_cpu:
        if path:
            sys.charge_cpu(CPU_NODE_OPS * len(path))
            sys.touch_cpu_blocks(_l0_blocks(path))
    else:
        salt = tree._l0_route_salt
        send_by: dict[int, float] = {}
        cyc_by: dict[int, float] = {}
        recv_by: dict[int, float] = {}
        # Aggregate per placed module; all three dicts share one key
        # sequence (first-appearance order), and the round books every
        # module's send, then every module's cycles, then every module's
        # recv, in that order — so a drop-prone fault plan rolls the
        # transfers in that order too.
        for res in results:
            mid = sys.place(("l0q", salt, res.qid))
            send_by[mid] = send_by.get(mid, 0.0) + 2
            cyc_by[mid] = (
                cyc_by.get(mid, 0.0) + len(res.trace) * L0_PIM_CYCLES_PER_NODE
            )
            recv_by[mid] = recv_by.get(mid, 0.0) + TRACE_WORDS
        n_mids = len(send_by)
        mids = np.fromiter(send_by.keys(), dtype=np.intp, count=n_mids)
        amounts = np.fromiter(
            chain(send_by.values(), cyc_by.values(), recv_by.values()),
            dtype=np.float64, count=3 * n_mids)
        with sys.round():
            sys.charge_sequence(np.repeat(_ROUTE_KINDS, n_mids),
                                np.tile(mids, 3), amounts)
    return tasks


_ROUTE_KINDS = np.array([CHARGE_SEND, CHARGE_PIM, CHARGE_RECV], dtype=np.intp)


# Batches up to this many queries route key by key.  Measured crossover:
# ~32 queries on a 6-level L0 (uniform 40k, P = 64), ~50 on a 23-level one
# (Varden 100k, P = 2048) — where one level of array calls costs what that
# many scalar steps do.
_ROUTE_EACH_MAX = 32


def _route_each(tree, a: NodeArena, results):
    """L0 routing one key at a time over the arena's columns (``item``
    reads: Python ints, no array calls).  Returns ``(path, tasks)``:
    every trace node in result order, and the border tasks."""
    nodes, kb, root_row = a.nodes, tree.key_bits, tree.root.row
    is_leaf, depth, left, right = a.is_leaf, a.depth, a.left, a.right
    key_lo, hi_incl, layer = a.key_lo, a.hi_incl, a.layer
    path: list[Node] = []
    tasks: list[Task] = []
    for res in results:
        key = res.key
        if not key_lo.item(root_row) <= key <= hi_incl.item(root_row):
            res.edge = (None, tree.root)
            continue
        rows = [root_row]
        while True:
            r = rows[-1]
            if is_leaf.item(r):
                res.leaf = nodes[r]
                break
            c = (right if key >> (kb - 1 - depth.item(r)) & 1 else left).item(r)
            if not key_lo.item(c) <= key <= hi_incl.item(c):
                res.edge = (nodes[r], nodes[c])
                break
            if layer.item(c) != _L0:
                node = nodes[c]
                tasks.append(Task(res.qid, node.meta, node))
                break
            rows.append(c)
        trace = list(map(nodes.__getitem__, rows))
        res.trace.extend(trace)
        path += trace
    return path, tasks


def _route_levels(tree, a: NodeArena, results):
    """L0 routing for the whole batch, one level per step (array ops).
    Returns what :func:`_route_each` does."""
    nodes, kb, root = a.nodes, tree.key_bits, tree.root
    keys = np.array([r.key for r in results], dtype=_U64)
    ok = (a.key_lo[root.row] <= keys) & (keys <= a.hi_incl[root.row])
    for i in np.flatnonzero(~ok).tolist():
        results[i].edge = (None, root)
    qi = np.flatnonzero(ok)
    row = np.full(len(qi), root.row, dtype=np.intp)
    bord_q, bord_r, trace_q, trace_r = [], [], [], []
    while len(qi):
        trace_q.append(qi)
        trace_r.append(row)
        leaf = a.is_leaf[row]
        if np.count_nonzero(leaf):
            for i, r in zip(qi[leaf].tolist(), row[leaf].tolist()):
                results[i].leaf = nodes[r]
            qi, row = qi[~leaf], row[~leaf]
        key = keys[qi]
        bit = (key >> (kb - 1 - a.depth[row]).astype(_U64)) & _U64(1)
        child = np.where(bit, a.right[row], a.left[row])
        inside = (a.key_lo[child] <= key) & (key <= a.hi_incl[child])
        descend = inside & (a.layer[child] == _L0)
        if np.count_nonzero(descend) < len(qi):
            for i, p, c in zip(qi[~inside].tolist(), row[~inside].tolist(),
                               child[~inside].tolist()):
                results[i].edge = (nodes[p], nodes[c])
            border = inside & ~descend
            bord_q.append(qi[border])
            bord_r.append(child[border])
            qi, child = qi[descend], child[descend]
        row = child

    # Traces: each query's rows in level order, as Node lists.
    path: list[Node] = []
    if trace_q:
        tq = np.concatenate(trace_q)
        order = np.argsort(tq, kind="stable")
        path = list(map(nodes.__getitem__,
                        np.concatenate(trace_r)[order].tolist()))
        ends = np.cumsum(np.bincount(tq, minlength=len(results))).tolist()
        s = 0
        for res, e in zip(results, ends):
            if e > s:
                res.trace.extend(path[s:e])
                s = e
    tasks: list[Task] = []
    if bord_q:
        bq = np.concatenate(bord_q)
        order = np.argsort(bq)
        for i, r in zip(bq[order].tolist(),
                        np.concatenate(bord_r)[order].tolist()):
            node = nodes[r]
            tasks.append(Task(results[i].qid, node.meta, node))
    return path, tasks


# ======================================================================
# one BSP round as flat arrays
# ======================================================================
# The locality rule of a round, fixed once per kernel call (``_Round.rule``).
LAYER_RULE, META_RULE, MIXED_RULE = "layer", "meta", "mixed"


class _Round:
    """The groups of one BSP round that run at one site, as flat arrays.

    The task index ``t`` runs over the groups in the executor's
    ``by_meta`` order and, inside a group, in task order — sorting by
    ``t`` *is* sorting by (group, position), which is how the kernels
    restore the scalar result and emission order across groups.  Kernels
    carry their frontier as parallel ``(t, row)`` arrays and book into
    per-task columns in the site's unit — ``work`` (PIM cycles at a
    module, CPU ops on the host: pulled groups) and ``recv`` (result
    words, a ``RESULT_WORDS`` header each) — each charge site picking its
    weights once per call.  :meth:`output` sums a module's columns per
    group; on the host it sums the ops and orders the visited rows, which
    become the LLC touches.

    Locality: on a module an L1 task sees every L1 node (the module
    caches all L1 descendants, §3.1); any other task — and every task on
    the host, which fetched only the meta's master nodes — sees only its
    own meta's members.  ``rule`` says which compare a round needs:
    ``LAYER_RULE`` when every task is a pushed L1 task (every meta at
    P = 64 and P = 2048), ``META_RULE`` on the host or with no L1 task,
    ``MIXED_RULE`` — a per-task choice — only when both kinds share a
    pushed round.
    """

    __slots__ = ("arena", "on_host", "tasks", "qids", "n", "starts", "rule",
                 "mid", "l1", "entry", "out", "work", "recv", "_acc", "_seen")

    def __init__(self, tree, groups, on_host: bool) -> None:
        self.arena = node_arena(tree)
        self.on_host = on_host
        metas = list(map(_FIRST, groups))
        per_group = list(map(_SECOND, groups))
        self.tasks = tasks = list(chain.from_iterable(per_group))
        n_groups, n = len(metas), len(tasks)
        self.n = n
        lens = np.fromiter(map(len, per_group), dtype=np.intp, count=n_groups)
        self.starts = lens.cumsum() - lens
        self.qids = list(map(_QID, tasks))
        self.entry = np.fromiter(map(_ROW, map(_NODE, tasks)), dtype=np.intp,
                                 count=n)
        layers = [] if on_host else list(map(_LAYER, metas))
        n_l1 = layers.count(Layer.L1)
        self.mid = self.l1 = None
        if n_l1 == n_groups:
            self.rule = LAYER_RULE
        else:
            self.mid = np.fromiter(map(_ROW, map(_ROOT, metas)), dtype=np.intp,
                                   count=n_groups).repeat(lens)
            if n_l1:
                self.rule = MIXED_RULE
                self.l1 = (np.fromiter(layers, dtype=np.int8, count=n_groups)
                           == _L1).repeat(lens)
            else:
                self.rule = META_RULE
        self.out = RoundOutput(n_groups)
        # Per-task columns: work, result words, task words (summed per
        # group by ``output``).  Every entry is an integer, so the sums are
        # exact in any order.
        self._acc = acc = np.zeros((n, 3))
        self.work, self.recv = acc[:, 0], acc[:, 1]
        self.recv += RESULT_WORDS
        acc[:, 2] = np.fromiter(map(_SEND_WORDS, tasks), dtype=np.float64,
                                count=n)
        self._seen = None

    def local(self, t: np.ndarray, child: np.ndarray) -> np.ndarray:
        """Is ``child`` inside task ``t``'s reach at this site?"""
        a = self.arena
        if self.rule is LAYER_RULE:
            return a.layer[child] == _L1
        same_meta = a.meta_id[child] == self.mid[t]
        if self.rule is META_RULE:
            return same_meta
        return np.where(self.l1[t], a.layer[child] == _L1, same_meta)

    def node_cost(self, row: np.ndarray):
        """Cost of visiting ``row``: its meta's cycles at a module,
        ``CPU_NODE_OPS`` on the host."""
        if self.on_host:
            return CPU_NODE_OPS
        a = self.arena
        return a.meta_cycles[a.meta_id[row]]

    def visited(self, t: np.ndarray, row: np.ndarray, work: np.ndarray) -> None:
        """Tasks ``t`` visited nodes ``row`` at ``work`` each (node visit,
        tests and leaf scans together): the one descent of a kernel."""
        self.work += np.bincount(t, weights=work, minlength=self.n)
        if self.on_host:
            self._seen = (t, row)

    def emit(self, t, child, parent, send_words, payload=None) -> None:
        """Queue boundary tasks in the scalar emission order.

        A non-local child is emitted when its *parent* is visited, left
        child before right.  Parents are visited in right-first
        pre-order, which sorts as ``(hi_incl DESC, depth ASC)``; the left
        child has the smaller ``key_lo``.  ``payload``, when given, is an
        array aligned with ``t``.
        """
        a = self.arena
        order = np.lexsort((a.key_lo[child], a.depth[parent],
                            ~a.hi_incl[parent], t))
        nodes = list(map(a.nodes.__getitem__, child[order].tolist()))
        self.out.emits.extend(map(
            Task, map(self.qids.__getitem__, t[order].tolist()),
            map(_META, nodes), nodes,
            repeat(None) if payload is None else payload[order].tolist(),
            repeat(send_words)))

    def output(self) -> RoundOutput:
        out = self.out
        if self.on_host:
            out.cpu_ops = float(_SUM(self.work))
            if self._seen is not None:
                # The visit order: per task, right-first pre-order.
                a = self.arena
                t, r = self._seen
                rows = r[np.lexsort((a.depth[r], ~a.hi_incl[r], t))]
                out.touched = list(map(_NID, map(a.nodes.__getitem__,
                                                 rows.tolist())))
            return out
        out.cycles, out.recv, out.send = _SUM_AT(self._acc, self.starts,
                                                 axis=0).T
        return out


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
        out = RoundOutput(len(groups))
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
    ``linf_bound[t]`` is finite, also within that ℓ∞ distance — booking
    work and queueing boundary tasks as a per-task traversal would.

    One level per step over the whole round's ``(t, row)`` frontier: one
    gap array feeds both box tests, and a level's node visits, tests and
    leaf scans are booked as one work entry per visited row.  A level's
    rows are in no particular order — reached leaves, emits and host
    touches are re-sorted afterwards and every charge is an integer
    (module docstring, "Counter-exactness contract").

    Returns ``(rows, row_t, dd)`` for the reached leaves in scalar
    leaf-scan order (stacked points, owning task, coarse distance to the
    task's query), or ``None`` if no leaf was reached.
    """
    a = rnd.arena
    dims = Q.shape[1]
    # This site's cost of a box test and of one scanned point (floats, so
    # the int32 counts they scale widen): a host test is 2·D ops whatever
    # the metric.
    if rnd.on_host:
        box_w = linf_w = 2 * dims
        scan_w = float(CPU_POINT_BASE_OPS + coarse.cpu_ops_per_dim * dims)
        linf_scan_w = float(CPU_POINT_BASE_OPS + LINF.cpu_ops_per_dim * dims)
    else:
        box_w = coarse.pim_cycles_per_dim * dims
        linf_w = LINF.pim_cycles_per_dim * dims
        scan_w = float(PIM_POINT_BASE_CYCLES + coarse.pim_cycles_per_dim * dims)
        linf_scan_w = float(PIM_POINT_BASE_CYCLES
                            + LINF.pim_cycles_per_dim * dims)
    # Per task: the ℓ∞ test (run where the coarse test passed) and each
    # scanned point's weight, ℓ∞ re-check included where it applies.
    use_linf = np.isfinite(linf_bound)
    any_linf = _ANY(use_linf)
    test_w = use_linf * linf_w
    point_w = scan_w + use_linf * linf_scan_w
    t = np.arange(len(Q), dtype=np.intp)
    row = rnd.entry
    levels: list[tuple] = []    # (t, row, coarse pass, reached leaf) per level
    edges: list[tuple] = []     # (t, child, parent, local) per level
    while True:
        gap = _box_gaps(Q[t], a.lo[row], a.hi[row])
        near = coarse_ok = _norm(gap, coarse) <= bound[t]
        if any_linf:
            near = coarse_ok & (_MAX(gap, axis=1) <= linf_bound[t])
        leaf = near & a.is_leaf[row]
        levels.append((t, row, coarse_ok, leaf))
        inner = (near ^ leaf).nonzero()[0]
        if not inner.size:
            break
        r, pair = row[inner], np.concatenate((inner, inner))
        child, parent = np.concatenate((a.left[r], a.right[r])), row[pair]
        t = t[pair]
        loc = rnd.local(t, child)
        edges.append((t, child, parent, loc))
        t, row = t[loc], child[loc]
        if not t.size:
            break

    vt, vr, coarse_ok, leaf = map(np.concatenate, zip(*levels))
    # Each visit: the node and its coarse test, the ℓ∞ test where the
    # coarse one passed, and a reached leaf's point scan.
    work = rnd.node_cost(vr) + box_w + leaf * (a.count[vr] * point_w[vt])
    if any_linf:
        work += coarse_ok * test_w[vt]
    rnd.visited(vt, vr, work)
    if edges:
        et, ec, ep, loc = map(np.concatenate, zip(*edges))
        ext = ~loc
        if _ANY(ext):
            rnd.emit(et[ext], ec[ext], ep[ext], dims + 3)
    lt, lr = vt[leaf], vr[leaf]
    if not lt.size:
        return None
    # Scalar leaf-scan order: tasks in (group, position) order, leaves per
    # task in right-first DFS order = descending key_lo (disjoint leaves).
    order = np.lexsort((~a.key_lo[lr], lt))
    rows, row_pair, _ = _gather_rows(a, lr[order])
    row_t = lt[order][row_pair]
    return rows, row_t, _dist_rows(rows, Q[row_t], coarse)


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
        hit = _ball_descent(rnd, Qall[qids], radius, np.full(n, np.inf), coarse)
        if hit is not None:
            rows, row_t, dd = hit
            sel, kept = segmented_topk(dd, row_t, k, n)
            # The candidate sort: 4 ops per candidate, 6 cycles.
            rnd.work += np.bincount(row_t, minlength=n) * (4 if on_host else 6)
            rnd.recv += kept * (dims + 1)
            ends = kept.cumsum()
            got = kept.nonzero()[0]
            starts, ends = (ends - kept)[got], ends[got]
            rnd.out.results.extend(zip(
                map(qids.__getitem__, got.tolist()),
                zip(repeat("cand"), _slices(dd[sel], starts, ends),
                    _slices(rows[sel], starts, ends))))
        return rnd.output()

    return kernel


def make_fetch_kernel(tree, states, coarse: Metric, bounds, exact_radii):
    """Fused ball-fetch for kNN step 4 (anchored bound + ℓ∞ filter)."""
    dims = tree.dims
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
        Q, bnd, rex = Qall[qids], bounds[qids], exact_radii[qids]
        hit = _ball_descent(rnd, Q, bnd, rex, coarse)
        if hit is not None:
            rows, row_t, dd = hit
            mask = dd <= bnd[row_t]
            row_rex = rex[row_t]
            if _ANY(np.isfinite(row_rex)):
                mask &= _dist_rows(rows, Q[row_t], LINF) <= row_rex
            _reply_points(rnd, rows, row_t, mask, dims)
        return rnd.output()

    return kernel


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


def seed_knn_l0(tree, Q, start, coarse: Metric, *, states=None, k: int = 0,
                bound=None, r_exact=None):
    """Alg. 3's host-side L0 walk for a whole batch (steps 2 and 4).

    Query ``i`` walks L0 from row ``start[i]``, right child first,
    skipping nodes whose box lies beyond its radius; the first non-L0
    node on each branch becomes a border task.  Level-synchronous over
    ``(query, row)`` frontiers: one ``_dist_point_boxes`` (plus the ℓ∞
    test where it applies) per level over the arena's ``lo``/``hi``.

    * Step 4 (``bound`` given): fixed radii, the coarse ``bound`` and,
      where finite, the ℓ∞ ``r_exact``.  Returns ``(tasks, pts, pts_q)``
      with the accepted L0-leaf points per query in scalar scan order.
    * Step 2 (``states`` given): the radius is the running k-th
      candidate distance, which only moves when an L0 *leaf* (an
      all-equal-key pile) is merged.  Nothing is pruned until a query
      reaches one; for queries that do, :func:`_pile_visits` replays the
      radius as a step function over pre-order position and merges the
      leaves into ``states``.  Returns ``(tasks, None, None)``.

    Charges (4 CPU ops per visited L0 node, the leaf scans), the
    ``("pimzd", "l0", nid)`` touches and the tasks come out in the
    scalar order: queries in order, right-first pre-order — ``(~hi_incl,
    depth)`` — within a query.
    """
    sys = tree.system
    a = node_arena(tree)
    nodes = a.nodes
    dims = Q.shape[1]
    fetch = bound is not None
    q = np.arange(len(Q), dtype=np.intp)
    row = np.asarray(start, dtype=np.intp)
    par = np.full(len(Q), -1, dtype=np.intp)
    # Every node any query reaches, level by level: its query, row, parent
    # entry, whether it is in L0 and whether it is a leaf to scan.  A
    # level's entries are in no particular order: the scalar order is
    # restored by one ``lexsort`` below.
    levels: list[tuple] = []
    base = 0    # entries before this level
    while True:
        go = l0 = a.layer[row] == _L0
        if fetch:
            # One gap array feeds both tests (border rows are tested too,
            # and dropped by ``l0``); an infinite r_exact — no ℓ∞ filter in
            # the scalar walk — passes every finite ℓ∞ distance.
            gap = _box_gaps(Q[q], a.lo[row], a.hi[row])
            go = (l0 & (_norm(gap, coarse) <= bound[q])
                  & (_MAX(gap, axis=1) <= r_exact[q]))
        leaf = go & a.is_leaf[row]
        levels.append((q, row, par, l0, leaf))
        inner = (go ^ leaf).nonzero()[0]
        if not inner.size:
            break
        r, pair = row[inner], np.concatenate((inner, inner))
        q, par = q[pair], pair + base
        base += row.size
        row = np.concatenate((a.left[r], a.right[r]))

    eq, er, ep, l0, leaves = map(np.concatenate, zip(*levels))
    leaves = leaves.nonzero()[0]
    if len(levels) == 1:
        # One entry per query, in query order: already the scalar order.
        order = np.arange(eq.size)
    else:
        order = np.lexsort((a.depth[er], ~a.hi_incl[er], eq))
    cpu = 0
    if leaves.size and not fetch:
        level_at = list(accumulate(map(len, map(_SECOND, levels)), initial=0))
        popped, cpu = _pile_visits(a, Q, coarse, states, k, eq, er, ep, l0,
                                   order, level_at, leaves)
        order = order[popped[order]]
    l0 = l0[order]
    walked, border = er[order[l0]], order[~l0]
    cpu += 4 * walked.size
    pts = pts_q = None
    if fetch:
        pts, pts_q = np.empty((0, dims)), np.empty(0, dtype=np.intp)
        if leaves.size:
            le = leaves[np.lexsort((~a.key_lo[er[leaves]], eq[leaves]))]
            cpu += int(_SUM(a.count[er[le]])) * coarse.cpu_ops_per_dim * dims
            pts, owner, _ = _gather_rows(a, er[le])
            pts_q = eq[le][owner]
            diff = np.abs(pts - Q[pts_q])
            keep = ((_norm(diff, coarse) <= bound[pts_q])
                    & (_MAX(diff, axis=1) <= r_exact[pts_q]))
            pts, pts_q = pts[keep], pts_q[keep]
    if cpu:
        sys.charge_cpu(cpu)
    if walked.size:
        sys.touch_cpu_blocks(_l0_blocks(list(map(nodes.__getitem__,
                                                  walked.tolist()))))
    seeds = list(map(nodes.__getitem__, er[border].tolist()))
    tasks = list(map(Task, eq[border].tolist(), map(_META, seeds), seeds,
                     repeat(None), repeat(dims + 3)))
    return tasks, pts, pts_q


def _pile_visits(a: NodeArena, Q, coarse: Metric, states, k: int, eq, er, ep,
                 l0, order, level_at, leaves):
    """Step 2's running radius for queries that reach L0 leaves.

    The scalar walk prunes each node against the radius in force when it
    is popped: the k-th best candidate after every leaf merged *before*
    it in right-first pre-order.  Per such query, its leaves are settled
    in that order — a leaf merges iff no node on its path (itself
    included) lies beyond the radius at that node's position — which
    fixes the radius as a step function of position; one compare per
    entry and a per-level pass over the parents then say which entries
    the scalar walk pops.  Returns ``(popped, cpu ops of the leaf scans)``.
    """
    nodes = a.nodes
    dims = Q.shape[1]
    m = len(eq)
    pos = np.empty(m, dtype=np.intp)
    pos[order] = np.arange(m)
    hot = np.zeros(len(Q), dtype=bool)
    hot[eq[leaves]] = True
    d = np.full(m, -np.inf)
    sub = np.flatnonzero(hot[eq] & l0)
    d[sub] = _dist_point_boxes(Q[eq[sub]], a.lo[er[sub]], a.hi[er[sub]], coarse)
    radius_at = np.full(m, np.inf)
    leaves = leaves[np.argsort(pos[leaves])]
    pos_l, d_l, ep_l, l0_l = pos.tolist(), d.tolist(), ep.tolist(), l0.tolist()
    cpu = 0
    for qi in np.flatnonzero(hot).tolist():
        st = states[qi]
        merged_at: list[int] = []
        radius = [np.inf]  # radius[j]: in force after the j-th merge
        for e in leaves[eq[leaves] == qi].tolist():
            x = e
            while x >= 0 and not (
                    l0_l[x] and d_l[x] > radius[bisect_left(merged_at, pos_l[x])]):
                x = ep_l[x]
            if x >= 0:
                continue  # a node on the path was pruned first
            node = nodes[er[e]]
            cpu += node.count * coarse.cpu_ops_per_dim * dims
            cd = np.concatenate((st.cand_d, _dist_rows(node.pts, Q[qi], coarse)))
            cp = np.concatenate((st.cand_p, node.pts))
            sel, _ = segmented_topk(cd, np.zeros(len(cd), dtype=np.intp), k, 1)
            st.cand_d, st.cand_p = cd[sel], cp[sel]
            merged_at.append(pos_l[e])
            radius.append(float(st.cand_d[k - 1]) if len(sel) >= k else np.inf)
        mine = np.flatnonzero(eq == qi)
        radius_at[mine] = np.asarray(radius)[
            np.searchsorted(merged_at, pos[mine], side="left")]
    # A node is popped (charged, touched, emitted) once its parent passed;
    # it passes — and expands or merges — if it is also within radius.
    passed = ~l0 | (d <= radius_at)
    popped = np.ones(m, dtype=bool)
    for b0, b1 in zip(level_at[1:-1], level_at[2:]):
        popped[b0:b1] = passed[ep[b0:b1]]
        passed[b0:b1] &= popped[b0:b1]
    return popped, cpu


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

    One level per step over the ``(t, row)`` frontier, children expanded
    once per level; a level's rows are in no particular order — totals
    are sums, and fetched leaves, emits and host touches are re-sorted
    afterwards (module docstring, "Counter-exactness contract").
    """
    a = rnd.arena
    n_tasks, dims = Lo.shape
    # This site's cost of a box test and of one point-in-box test (two
    # compares per dimension).
    if rnd.on_host:
        test_w, scan_w = CPU_BOX_TEST_OPS, float(CPU_POINT_BASE_OPS + 2 * dims)
    else:
        test_w = PIM_BOX_TEST_CYCLES
        scan_w = float(PIM_POINT_BASE_CYCLES + 2 * dims)
    t = np.arange(n_tasks, dtype=np.intp)
    row = rnd.entry
    levels: list[tuple] = []    # (t, row, tested, contained, partial) per level
    edges: list[tuple] = []     # (t, child, parent, skip, local) per level
    while True:
        tested = ~skip
        nlo, nhi = a.lo[row], a.hi[row]
        ql, qh = Lo[t], Hi[t]
        inter = _ALL((nlo <= qh) & (ql <= nhi), axis=1)
        contained = _ALL((ql <= nlo) & (nhi <= qh), axis=1)
        cont = skip | contained
        part = tested & inter & ~contained
        leaf = a.is_leaf[row]
        levels.append((t, row, tested, cont, part))
        # Counting totals a contained subtree; fetching opens it down to
        # its leaves, whose points are then taken wholesale.
        inner = (((part | cont) if fetch else part) & ~leaf).nonzero()[0]
        if not inner.size:
            break
        r, pair = row[inner], np.concatenate((inner, inner))
        child, parent = np.concatenate((a.left[r], a.right[r])), row[pair]
        t, skip = t[pair], cont[pair]
        loc = rnd.local(t, child)
        edges.append((t, child, parent, skip, loc))
        t, row, skip = t[loc], child[loc], skip[loc]
        if not t.size:
            break

    vt, vr, tested, cont, part = map(np.concatenate, zip(*levels))
    part &= a.is_leaf[vr]
    # Each visit: the node, a box test unless the entry is known
    # contained, and the point tests of a partly covered leaf.
    rnd.visited(vt, vr, rnd.node_cost(vr) + test_w * tested
                + part * (a.count[vr] * scan_w))
    if edges:
        et, ec, ep, es, loc = map(np.concatenate, zip(*edges))
        ext = ~loc
        if _ANY(ext):
            rnd.emit(et[ext], ec[ext], ep[ext], 2 * dims + 2,
                     _RANGE_MODES[es[ext].view(np.int8)])
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


# ======================================================================
# host-side L0 seeding for range queries
# ======================================================================
def seed_l0_boxes(tree, Lo, Hi, tasks, *, fetch: bool, counts,
                  chunks_list) -> None:
    """Host-side L0 seeding for the whole box batch.

    ``Lo`` / ``Hi`` are the batch's ``(n, D)`` box corners.  The (box ×
    L0-row) intersect and contain masks over the arena's L0 rows are built
    one dimension at a time: per dimension, one ``(n, n_L0)`` compare per
    box face, ANDed into the two masks in place (no ``(box, row, D)``
    temporary, no reduction over ``D``).  The scalar per-box right-first
    DFS then reads them in its own pop order — charges are aggregated and
    the LLC touch sequence is replayed in the exact scalar order.  (A
    level-synchronous frontier is exact too, but slower on narrow batches
    and deep L0s, and no faster on wide ones: the DFS visits few nodes.)
    """
    sys = tree.system
    root = tree.root
    dims = tree.dims
    L0 = Layer.L0
    arena = node_arena(tree)
    l0 = np.flatnonzero(arena.layer[:arena.n] == _L0)
    col = np.empty(arena.n, dtype=np.intp)
    col[l0] = np.arange(len(l0))
    # One contiguous row per dimension on the node side; (n, 1) columns
    # on the box side.
    NLo, NHi = arena.lo[l0].T.copy(), arena.hi[l0].T.copy()
    QLo, QHi = Lo.T[:, :, None], Hi.T[:, :, None]
    inter = np.ones((len(Lo), len(l0)), dtype=bool)
    contd = np.ones_like(inter)
    for d in range(dims):
        inter &= NLo[d] <= QHi[d]
        inter &= QLo[d] <= NHi[d]
        contd &= QLo[d] <= NLo[d]
        contd &= NHi[d] <= QHi[d]
    visited: list[Node] = []
    visit, emit = visited.append, tasks.append
    scan_ops = 0
    for qid in range(len(Lo)):
        contd_q, inter_q = contd[qid], inter[qid]
        stack: list[tuple[Node, bool]] = [(root, False)]
        pop, push = stack.pop, stack.append
        while stack:
            node, skip = pop()
            if node.layer != L0:
                emit(Task(qid, node.meta, node, "all" if skip else "test",
                          2 * dims + 2))
                continue
            visit(node)
            j = col[node.row]
            if skip or contd_q[j]:
                if not fetch:
                    counts[qid] += node.count
                elif node.keys is not None:
                    chunks_list[qid].append(node.pts)
                else:
                    push((node.left, True))
                    push((node.right, True))
                continue
            if not inter_q[j]:
                continue
            if node.keys is not None:
                pts = node.pts
                mask = ((pts >= Lo[qid]) & (pts <= Hi[qid])).all(axis=-1)
                scan_ops += node.count * 2 * dims
                if fetch:
                    if mask.any():
                        chunks_list[qid].append(pts[mask])
                else:
                    counts[qid] += int(np.count_nonzero(mask))
                continue
            push((node.left, False))
            push((node.right, False))
    if visited:
        sys.charge_cpu(CPU_BOX_TEST_OPS * len(visited) + scan_ops)
        sys.touch_cpu_blocks(_l0_blocks(visited))


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
