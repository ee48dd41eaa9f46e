"""Vectorized batch-execution kernels for the query/update hot paths.

The scalar operation modules (:mod:`.search`, :mod:`.knn`,
:mod:`.range_query`, :mod:`.update`) walk the pointer tree one
(query, node) pair at a time.  This module provides NumPy
frontier-at-a-time equivalents that the push-pull executor dispatches
when ``config.exec_mode == "vectorized"``:

* :class:`NodeArena` — one tree-wide structure of arrays, a row per live
  node (box corners, count, child rows, key range, layer, owning meta),
  kept current by a dirty set the tree's mutation primitives feed and
  :func:`node_arena` flushes before a kernel reads it.  It is the only
  derived structure: leaf payloads are read live from ``node.pts`` when
  a kernel gathers them, so nothing mirrors them;
* *round kernels* — ``handler.round_kernel(groups)`` receives **every
  pushed (meta, tasks) group of a BSP round** and returns a
  :class:`~.push_pull.RoundOutput`: one kernel call per round, the
  frontier carried as parallel ``(task, row)`` arrays across all groups
  (:class:`_Round`), locality decided per (task, child) by a vector
  compare on the arena's ``layer``/``meta_id`` columns.  The kernel is
  pure compute; the executor charges its per-group totals afterwards;
* :func:`make_search_round_kernel` — the pointer-walk SEARCH kernel
  (SEARCH never tests a box, so it loops its groups and uses no arena);
* :func:`make_candidate_round_kernel` / :func:`make_fetch_round_kernel`
  — the two kNN steps, thin wrappers over one shared ball descent
  (:func:`_ball_descent`: coarse box-distance prune, optional ℓ∞ prune,
  one stacked row-distance evaluation per round);
* :func:`make_range_round_kernel` — box-mask range count/fetch
  (:func:`_range_descent`) for a whole round at once;
* :func:`route_through_l0_vec` — batched L0 routing (whole query
  frontiers advance one tree level per step instead of per-point
  ``step()`` calls);
* :func:`seed_l0_boxes` — batched host-side L0 seeding for range
  queries, over the arena's L0 rows;
* :func:`plan_leaf_deletions` — ``np.searchsorted``-based delete
  partitioning.

Counter-exactness contract
--------------------------
Every kernel produces *byte-identical* ``PIMStats`` to the scalar
reference path.  This works because

1. every per-element charge in the scalar path is an integer number of
   cycles/ops/words, so float64 sums are exact and order-independent —
   aggregating them per (phase, module, round) with ``np.bincount`` is
   lossless;
2. the BSP round structure (which task reaches which meta-node in which
   round) is preserved exactly: emitted tasks are re-ordered into the
   scalar emission order before entering the next frontier;
3. LLC touch *sequences* (order-sensitive under LRU eviction) are
   replayed in the exact scalar order via ``touch_cpu_blocks``;
4. all floating-point result values are computed by the same NumPy
   elementwise/row-reduction formulas the scalar path uses, so they
   match bitwise, and concatenation follows the scalar right-child-first
   DFS order: disjoint subtrees are visited in descending ``key_lo``
   order, which ``np.lexsort`` on ``(task, ~key_lo)`` reconstructs;
5. batching across groups is order-neutral: the flat task index is
   (group in ``by_meta`` order, position in the group), so results sort
   by task, emitted tasks by (task, parent in right-first pre-order,
   child ``key_lo``) and gathered rows by (task, ``~key_lo``) — each the
   per-group scalar order prefixed with the group.  A task's visit set
   depends only on round-start state (kNN prunes on the round-start
   radius), never on another group, and the executor still charges group
   by group in ``by_meta`` order with the scalar call sequence, so the
   drop-RNG stream, dead-module checks, tracing and replica read routing
   see exactly the calls they saw before.
"""

from __future__ import annotations

import numpy as np

from .chunking import MetaNode
from .geometry import LINF, Metric
from .node import Layer, Node, subtree_nodes
from .push_pull import RoundOutput, Task

__all__ = [
    "NodeArena",
    "node_arena",
    "check_arena",
    "route_through_l0_vec",
    "make_search_round_kernel",
    "make_candidate_round_kernel",
    "make_fetch_round_kernel",
    "make_range_round_kernel",
    "seed_l0_boxes",
    "plan_leaf_deletions",
]

_U64 = np.uint64
_FULL = 1 << 64


def _in_range_mask(keys: np.ndarray, lo: int, hi: int) -> np.ndarray:
    ok = np.ones(len(keys), dtype=bool)
    if lo > 0:
        ok &= keys >= _U64(lo)
    if hi < _FULL:
        ok &= keys < _U64(hi)
    return ok


def _dist_point_boxes(p: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                      metric: Metric) -> np.ndarray:
    """Row-wise :func:`repro.core.geometry.dist_point_box`.

    Same elementwise formula, so each row is bitwise identical to the
    scalar per-(point, box) call.
    """
    gap = np.maximum(np.maximum(lo - p, p - hi), 0.0)
    if metric.name == "l1":
        return gap.sum(axis=-1)
    if metric.name == "linf":
        return gap.max(axis=-1)
    return np.sqrt((gap * gap).sum(axis=-1))


def _dist_rows(rows: np.ndarray, q: np.ndarray, metric: Metric) -> np.ndarray:
    """Row-wise :func:`repro.core.geometry.dist` (same formula, bitwise)."""
    diff = np.abs(rows - q)
    if metric.name == "l1":
        return diff.sum(axis=-1)
    if metric.name == "linf":
        return diff.max(axis=-1)
    return np.sqrt((diff * diff).sum(axis=-1))


# ======================================================================
# the node arena
# ======================================================================
_DEAD = -2  # ``node.row`` of a node that left the tree: never written again

# (column, dtype, one value per dimension?)
_COLUMNS = (
    ("lo", np.float64, True), ("hi", np.float64, True),
    ("count", np.int64, False), ("is_leaf", bool, False),
    ("left", np.intp, False), ("right", np.intp, False),
    ("key_lo", _U64, False), ("hi_incl", _U64, False),
    ("depth", np.int64, False), ("layer", np.int8, False),
    ("meta_id", np.intp, False), ("meta_cycles", np.float64, False),
)
# Columns holding rows of other nodes: compared by node identity.
_LINK_COLUMNS = ("left", "right", "meta_id")


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
        self._rebuild()

    # -- row bookkeeping ---------------------------------------------------
    def has_row(self, node: Node) -> bool:
        r = node.row
        return 0 <= r < len(self.nodes) and self.nodes[r] is node

    def remove(self, node: Node) -> None:
        """``node`` left the tree: its row (if any) is garbage from now on."""
        if self.has_row(node):
            self.dead += 1
        node.row = _DEAD

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
        self._resize(2 * self.n + 64, 0)
        self._write_fixed(nodes)
        self._write(nodes)

    # -- flush ---------------------------------------------------------------
    def flush(self) -> None:
        """Bring the rows of every dirty node up to date."""
        if not self.dirty:
            return
        nodes = self.nodes
        todo: list[Node] = []
        stack = list(self.dirty)
        self.dirty.clear()
        while stack:
            nd = stack.pop()
            if nd.row == _DEAD:
                continue
            if not self.has_row(nd):
                nd.row = len(nodes)
                nodes.append(nd)
            todo.append(nd)
            if not nd.is_leaf:
                # New nodes hang off dirty (or new) parents.
                for child in (nd.left, nd.right):
                    if not self.has_row(child):
                        stack.append(child)
        fresh = nodes[self.n:]
        if len(nodes) > len(self.count):
            self._resize(2 * len(nodes), self.n)
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
        rows = np.fromiter((nd.row for nd in nodes), dtype=np.intp, count=n)
        depth = np.fromiter((nd.depth for nd in nodes), dtype=np.int64, count=n)
        prefix = np.fromiter((nd.prefix for nd in nodes), dtype=_U64, count=n)
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
            (nd.is_leaf for nd in nodes), dtype=bool, count=n
        )
        self.left[rows] = -1
        self.right[rows] = -1

    def _write(self, nodes: list[Node]) -> None:
        """Columns the update path can change."""
        n = len(nodes)
        cfg = self.tree.config
        rows = np.fromiter((nd.row for nd in nodes), dtype=np.intp, count=n)
        self.count[rows] = np.fromiter(
            (nd.count for nd in nodes), dtype=np.int64, count=n
        )
        self.layer[rows] = np.fromiter(
            (nd.layer for nd in nodes), dtype=np.int8, count=n
        )
        meta_id = np.full(n, -1, dtype=np.intp)
        cycles = np.zeros(n)
        for i, nd in enumerate(nodes):
            m = nd.meta
            if m is not None:
                meta_id[i] = m.root.row
                if m.root is nd:
                    cycles[i] = m.cycles_per_node(cfg)
        self.meta_id[rows] = meta_id
        self.meta_cycles[rows] = cycles
        inner = [nd for nd in nodes if not nd.is_leaf]
        if inner:
            k = len(inner)
            rows = np.fromiter((nd.row for nd in inner), dtype=np.intp, count=k)
            self.left[rows] = np.fromiter(
                (nd.left.row for nd in inner), dtype=np.intp, count=k
            )
            self.right[rows] = np.fromiter(
                (nd.right.row for nd in inner), dtype=np.intp, count=k
            )


def node_arena(tree) -> NodeArena:
    """The tree's arena, flushed; built on the first vectorised query."""
    arena = tree._arena
    if arena is None:
        arena = tree._arena = NodeArena(tree)
    else:
        arena.flush()
    return arena


def check_arena(tree) -> None:
    """Assert the flushed arena equals one built from scratch.

    Compared over the rows of reachable nodes: every column, with the
    columns that hold rows (child links, meta handles) compared by the
    identity of the node they name.  ``tree.check_invariants`` calls
    this whenever an arena exists.
    """
    arena = node_arena(tree)
    live = subtree_nodes(tree.root)
    assert all(arena.has_row(nd) for nd in live), "live node without a row"
    assert arena.n - arena.dead == len(live), "arena live-row count drifted"
    assert arena.n <= 2 * len(live), "arena garbage exceeds its bound"
    rows = [nd.row for nd in live]
    # A fresh build rows the nodes 0..n-1 in ``live`` order; restored below.
    fresh = NodeArena(tree)
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
    nodes = arena.nodes
    parts = [nodes[i].pts for i in leaf_rows.tolist()]
    lens = np.fromiter(map(len, parts), dtype=np.intp, count=len(parts))
    row_pair = np.repeat(np.arange(len(parts), dtype=np.intp), lens)
    return np.concatenate(parts), row_pair, lens


# ======================================================================
# L0 routing (SEARCH step 1)
# ======================================================================
def route_through_l0_vec(tree, results) -> list[Task]:
    """Vectorized :func:`repro.core.search.route_through_l0`.

    Advances the whole query frontier one L0 level at a time, splitting
    the query-index array by the key bit at each node.  Traces, terminal
    outcomes, border tasks and all simulated charges are identical to
    the scalar walk.
    """
    from .search import TRACE_WORDS, _L0_PIM_CYCLES_PER_NODE
    from .push_pull import CPU_NODE_OPS

    sys = tree.system
    kb = tree.key_bits
    root = tree.root
    on_cpu = tree.l0_on_cpu
    n = len(results)
    keys = np.array([r.key for r in results], dtype=_U64)
    idx_all = np.arange(n)

    rlo, rhi = root.key_range(kb)
    ok = _in_range_mask(keys, rlo, rhi)
    for i in idx_all[~ok]:
        results[i].edge = (None, root)

    border: dict[int, Task] = {}
    if root.layer != Layer.L0:
        # Empty L0: the border sits at the root itself (no trace/charges).
        for i in idx_all[ok]:
            border[i] = Task(results[i].qid, root.meta, root)
    else:
        # Level-synchronous descent; paths memoised so each trace is one
        # extend() instead of per-node appends.
        paths: dict[int, list[Node]] = {id(root): [root]}
        frontier: list[tuple[Node, np.ndarray]] = [(root, idx_all[ok])]
        while frontier:
            nxt: list[tuple[Node, np.ndarray]] = []
            for node, idxs in frontier:
                path = paths[id(node)]
                if node.is_leaf:
                    for i in idxs:
                        res = results[i]
                        res.trace.extend(path)
                        res.leaf = node
                    continue
                shift = _U64(kb - node.depth - 1)
                bits = (keys[idxs] >> shift) & _U64(1)
                for side, child in ((0, node.left), (1, node.right)):
                    sub = idxs[bits == side]
                    if len(sub) == 0:
                        continue
                    clo, chi = child.key_range(kb)
                    okc = _in_range_mask(keys[sub], clo, chi)
                    for i in sub[~okc]:
                        res = results[i]
                        res.trace.extend(path)
                        res.edge = (node, child)
                    good = sub[okc]
                    if len(good) == 0:
                        continue
                    if child.layer != Layer.L0:
                        for i in good:
                            results[i].trace.extend(path)
                            border[i] = Task(results[i].qid, child.meta, child)
                    else:
                        paths[id(child)] = path + [child]
                        nxt.append((child, good))
            frontier = nxt

    # -- charges, replayed exactly as the scalar walk orders them -------
    if on_cpu:
        blocks = [
            ("pimzd", "l0", nd.nid) for res in results for nd in res.trace
        ]
        if blocks:
            sys.charge_cpu(CPU_NODE_OPS * len(blocks))
            sys.touch_cpu_blocks(blocks)
    else:
        salt = tree._l0_route_salt
        send_by: dict[int, float] = {}
        cyc_by: dict[int, float] = {}
        recv_by: dict[int, float] = {}
        # Aggregate per placed module; all three dicts share one key
        # sequence (first-appearance order), so a single mids array drives
        # the three array-native charges below — and, under a drop-prone
        # fault plan, the per-transfer RNG is consumed in that same order.
        for res in results:
            mid = sys.place(("l0q", salt, res.qid))
            send_by[mid] = send_by.get(mid, 0.0) + 2
            cyc_by[mid] = (
                cyc_by.get(mid, 0.0) + len(res.trace) * _L0_PIM_CYCLES_PER_NODE
            )
            recv_by[mid] = recv_by.get(mid, 0.0) + TRACE_WORDS
        n_mids = len(send_by)
        mids = np.fromiter(send_by.keys(), dtype=np.intp, count=n_mids)
        with sys.round():
            sys.send_array(
                mids, np.fromiter(send_by.values(), dtype=np.float64,
                                  count=n_mids))
            sys.charge_pim_array(
                mids, np.fromiter(cyc_by.values(), dtype=np.float64,
                                  count=n_mids))
            sys.recv_array(
                mids, np.fromiter(recv_by.values(), dtype=np.float64,
                                  count=n_mids))
    return [border[i] for i in sorted(border)]


# ======================================================================
# one BSP round as flat arrays
# ======================================================================
class _Round:
    """All pushed groups of one BSP round, flattened to per-task arrays.

    The task index ``t`` runs over the groups in the executor's
    ``by_meta`` order and, inside a group, in task order — sorting by
    ``t`` *is* sorting by (group, position), which is how the kernels
    restore the scalar result and emission order across groups.  Kernels
    carry their frontier as parallel ``(t, row)`` arrays, book cycles
    and result words per task, and :meth:`output` folds them per group.
    """

    __slots__ = ("arena", "tasks", "qids", "grp", "mid", "l1", "entry",
                 "out", "_cyc_t", "_cyc_w", "_recv")

    def __init__(self, tree, groups) -> None:
        self.arena = node_arena(tree)
        self.tasks = tasks = [t for _, ts in groups for t in ts]
        n_groups, n = len(groups), len(tasks)
        lens = [len(ts) for _, ts in groups]
        self.qids = [t.qid for t in tasks]
        self.grp = np.repeat(np.arange(n_groups), lens)
        # Locality (ExecContext.local on a module): an L1 task sees every
        # L1 node, any other task only its own meta's members.
        self.mid = np.repeat(
            np.fromiter((m.root.row for m, _ in groups), dtype=np.intp,
                        count=n_groups), lens)
        self.l1 = np.repeat(
            np.fromiter((m.layer == Layer.L1 for m, _ in groups), dtype=bool,
                        count=n_groups), lens)
        self.entry = np.fromiter((t.node.row for t in tasks), dtype=np.intp,
                                 count=n)
        self.out = RoundOutput(n_groups)
        self._cyc_t: list[np.ndarray] = []
        self._cyc_w: list[np.ndarray] = []
        self._recv = np.zeros(n)

    def visit_cycles(self, rows: np.ndarray) -> np.ndarray:
        a = self.arena
        return a.meta_cycles[a.meta_id[rows]]

    def local(self, t: np.ndarray, child: np.ndarray) -> np.ndarray:
        a = self.arena
        return np.where(self.l1[t], a.layer[child] == Layer.L1,
                        a.meta_id[child] == self.mid[t])

    def charge(self, t: np.ndarray, cycles: np.ndarray) -> None:
        """Book ``cycles[i]`` PIM cycles to task ``t[i]``."""
        self._cyc_t.append(t)
        self._cyc_w.append(cycles)

    def reply(self, t: np.ndarray, words) -> None:
        """Result words tasks ``t`` (each at most once) ship back."""
        self._recv[t] += words

    def emit(self, t, child, parent, payload, send_words) -> None:
        """Queue boundary tasks in the scalar emission order.

        The scalar handlers emit a non-local child when its *parent* is
        visited, left child before right.  Parents are visited in
        right-first pre-order, which sorts as ``(hi_incl DESC, depth
        ASC)``; the left child has the smaller ``key_lo``.
        """
        a = self.arena
        order = np.lexsort((a.key_lo[child], a.depth[parent],
                            ~a.hi_incl[parent], t))
        nodes, qids, emits = a.nodes, self.qids, self.out.emits
        t, child = t.tolist(), child.tolist()
        for i in order.tolist():
            node = nodes[child[i]]
            emits.append(Task(qids[t[i]], node.meta, node,
                              None if payload is None else payload[i],
                              send_words))

    def output(self) -> RoundOutput:
        out, n_groups = self.out, len(self.out.cycles)
        if self._cyc_t:
            out.cycles = np.bincount(
                self.grp[np.concatenate(self._cyc_t)],
                weights=np.concatenate(self._cyc_w), minlength=n_groups,
            ).tolist()
        out.recv = np.bincount(self.grp, weights=self._recv,
                               minlength=n_groups).tolist()
        return out


def _pos_segments(row_pos: np.ndarray):
    """Contiguous [start, end) ranges per position in a sorted pos array."""
    upos, first = np.unique(row_pos, return_index=True)
    ends = np.append(first[1:], len(row_pos))
    return upos, first, ends


# ======================================================================
# SEARCH round kernel
# ======================================================================
def make_search_round_kernel(tree, results):
    """Pointer-walk descent for a round's search tasks.

    SEARCH is pure pointer-chasing — it never tests a box or scans a
    leaf, so there is nothing for the arena to batch.  The kernel walks
    the pointers directly (scalar-speed), group by group, and aggregates
    the charges per group, which is counter-exact.
    """
    from .search import TRACE_WORDS

    kb = tree.key_bits

    def kernel(groups) -> RoundOutput:
        cfg = tree.config
        out = RoundOutput(len(groups))
        cyc_of: dict[MetaNode, float] = {}
        for gi, (meta, ts) in enumerate(groups):
            l1_rule = meta.layer == Layer.L1
            cycles = 0.0
            recv = 0.0
            for t in ts:
                res = results[t.qid]
                node = t.node
                while True:
                    m = node.meta
                    c = cyc_of.get(m)
                    if c is None:
                        c = cyc_of[m] = float(m.cycles_per_node(cfg))
                    cycles += c
                    res.trace.append(node)
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
                recv += TRACE_WORDS
            out.cycles[gi] = cycles
            out.recv[gi] = recv
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
    cycles and queueing boundary tasks as the scalar handlers do.

    Returns ``(rows, row_t, dd)`` for the reached leaves in scalar
    leaf-scan order (stacked points, owning task, coarse distance to the
    task's query), or ``None`` if no leaf was reached.
    """
    a = rnd.arena
    dims = Q.shape[1]
    box_cyc = coarse.pim_cycles_per_dim * dims
    linf_cyc = LINF.pim_cycles_per_dim * dims
    scan_cyc = 6 + coarse.pim_cycles_per_dim * dims  # PIM_POINT_BASE_CYCLES
    linf_scan_cyc = 6 + LINF.pim_cycles_per_dim * dims
    use_linf = np.isfinite(linf_bound)
    any_linf = bool(use_linf.any())
    t = np.arange(len(Q), dtype=np.intp)
    row = rnd.entry
    leaf_t: list[np.ndarray] = []
    leaf_r: list[np.ndarray] = []
    em_t: list[np.ndarray] = []
    em_c: list[np.ndarray] = []
    em_p: list[np.ndarray] = []
    while len(row):
        rnd.charge(t, rnd.visit_cycles(row) + box_cyc)
        d = _dist_point_boxes(Q[t], a.lo[row], a.hi[row], coarse)
        keep = d <= bound[t]
        t, row = t[keep], row[keep]
        if any_linf:
            li = np.flatnonzero(use_linf[t])
            if len(li):
                rnd.charge(t[li], np.full(len(li), linf_cyc))
                dl = _dist_point_boxes(Q[t[li]], a.lo[row[li]], a.hi[row[li]],
                                       LINF)
                drop = li[dl > linf_bound[t[li]]]
                if len(drop):
                    km = np.ones(len(row), dtype=bool)
                    km[drop] = False
                    t, row = t[km], row[km]
        if not len(row):
            break
        leaf = a.is_leaf[row]
        if leaf.any():
            lt, lr = t[leaf], row[leaf]
            rnd.charge(lt, a.count[lr] * scan_cyc)
            if any_linf:
                ls = use_linf[lt]
                if ls.any():
                    rnd.charge(lt[ls], a.count[lr[ls]] * linf_scan_cyc)
            leaf_t.append(lt)
            leaf_r.append(lr)
            inner = ~leaf
            t, row = t[inner], row[inner]
            if not len(row):
                break
        child = np.concatenate([a.left[row], a.right[row]])
        ct = np.concatenate([t, t])
        loc = rnd.local(ct, child)
        if not loc.all():
            ext = ~loc
            em_t.append(ct[ext])
            em_c.append(child[ext])
            em_p.append(np.concatenate([row, row])[ext])
        t, row = ct[loc], child[loc]

    if em_t:
        rnd.emit(np.concatenate(em_t), np.concatenate(em_c),
                 np.concatenate(em_p), None, dims + 3)
    if not leaf_t:
        return None
    lr = np.concatenate(leaf_r)
    lt = np.concatenate(leaf_t)
    # Scalar leaf-scan order: tasks in (group, position) order, leaves per
    # task in right-first DFS order = descending key_lo (disjoint leaves).
    order = np.lexsort((~a.key_lo[lr], lt))
    rows, row_pair, _ = _gather_rows(a, lr[order])
    row_t = lt[order][row_pair]
    return rows, row_t, _dist_rows(rows, Q[row_t], coarse)


def make_candidate_round_kernel(tree, states, coarse: Metric, k: int):
    """Fused distance-matrix evaluation for kNN candidate search."""
    dims = tree.dims
    Qall = np.stack([st.q for st in states])

    def kernel(groups) -> RoundOutput:
        rnd = _Round(tree, groups)
        qids = rnd.qids
        # The round-start radius is fixed for the whole round, so batching
        # across groups cannot change what any task prunes.
        radius = np.array([states[q].radius() for q in qids])
        hit = _ball_descent(rnd, Qall[qids], radius,
                            np.full(len(qids), np.inf), coarse)
        if hit is not None:
            rows, row_t, dd = hit
            upos, first, ends = _pos_segments(row_t)
            seg = ends - first
            rnd.charge(upos, seg * 6)
            rnd.reply(upos, np.minimum(seg, k) * (dims + 1))
            results = rnd.out.results
            for p, s, e in zip(upos.tolist(), first.tolist(), ends.tolist()):
                dcat = dd[s:e]
                sel = np.argsort(dcat, kind="stable")[:k]
                results.append((qids[p], ("cand", dcat[sel], rows[s:e][sel])))
        return rnd.output()

    return kernel


def make_fetch_round_kernel(tree, states, coarse: Metric, bounds, exact_radii):
    """Fused ball-fetch for kNN step 4 (anchored bound + ℓ∞ filter)."""
    dims = tree.dims
    Qall = np.stack([st.q for st in states])
    bounds = np.asarray(bounds, dtype=np.float64)
    # As in the scalar handler: no ℓ∞ filter under a coarse ℓ2.
    exact_radii = (
        np.asarray(exact_radii, dtype=np.float64)
        if coarse.name != "l2"
        else np.full(len(bounds), np.inf)
    )

    def kernel(groups) -> RoundOutput:
        rnd = _Round(tree, groups)
        qids = rnd.qids
        Q, bnd, rex = Qall[qids], bounds[qids], exact_radii[qids]
        hit = _ball_descent(rnd, Q, bnd, rex, coarse)
        if hit is not None:
            rows, row_t, dd = hit
            mask = dd <= bnd[row_t]
            row_rex = rex[row_t]
            if np.isfinite(row_rex).any():
                mask &= _dist_rows(rows, Q[row_t], LINF) <= row_rex
            _reply_points(rnd, rows, row_t, mask, dims)
        return rnd.output()

    return kernel


def _reply_points(rnd: _Round, rows, row_t, mask, dims: int) -> None:
    """Per task (``row_t`` sorted), ship back the rows ``mask`` selects."""
    upos, first, ends = _pos_segments(row_t)
    n_sel = np.add.reduceat(mask.astype(np.intp), first)
    rnd.reply(upos, n_sel * dims)
    qids, results = rnd.qids, rnd.out.results
    for p, s, e, n in zip(upos.tolist(), first.tolist(), ends.tolist(),
                          n_sel.tolist()):
        if n:
            results.append((qids[p], ("pts", rows[s:e][mask[s:e]])))


# ======================================================================
# range-query round kernel
# ======================================================================
def make_range_round_kernel(tree, boxes, *, fetch: bool):
    """Mask-based range filtering for a round's box-query tasks."""
    Lo = np.stack([b.lo for b in boxes])
    Hi = np.stack([b.hi for b in boxes])

    def kernel(groups) -> RoundOutput:
        rnd = _Round(tree, groups)
        skip = np.array([t.payload == "all" for t in rnd.tasks], dtype=bool)
        _range_descent(rnd, Lo[rnd.qids], Hi[rnd.qids], skip, fetch)
        return rnd.output()

    return kernel


def _range_descent(rnd: _Round, Lo, Hi, skip, fetch: bool) -> None:
    """Box count/fetch over a whole round; ``skip[t]`` marks tasks whose
    entry subtree is already known to be contained (``"all"`` mode)."""
    a = rnd.arena
    n_tasks, dims = Lo.shape
    scan_cyc = 6 + 2 * dims  # PIM_POINT_BASE + _SCAN_METRIC per dim
    t = np.arange(n_tasks, dtype=np.intp)
    row = rnd.entry
    tot_t: list[np.ndarray] = []
    tot_v: list[np.ndarray] = []
    whole_t: list[np.ndarray] = []
    whole_r: list[np.ndarray] = []
    part_t: list[np.ndarray] = []
    part_r: list[np.ndarray] = []
    em_t: list[np.ndarray] = []
    em_c: list[np.ndarray] = []
    em_p: list[np.ndarray] = []
    em_s: list[np.ndarray] = []
    while len(row):
        tested = ~skip
        # Node visit, plus _PIM_BOX_TEST_CYCLES where the box is tested.
        rnd.charge(t, rnd.visit_cycles(row) + 6.0 * tested)
        nlo, nhi = a.lo[row], a.hi[row]
        ql, qh = Lo[t], Hi[t]
        inter = (nlo <= qh).all(axis=1) & (ql <= nhi).all(axis=1)
        contained = (ql <= nlo).all(axis=1) & (nhi <= qh).all(axis=1)
        cont = skip | contained
        part = tested & inter & ~contained
        leaf = a.is_leaf[row]
        if not fetch:
            if cont.any():
                tot_t.append(t[cont])
                tot_v.append(a.count[row[cont]])
            exp_masks = ((part & ~leaf, False),)
        else:
            wl = cont & leaf
            if wl.any():
                whole_t.append(t[wl])
                whole_r.append(row[wl])
            exp_masks = ((cont & ~leaf, True), (part & ~leaf, False))
        pl = part & leaf
        if pl.any():
            rnd.charge(t[pl], a.count[row[pl]] * scan_cyc)
            part_t.append(t[pl])
            part_r.append(row[pl])
        cr: list[np.ndarray] = []
        ct: list[np.ndarray] = []
        cs: list[np.ndarray] = []
        cp: list[np.ndarray] = []
        for msk, flag in exp_masks:
            if not msk.any():
                continue
            ri, ti = row[msk], t[msk]
            cr += (a.left[ri], a.right[ri])
            ct += (ti, ti)
            cs.append(np.full(2 * len(ri), flag, dtype=bool))
            cp += (ri, ri)
        if not cr:
            break
        row = np.concatenate(cr)
        t = np.concatenate(ct)
        skip = np.concatenate(cs)
        loc = rnd.local(t, row)
        if not loc.all():
            ext = ~loc
            em_t.append(t[ext])
            em_c.append(row[ext])
            em_p.append(np.concatenate(cp)[ext])
            em_s.append(skip[ext])
            t, row, skip = t[loc], row[loc], skip[loc]

    if em_t:
        rnd.emit(
            np.concatenate(em_t), np.concatenate(em_c), np.concatenate(em_p),
            ["all" if s else "test" for s in np.concatenate(em_s).tolist()],
            2 * dims + 2,
        )

    if not fetch:
        if part_r:
            lt = np.concatenate(part_t)
            rows, row_pair, _ = _gather_rows(a, np.concatenate(part_r))
            row_t = lt[row_pair]
            inside = (rows >= Lo[row_t]).all(axis=1) & (
                rows <= Hi[row_t]
            ).all(axis=1)
            tot_t.append(row_t[inside])
            tot_v.append(np.ones(int(inside.sum()), dtype=np.int64))
        if tot_t:
            # Integer-valued weights: the float64 sums are exact.
            totals = np.bincount(np.concatenate(tot_t),
                                 weights=np.concatenate(tot_v),
                                 minlength=n_tasks).astype(np.int64)
            hit = np.flatnonzero(totals)
            rnd.reply(hit, 1)
            qids = rnd.qids
            rnd.out.results.extend(
                (qids[p], ("count", n))
                for p, n in zip(hit.tolist(), totals[hit].tolist())
            )
        return

    if not (whole_r or part_r):
        return
    lr = np.concatenate(whole_r + part_r)
    lt = np.concatenate(whole_t + part_t)
    whole_flag = np.zeros(len(lr), dtype=bool)
    whole_flag[:sum(len(x) for x in whole_r)] = True
    order = np.lexsort((~a.key_lo[lr], lt))
    lr, lt, whole_flag = lr[order], lt[order], whole_flag[order]
    rows, row_pair, lens = _gather_rows(a, lr)
    row_t = lt[row_pair]
    # Contained leaves skip the membership test in the scalar path, so
    # their rows are taken wholesale (no float compare involved).
    inside = np.repeat(whole_flag, lens)
    pm = ~inside
    if pm.any():
        inside[pm] = (rows[pm] >= Lo[row_t[pm]]).all(axis=1) & (
            rows[pm] <= Hi[row_t[pm]]
        ).all(axis=1)
    _reply_points(rnd, rows, row_t, inside, dims)


# ======================================================================
# host-side L0 seeding for range queries
# ======================================================================
def seed_l0_boxes(tree, boxes, tasks, *, fetch: bool, counts, chunks_list) -> None:
    """Vectorized ``_seed_l0`` over the whole box batch.

    Precomputes the (box × L0-node) containment/intersection matrices in
    one broadcast over the arena's L0 rows, then replays the scalar
    per-box DFS using the matrix — charges are aggregated and the LLC
    touch sequence is replayed in the exact scalar order.
    """
    sys = tree.system
    root = tree.root
    dims = tree.dims
    arena = node_arena(tree)
    l0 = np.flatnonzero(arena.layer[:arena.n] == Layer.L0)
    if len(l0):
        col = np.empty(arena.n, dtype=np.intp)
        col[l0] = np.arange(len(l0))
        NLo, NHi = arena.lo[l0], arena.hi[l0]
        QLo = np.stack([b.lo for b in boxes]) if boxes else np.empty((0, dims))
        QHi = np.stack([b.hi for b in boxes]) if boxes else np.empty((0, dims))
        inter = (NLo[None, :, :] <= QHi[:, None, :]).all(-1) & (
            QLo[:, None, :] <= NHi[None, :, :]
        ).all(-1)
        contd = (QLo[:, None, :] <= NLo[None, :, :]).all(-1) & (
            NHi[None, :, :] <= QHi[:, None, :]
        ).all(-1)
    touches: list[tuple] = []
    cpu_ops = 0
    for qid, box in enumerate(boxes):
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, skip = stack.pop()
            if node.layer != Layer.L0:
                tasks.append(
                    Task(qid, node.meta, node, "all" if skip else "test",
                         2 * dims + 2)
                )
                continue
            cpu_ops += 4  # _CPU_BOX_TEST_OPS
            touches.append(("pimzd", "l0", node.nid))
            j = col[node.row]
            if skip or contd[qid, j]:
                if not fetch:
                    counts[qid] += node.count
                    continue
                if node.is_leaf:
                    chunks_list[qid].append(node.pts)
                    continue
                stack.append((node.left, True))
                stack.append((node.right, True))
                continue
            if not inter[qid, j]:
                continue
            if node.is_leaf:
                mask = box.contains_point(node.pts)
                cpu_ops += node.count * 2 * dims
                if fetch:
                    if mask.any():
                        chunks_list[qid].append(node.pts[mask])
                else:
                    counts[qid] += int(np.count_nonzero(mask))
                continue
            stack.append((node.left, False))
            stack.append((node.right, False))
    if cpu_ops:
        sys.charge_cpu(cpu_ops)
    if touches:
        sys.touch_cpu_blocks(touches)


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
