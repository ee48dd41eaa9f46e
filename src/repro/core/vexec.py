"""Vectorized batch-execution kernels for the query/update hot paths.

The scalar operation modules (:mod:`.search`, :mod:`.knn`,
:mod:`.range_query`, :mod:`.update`) walk the pointer tree one
(query, node) pair at a time.  This module provides NumPy
frontier-at-a-time equivalents that the push-pull executor dispatches
when ``config.exec_mode == "vectorized"``:

* :class:`RegionTable` — a flattened per-meta view of the locally
  traversable subtree (box corners, child indices, counts and per-node
  cycles as parallel arrays), cached until the next update batch.  It
  is the only derived structure: leaf payloads are read live from
  ``node.pts`` when a kernel gathers them, so nothing mirrors them;
* :func:`route_through_l0_vec` — batched L0 routing (whole query
  frontiers advance one tree level per step instead of per-point
  ``step()`` calls);
* :func:`make_search_group_kernel` — one pointer-walk SEARCH kernel
  (SEARCH never tests a box, so it uses no table);
* :func:`make_candidate_group_kernel` / :func:`make_fetch_group_kernel`
  — the two kNN steps, thin wrappers over one shared ball descent
  (:func:`_ball_descent`: coarse box-distance prune, optional ℓ∞ prune,
  one stacked row-distance evaluation per task group);
* :func:`make_range_group_kernel` — box-mask range count/fetch for
  whole task groups at once;
* :func:`seed_l0_boxes` — batched host-side L0 seeding for range queries;
* :func:`plan_leaf_deletions` — ``np.searchsorted``-based delete
  partitioning.

Counter-exactness contract
--------------------------
Every kernel produces *byte-identical* ``PIMStats`` to the scalar
reference path.  This works because

1. every per-element charge in the scalar path is an integer number of
   cycles/ops/words, so float64 sums are exact and order-independent —
   aggregating them per (phase, module, round) is lossless;
2. the BSP round structure (which task reaches which meta-node in which
   round) is preserved exactly: emitted tasks are re-ordered into the
   scalar emission order before entering the next frontier;
3. LLC touch *sequences* (order-sensitive under LRU eviction) are
   replayed in the exact scalar order via ``touch_cpu_blocks``;
4. all floating-point result values are computed by the same NumPy
   elementwise/row-reduction formulas the scalar path uses, so they
   match bitwise, and concatenation follows the scalar right-child-first
   DFS order: disjoint subtrees are visited in descending ``key_lo``
   order, which ``np.lexsort`` on ``(pos, ~key_lo)`` reconstructs.
"""

from __future__ import annotations

import numpy as np

from .geometry import LINF, Box, Metric
from .node import Layer, Node
from .push_pull import Task

__all__ = [
    "RegionTable",
    "region_table",
    "invalidate_exec_caches",
    "ensure_node_boxes",
    "route_through_l0_vec",
    "make_search_group_kernel",
    "make_candidate_group_kernel",
    "make_fetch_group_kernel",
    "make_range_group_kernel",
    "seed_l0_boxes",
    "plan_leaf_deletions",
]

_U64 = np.uint64
_FULL = 1 << 64


# ======================================================================
# batched node boxes
# ======================================================================
def ensure_node_boxes(tree, nodes) -> None:
    """Fill ``node.box`` for every node lacking one, in a single batch.

    Bitwise identical to the lazy scalar ``tree.node_box`` fills (see
    ``MortonCodec.prefix_box_batch``), so both exec modes see the same
    cached geometry.
    """
    missing = [n for n in nodes if n.box is None]
    if not missing:
        return
    lo, hi = tree.codec.prefix_box_batch(
        [n.prefix for n in missing], [n.depth for n in missing]
    )
    for i, n in enumerate(missing):
        n.box = Box(lo[i].copy(), hi[i].copy())


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
# flattened per-meta region tables
# ======================================================================
class RegionTable:
    """SoA view of the subtree a pushed meta-node may traverse locally.

    Holds, as parallel arrays indexed by a *local node index*: box
    corners, exact counts, per-visit PIM cycles, child indices and
    Morton key ranges.  Leaf payloads are not copied: the kernels read
    ``nodes[i].pts`` when they gather.  Nodes where the locality rule
    fails (the push-pull boundary) are included as *external* terminals
    so the kernels can emit follow-up tasks for them.

    Tables are cached on the tree and invalidated wholesale by
    :func:`invalidate_exec_caches` at the end of every update batch,
    after its mutations — queries never mutate the tree, so between
    updates the arrays stay valid.
    """

    __slots__ = (
        "tree", "meta", "rule_l1", "nodes", "idx_of", "_ext", "_dirty",
        "lo", "hi", "count", "cycles", "is_leaf", "external", "left",
        "right", "key_lo", "hi_incl", "depth",
    )

    def __init__(self, tree, meta) -> None:
        self.tree = tree
        self.meta = meta
        self.rule_l1 = meta.layer == Layer.L1
        self.nodes: list[Node] = []
        self.idx_of: dict[int, int] = {}
        self._ext: list[bool] = []
        self._dirty = True
        self._add_region(meta.root)

    def _local(self, node: Node) -> bool:
        if self.rule_l1:
            return node.layer == Layer.L1
        return node.meta is self.meta

    def _add_region(self, root: Node) -> None:
        """Register ``root``'s locally-traversable closure."""
        stack = [root]
        while stack:
            nd = stack.pop()
            if id(nd) in self.idx_of:
                continue
            self.idx_of[id(nd)] = len(self.nodes)
            self.nodes.append(nd)
            self._ext.append(False)
            if nd.is_leaf:
                continue
            for child in (nd.left, nd.right):
                if self._local(child):
                    stack.append(child)
                elif id(child) not in self.idx_of:
                    self.idx_of[id(child)] = len(self.nodes)
                    self.nodes.append(child)
                    self._ext.append(True)
        self._dirty = True

    def entry(self, node: Node) -> int:
        """Local index of a task's entry node, extending the table if the
        chunk was transiently disconnected."""
        idx = self.idx_of.get(id(node))
        if idx is None:
            self._add_region(node)
            idx = self.idx_of[id(node)]
        return idx

    def refresh(self) -> None:
        """(Re)build the parallel arrays after region additions."""
        if not self._dirty:
            return
        self._dirty = False
        tree = self.tree
        kb = tree.key_bits
        cfg = tree.config
        nodes = self.nodes
        ext_l = self._ext
        n = len(nodes)
        ext = np.array(ext_l, dtype=bool)
        depth = np.fromiter((nd.depth for nd in nodes), dtype=np.int64, count=n)
        prefix = np.fromiter((nd.prefix for nd in nodes), dtype=_U64, count=n)
        count = np.fromiter((nd.count for nd in nodes), dtype=np.int64, count=n)
        is_leaf = np.fromiter((nd.is_leaf for nd in nodes), dtype=bool, count=n)
        # key_lo/hi_incl: guard the depth-0 row (a 64-bit shift is UB).
        sh = np.where(depth > 0, kb - depth, 0).astype(_U64)
        key_lo = np.where(depth > 0, prefix << sh, _U64(0))
        hi_incl = np.where(
            depth > 0,
            key_lo + ((_U64(1) << sh) - _U64(1)),
            _U64(0xFFFFFFFFFFFFFFFF),
        )
        # Per-visit cycles are constant per owning meta; memoise the lookup.
        cyc_of: dict[int, float] = {}

        def _cyc(nd: Node, e: bool) -> float:
            if e:
                return 0.0
            m = nd.meta
            c = cyc_of.get(id(m))
            if c is None:
                c = float(m.cycles_per_node(cfg)) if m is not None else 12.0
                cyc_of[id(m)] = c
            return c

        cycles = np.fromiter(
            (_cyc(nd, e) for nd, e in zip(nodes, ext_l)), dtype=np.float64,
            count=n,
        )
        left = np.full(n, -1, dtype=np.intp)
        right = np.full(n, -1, dtype=np.intp)
        idx_of = self.idx_of
        ii = np.flatnonzero(~ext & ~is_leaf)
        if len(ii):
            left[ii] = [idx_of[id(nodes[i].left)] for i in ii]
            right[ii] = [idx_of[id(nodes[i].right)] for i in ii]
        ii = np.flatnonzero(~ext)
        local = [nodes[i] for i in ii]
        ensure_node_boxes(tree, local)
        lo = np.zeros((n, tree.dims))
        hi = np.zeros((n, tree.dims))
        if local:
            lo[ii] = [nd.box.lo for nd in local]
            hi[ii] = [nd.box.hi for nd in local]
        self.lo, self.hi = lo, hi
        self.count, self.cycles = count, cycles
        self.is_leaf, self.external = is_leaf, ext
        self.left, self.right = left, right
        self.key_lo, self.hi_incl, self.depth = key_lo, hi_incl, depth


def region_table(tree, meta) -> RegionTable:
    tabs = tree._region_tables
    tab = tabs.get(meta)
    if tab is None:
        tab = RegionTable(tree, meta)
        tabs[meta] = tab
    return tab


def invalidate_exec_caches(tree) -> None:
    """Drop cached region tables; called at the end of every update
    batch, after its mutations."""
    tree._region_tables = {}


def _entries(tab: RegionTable, ts) -> np.ndarray:
    idxs = [tab.entry(t.node) for t in ts]
    tab.refresh()
    return np.array(idxs, dtype=np.intp)


def _gather_rows(tab: RegionTable, lnidx: np.ndarray):
    """Stack the payload rows of many (at least one) leaves.

    Returns ``(rows, row_pair, lens)``: ``rows`` stacks the leaves'
    points in order, ``row_pair`` maps each row to its index in
    ``lnidx`` and ``lens`` gives the per-leaf row counts.
    """
    parts = [tab.nodes[i].pts for i in lnidx]
    lens = np.fromiter(map(len, parts), dtype=np.intp, count=len(parts))
    row_pair = np.repeat(np.arange(len(parts), dtype=np.intp), lens)
    return np.concatenate(parts), row_pair, lens


def _pos_segments(row_pos: np.ndarray):
    """Contiguous [start, end) ranges per position in a sorted pos array."""
    upos, first = np.unique(row_pos, return_index=True)
    ends = np.append(first[1:], len(row_pos))
    return upos, first, ends


def _emit_key(tab: RegionTable, parent: int, child: int) -> tuple:
    """Sort key reproducing the scalar DFS emission order within a task.

    The scalar handlers emit a non-local child when its *parent* is
    visited, left child before right.  Parents are visited in right-first
    pre-order, which sorts as ``(hi_incl DESC, depth ASC)``; the left
    child has the smaller ``key_lo``.
    """
    return (
        -int(tab.hi_incl[parent]),
        int(tab.depth[parent]),
        int(tab.key_lo[child]),
    )


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
# SEARCH group kernel
# ======================================================================
def make_search_group_kernel(tree, results):
    """Pointer-walk descent for one meta's search tasks.

    SEARCH is pure pointer-chasing — it never tests a box or scans a
    leaf, so there is nothing for a region table to batch.  The kernel
    walks the pointers directly (scalar-speed) and aggregates the
    charges per group, which is counter-exact.
    """
    from .search import TRACE_WORDS

    kb = tree.key_bits

    def kernel(meta, ts, g) -> None:
        cfg = tree.config
        l1_rule = meta.layer == Layer.L1
        cyc_of: dict[int, float] = {}
        for p, t in enumerate(ts):
            res = results[t.qid]
            node = t.node
            while True:
                m = node.meta
                c = cyc_of.get(id(m))
                if c is None:
                    c = float(m.cycles_per_node(cfg)) if m is not None else 12.0
                    cyc_of[id(m)] = c
                g.cycles += c
                res.trace.append(node)
                if node.is_leaf:
                    g.recv += TRACE_WORDS
                    res.leaf = node
                    break
                child = node.child_for_key(res.key, kb)
                lo, hi = child.key_range(kb)
                if not lo <= res.key < hi:
                    g.recv += TRACE_WORDS
                    res.edge = (node, child)
                    break
                loc = child.layer == Layer.L1 if l1_rule else child.meta is meta
                if loc:
                    node = child
                    continue
                g.recv += TRACE_WORDS
                g.emit(p, Task(t.qid, child.meta, child))
                break

    return kernel


# ======================================================================
# kNN group kernels
# ======================================================================
def _ball_descent(tree, meta, ts, g, Q, bound, linf_bound, coarse: Metric):
    """Shared kNN descent: visit every node of ``meta``'s region whose
    box lies within ``bound[p]`` of query ``p`` under ``coarse`` — and,
    where ``linf_bound[p]`` is finite, also within that ℓ∞ distance —
    charging ``g`` and emitting boundary tasks as the scalar handlers do.

    Returns ``(rows, row_pos, dd)`` for the reached leaves in scalar
    leaf-scan order (stacked points, owning task position, coarse
    distance to the task's query), or ``None`` if no leaf was reached.
    """
    dims = tree.dims
    box_cyc = coarse.pim_cycles_per_dim * dims
    linf_cyc = LINF.pim_cycles_per_dim * dims
    scan_cyc = 6 + coarse.pim_cycles_per_dim * dims  # PIM_POINT_BASE_CYCLES
    linf_scan_cyc = 6 + LINF.pim_cycles_per_dim * dims
    tab = region_table(tree, meta)
    nidx = _entries(tab, ts)
    use_linf = np.isfinite(linf_bound)
    pos = np.arange(len(ts), dtype=np.intp)
    lp_n: list[np.ndarray] = []
    lp_p: list[np.ndarray] = []
    while len(nidx):
        g.cycles += float(tab.cycles[nidx].sum()) + box_cyc * len(nidx)
        d = _dist_point_boxes(Q[pos], tab.lo[nidx], tab.hi[nidx], coarse)
        keep = d <= bound[pos]
        nidx, pos = nidx[keep], pos[keep]
        lmask = use_linf[pos]
        if lmask.any():
            g.cycles += linf_cyc * int(lmask.sum())
            li = np.flatnonzero(lmask)
            dl = _dist_point_boxes(
                Q[pos[li]], tab.lo[nidx[li]], tab.hi[nidx[li]], LINF
            )
            drop = li[dl > linf_bound[pos[li]]]
            if len(drop):
                km = np.ones(len(nidx), dtype=bool)
                km[drop] = False
                nidx, pos = nidx[km], pos[km]
        if not len(nidx):
            break
        leaf = tab.is_leaf[nidx]
        if leaf.any():
            ln, lpp = nidx[leaf], pos[leaf]
            g.cycles += float(tab.count[ln].sum()) * scan_cyc
            lscan = use_linf[lpp]
            if lscan.any():
                g.cycles += float(tab.count[ln[lscan]].sum()) * linf_scan_cyc
            lp_n.append(ln)
            lp_p.append(lpp)
        inner = ~leaf
        ni, pi = nidx[inner], pos[inner]
        child = np.concatenate([tab.left[ni], tab.right[ni]])
        cpos = np.concatenate([pi, pi])
        cpar = np.concatenate([ni, ni])
        ext = tab.external[child]
        if ext.any():
            for p, ch, pa in zip(cpos[ext], child[ext], cpar[ext]):
                node = tab.nodes[ch]
                g.emit(p, Task(ts[p].qid, node.meta, node, None, dims + 3),
                       _emit_key(tab, pa, ch))
            ext = ~ext
            child, cpos = child[ext], cpos[ext]
        nidx, pos = child, cpos

    if not lp_n:
        return None
    ln = np.concatenate(lp_n)
    lp = np.concatenate(lp_p)
    # Scalar leaf-scan order: tasks in group order, leaves per task in
    # right-first DFS order = descending key_lo (disjoint leaves).
    order = np.lexsort((~tab.key_lo[ln], lp))
    rows, row_pair, _ = _gather_rows(tab, ln[order])
    row_pos = lp[order][row_pair]
    return rows, row_pos, _dist_rows(rows, Q[row_pos], coarse)


def make_candidate_group_kernel(tree, states, coarse: Metric, k: int):
    """Fused distance-matrix evaluation for kNN candidate search."""
    dims = tree.dims

    def kernel(meta, ts, g) -> None:
        Q = np.stack([states[t.qid].q for t in ts])
        radius = np.array([states[t.qid].radius() for t in ts])
        hit = _ball_descent(tree, meta, ts, g, Q, radius,
                            np.full(len(ts), np.inf), coarse)
        if hit is None:
            return
        rows, row_pos, dd = hit
        for _, a, b in zip(*_pos_segments(row_pos)):
            p = int(row_pos[a])
            dcat = dd[a:b]
            sel = np.argsort(dcat, kind="stable")[: min(k, len(dcat))]
            g.cycles += len(dcat) * 6
            g.recv += len(sel) * (dims + 1)
            g.result(p, ("cand", dcat[sel], rows[a:b][sel]))

    return kernel


def make_fetch_group_kernel(tree, states, coarse: Metric, bounds, exact_radii):
    """Fused ball-fetch for kNN step 4 (anchored bound + ℓ∞ filter)."""
    dims = tree.dims

    def kernel(meta, ts, g) -> None:
        Q = np.stack([states[t.qid].q for t in ts])
        bnd = np.array([bounds[t.qid] for t in ts])
        # As in the scalar handler: no ℓ∞ filter under a coarse ℓ2.
        rex = (
            np.array([exact_radii[t.qid] for t in ts])
            if coarse.name != "l2"
            else np.full(len(ts), np.inf)
        )
        hit = _ball_descent(tree, meta, ts, g, Q, bnd, rex, coarse)
        if hit is None:
            return
        rows, row_pos, dd = hit
        mask = dd <= bnd[row_pos]
        row_rex = rex[row_pos]
        if np.isfinite(row_rex).any():
            mask &= _dist_rows(rows, Q[row_pos], LINF) <= row_rex
        for _, a, b in zip(*_pos_segments(row_pos)):
            p = int(row_pos[a])
            sel = mask[a:b]
            n_sel = int(sel.sum())
            if n_sel:
                g.recv += n_sel * dims
                g.result(p, ("pts", rows[a:b][sel]))

    return kernel


# ======================================================================
# range-query group kernel
# ======================================================================
def make_range_group_kernel(tree, boxes, *, fetch: bool):
    """Mask-based range filtering for one meta's box-query tasks."""
    dims = tree.dims
    scan_cyc = 6 + 2 * dims  # PIM_POINT_BASE + _SCAN_METRIC per dim

    def kernel(meta, ts, g) -> None:
        tab = region_table(tree, meta)
        nidx = _entries(tab, ts)
        Lo = np.stack([boxes[t.qid].lo for t in ts])
        Hi = np.stack([boxes[t.qid].hi for t in ts])
        pos = np.arange(len(ts), dtype=np.intp)
        skip = np.array([t.payload == "all" for t in ts], dtype=bool)
        totals = np.zeros(len(ts), dtype=np.int64)
        whole_n: list[np.ndarray] = []
        whole_p: list[np.ndarray] = []
        part_n: list[np.ndarray] = []
        part_p: list[np.ndarray] = []
        while len(nidx):
            g.cycles += float(tab.cycles[nidx].sum())
            tested = ~skip
            g.cycles += 6.0 * int(tested.sum())  # _PIM_BOX_TEST_CYCLES
            nlo, nhi = tab.lo[nidx], tab.hi[nidx]
            ql, qh = Lo[pos], Hi[pos]
            inter = (nlo <= qh).all(axis=1) & (ql <= nhi).all(axis=1)
            contained = (ql <= nlo).all(axis=1) & (nhi <= qh).all(axis=1)
            cont = skip | contained
            part = tested & inter & ~contained
            leaf = tab.is_leaf[nidx]
            if not fetch:
                cm = cont
                if cm.any():
                    np.add.at(totals, pos[cm], tab.count[nidx[cm]])
                exp_masks = ((part & ~leaf, False),)
            else:
                wl = cont & leaf
                if wl.any():
                    whole_n.append(nidx[wl])
                    whole_p.append(pos[wl])
                exp_masks = ((cont & ~leaf, True), (part & ~leaf, False))
            pl = part & leaf
            if pl.any():
                ln = nidx[pl]
                g.cycles += float(tab.count[ln].sum()) * scan_cyc
                part_n.append(ln)
                part_p.append(pos[pl])
            cn: list[np.ndarray] = []
            cp: list[np.ndarray] = []
            cs: list[np.ndarray] = []
            cr: list[np.ndarray] = []
            for msk, flag in exp_masks:
                if not msk.any():
                    continue
                ni, pi = nidx[msk], pos[msk]
                cn.append(tab.left[ni])
                cn.append(tab.right[ni])
                cp.append(pi)
                cp.append(pi)
                cs.append(np.full(2 * len(ni), flag, dtype=bool))
                cr.append(ni)
                cr.append(ni)
            if not cn:
                break
            nidx = np.concatenate(cn)
            pos = np.concatenate(cp)
            skip = np.concatenate(cs)
            par = np.concatenate(cr)
            ext = tab.external[nidx]
            if ext.any():
                for p, ch, sk, pa in zip(pos[ext], nidx[ext], skip[ext],
                                         par[ext]):
                    node = tab.nodes[ch]
                    g.emit(
                        p,
                        Task(ts[p].qid, node.meta, node,
                             "all" if sk else "test", 2 * dims + 2),
                        _emit_key(tab, pa, ch),
                    )
                ext = ~ext
                nidx, pos, skip = nidx[ext], pos[ext], skip[ext]

        if not fetch:
            if part_n:
                ln = np.concatenate(part_n)
                lp = np.concatenate(part_p)
                rows, row_pair, _ = _gather_rows(tab, ln)
                row_pos = lp[row_pair]
                inside = (rows >= Lo[row_pos]).all(axis=1) & (
                    rows <= Hi[row_pos]
                ).all(axis=1)
                if inside.any():
                    np.add.at(totals, row_pos[inside], 1)
            for p in range(len(ts)):
                if totals[p]:
                    g.recv += 1
                    g.result(p, ("count", int(totals[p])))
            return

        if not (whole_n or part_n):
            return
        ln = np.concatenate(whole_n + part_n)
        lp = np.concatenate(whole_p + part_p)
        whole_flag = np.zeros(len(ln), dtype=bool)
        nw = sum(len(a) for a in whole_n)
        whole_flag[:nw] = True
        order = np.lexsort((~tab.key_lo[ln], lp))
        ln, lp, whole_flag = ln[order], lp[order], whole_flag[order]
        rows, row_pair, lens = _gather_rows(tab, ln)
        row_pos = lp[row_pair]
        # Contained leaves skip the membership test in the scalar path, so
        # their rows are taken wholesale (no float compare involved).
        inside = np.repeat(whole_flag, lens)
        pm = ~inside
        if pm.any():
            inside[pm] = (rows[pm] >= Lo[row_pos[pm]]).all(axis=1) & (
                rows[pm] <= Hi[row_pos[pm]]
            ).all(axis=1)
        for _, a, b in zip(*_pos_segments(row_pos)):
            p = int(row_pos[a])
            sel = inside[a:b]
            n_sel = int(sel.sum())
            if n_sel:
                g.recv += n_sel * dims
                g.result(p, ("pts", rows[a:b][sel]))

    return kernel


# ======================================================================
# host-side L0 seeding for range queries
# ======================================================================
def seed_l0_boxes(tree, boxes, tasks, *, fetch: bool, counts, chunks_list) -> None:
    """Vectorized ``_seed_l0`` over the whole box batch.

    Precomputes the (box × L0-node) containment/intersection matrices in
    one broadcast, then replays the scalar per-box DFS using the matrix
    — charges are aggregated and the LLC touch sequence is replayed in
    the exact scalar order.
    """
    sys = tree.system
    root = tree.root
    dims = tree.dims
    l0 = tree.l0_nodes()
    idx_of: dict[int, int] = {}
    if l0:
        ensure_node_boxes(tree, l0)
        idx_of = {id(nd): j for j, nd in enumerate(l0)}
        NLo = np.stack([nd.box.lo for nd in l0])
        NHi = np.stack([nd.box.hi for nd in l0])
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
            j = idx_of[id(node)]
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
