"""The scalar execution engine: the differential oracle for the round kernels.

Production runs every task kind (SEARCH, kNN candidates, kNN fetch, box
count/fetch) through one round kernel in ``repro.core.vexec``, at a
module for pushed groups and on the host for pulled ones, and the CPU's
share of each operation as batch-wide array passes.  This module keeps
the plainest form of the same engine: per-task handlers driven through
an :class:`ExecContext`, one query and one node at a time, with an
executor that charges every task on its own (one send, one PIM charge
per visit, one recv per reply, each a one-element ``charge_sequence``).  Every charge is an
integer, so both engines must book byte-identical PIMStats — the
property ``tests/test_differential_exec.py``, ``test_knn_host_pipeline``
and ``test_golden_stats`` hold production to.

:func:`route_through_l0` is SEARCH's L0 routing walked key by key and
node by node: the oracle for production's one lookup in the arena's
frontier table (``tests/test_l0_route.py``).  :func:`node_box` reads a
node's cell from the flushed arena for the handlers' box tests.

:func:`run_per_group` is the production executor as it was before its
rounds were booked with one ``charge_sequence`` call: the same kernels,
each (meta, tasks) group charged by its own scalar calls.  It is the
reference for that booking under faults, tracing and replica routing.

:func:`make_knn_prune` is the route tier's kNN prune as it was before
it decided a round in one array pass: each task reads its query's
radius, re-encodes the ball's cover when the radius moved and probes its
chunk's range summary, charging as it goes.  :func:`make_search_prune`
is the point-lookup prune as it was before the same change: a query's
first task probes the global Bloom filter, a hop into a closed chunk its
module's filter, one scalar probe (:func:`probe`, splitmix64 per hash in
Python ints) and one charge each, and a replicated L0 is gated query by
query (:func:`prune_l0_route`).  :func:`per_task` turns such a per-task
verdict into the executor's group hook; both executors here take that
hook, like production's.

:func:`reference_exec` swaps this engine into the production modules
for the duration of a ``with`` block.  It composes with the scalar
simulator core of ``tests/sim_oracle.py``::

    with reference_exec() as mp:
        mp.setattr(repro.eval.harness, "PIMSystem", ScalarPIMSystem)
        ...
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

import repro.core.knn
import repro.core.range_query
import repro.core.search
import repro.core.update
from repro.core.geometry import LINF, Box, Metric, dist, dist_point_box
from repro.core.knn import _CPU_MERGE_OPS, _CPU_TRACE_OPS, _KnnState
from repro.core.node import Layer, Node
from repro.core.push_pull import (
    CPU_BOX_TEST_OPS,
    CPU_NODE_OPS,
    CPU_POINT_BASE_OPS,
    L0_PIM_CYCLES_PER_NODE,
    PIM_BOX_TEST_CYCLES,
    PIM_POINT_BASE_CYCLES,
    PIM_TASK_DISPATCH_CYCLES,
    RESULT_WORDS,
    TRACE_WORDS,
    QUERY_WORDS,
    PushPullExecutor,
    Task,
)
from repro.core.vexec import node_arena
from repro.pim import CHARGE_PIM, CHARGE_RECV, CHARGE_SEND
from repro.route import RouteFilterSet
from repro.route.filters import _HASH_OPS, _PROBE_BASE_OPS

__all__ = ["ExecContext", "reference_exec", "exec_engine", "run_per_group",
           "node_box", "make_knn_prune", "make_search_prune", "prune_l0_route",
           "per_task", "splitmix_int", "bit_positions", "probe"]


def node_box(tree, node: Node) -> Box:
    """``node``'s cell as views of its row in the tree's flushed arena
    (``prefix_box_batch`` values, bitwise those of ``prefix_box``), for
    immediate use: the box every per-node handler here tests."""
    arena = node_arena(tree)
    return Box(arena.lo[node.row], arena.hi[node.row])


def _one(sys, kind: int, mid: int, amount: float) -> None:
    """Book one charge: a one-element ``charge_sequence``."""
    sys.charge_sequence(kind, (mid,), (amount,))


# ======================================================================
# the executor
# ======================================================================
class ExecContext:
    """Charging interface handed to handlers; binds one task execution."""

    __slots__ = ("_tree", "_sys", "meta", "on_cpu", "_module", "_emitted", "_results",
                 "qid")

    def __init__(self, tree, meta, on_cpu: bool, qid: int,
                 module: int | None = None) -> None:
        self._tree = tree
        self._sys = tree.system
        self.meta = meta
        self.on_cpu = on_cpu
        # Execution site: the mastering module unless read routing picked
        # a replica (repro.replicate) — then all charges land there.
        self._module = meta.module if module is None else module
        self._emitted: list[Task] = []
        self._results: list = []
        self.qid = qid

    # -- locality rules ---------------------------------------------------
    def local(self, node: Node) -> bool:
        """May the current execution site keep traversing into ``node``?"""
        if self.on_cpu:
            # Pulled execution sees only this meta-node's master nodes.
            return node.meta is self.meta
        if self.meta.layer == Layer.L1:
            # The module caches every L1 descendant meta-node (§3.1).
            return node.layer == Layer.L1
        return node.meta is self.meta

    # -- charging ---------------------------------------------------------
    def visit_node(self, node: Node) -> None:
        if self.on_cpu:
            self._sys.charge_cpu(CPU_NODE_OPS)
            self._sys.touch_cpu_blocks((("pimzd", "pulled", node.nid),))
        else:
            cycles = node.meta.cycles_per_node(self._tree.config) if node.meta else 12
            _one(self._sys, CHARGE_PIM, self._module, cycles)

    def scan_points(self, n_points: int, metric: Metric, dims: int) -> None:
        """Charge ``n_points`` distance evaluations under ``metric``."""
        if self.on_cpu:
            self._sys.charge_cpu(
                n_points * (CPU_POINT_BASE_OPS + metric.cpu_ops_per_dim * dims)
            )
        else:
            _one(self._sys, CHARGE_PIM, self._module,
                 n_points * (PIM_POINT_BASE_CYCLES + metric.pim_cycles_per_dim * dims))

    def extra_work(self, cpu_ops: float, pim_cycles: float) -> None:
        """Charge handler-specific work (heap pushes, compares, …)."""
        if self.on_cpu:
            self._sys.charge_cpu(cpu_ops)
        else:
            _one(self._sys, CHARGE_PIM, self._module, pim_cycles)

    def return_words(self, words: float) -> None:
        """Result payload shipped back to the CPU at round end."""
        if not self.on_cpu:
            _one(self._sys, CHARGE_RECV, self._module, words)

    # -- control flow -------------------------------------------------------
    def emit(self, task: Task) -> None:
        """Schedule ``task`` for the next round."""
        self._emitted.append(task)

    def result(self, value) -> None:
        self._results.append(value)


def _run(self, tasks, handler, *, round_hook=None, prune=None):
    """``PushPullExecutor.run`` with every task run by its handler."""
    results: dict[int, list] = defaultdict(list)
    frontier = list(tasks)
    while frontier:
        by_meta = defaultdict(list)
        for t in frontier:
            by_meta[t.meta].append(t)
        pulled = self._decide_pulls(by_meta)
        groups = list(by_meta.items())
        if prune is not None:
            groups = prune(groups)
            if not groups:
                break
        next_frontier: list[Task] = []
        pulled_items = []

        reps = self.tree.replicas
        with self.sys.round():
            for meta, ts in groups:
                mod = (meta.module if reps is None
                       else reps.read_module(meta, len(ts)))
                if meta in pulled:
                    # Fetch only the master storage (§3.3).
                    _one(self.sys, CHARGE_RECV, mod,
                         meta.size_words(self.config))
                    pulled_items.append((meta, ts))
                    self.pulled_tasks += len(ts)
                    continue
                self.pushed_tasks += len(ts)
                meta.hot_hits += len(ts)
                _one(self.sys, CHARGE_PIM, mod, PIM_TASK_DISPATCH_CYCLES)
                for t in ts:
                    _one(self.sys, CHARGE_SEND, mod, t.send_words)
                    ctx = ExecContext(self.tree, meta, False, t.qid,
                                      module=mod)
                    handler(t, ctx)
                    ctx.return_words(RESULT_WORDS)
                    results[t.qid].extend(ctx._results)
                    next_frontier.extend(ctx._emitted)
            self.rounds_executed += 1

        # Pulled meta-nodes are searched on the host after the fetch.
        for meta, ts in pulled_items:
            self.pulled_metas += 1
            for t in ts:
                ctx = ExecContext(self.tree, meta, True, t.qid)
                handler(t, ctx)
                results[t.qid].extend(ctx._results)
                next_frontier.extend(ctx._emitted)

        if round_hook is not None:
            round_hook(results)
        frontier = next_frontier
    return results


def run_per_group(self, tasks, kernel, *, round_hook=None, prune=None):
    """``PushPullExecutor.run`` charging group by group: the reference for
    its one-call round booking.

    Production kernels, production pull decisions; each group makes its
    own one-element calls in ``by_meta`` order — routing, then the
    counters and ``hot_hits``, then PIM/send/PIM/recv (a pulled group one
    recv) — so a fault at group ``j`` leaves groups
    after ``j`` untouched by construction.  Swap it in with
    ``monkeypatch.setattr(PushPullExecutor, "run", run_per_group)``.
    """
    results: dict[int, list] = defaultdict(list)
    sys = self.sys
    frontier = list(tasks)
    while frontier:
        by_meta = defaultdict(list)
        for t in frontier:
            by_meta[t.meta].append(t)
        pulled = self._decide_pulls(by_meta)
        groups = list(by_meta.items())
        if prune is not None:
            groups = prune(groups)
            if not groups:
                break
        pulled_items = []
        pushed = [(m, ts) for m, ts in groups if m not in pulled]
        outs = []
        if pushed:
            out = kernel(pushed, False)
            outs.append(out)
        gi = 0
        reps = self.tree.replicas
        with sys.round():
            for meta, ts in groups:
                mod = (meta.module if reps is None
                       else reps.read_module(meta, len(ts)))
                if meta in pulled:
                    _one(sys, CHARGE_RECV, mod, meta.size_words(self.config))
                    pulled_items.append((meta, ts))
                    self.pulled_tasks += len(ts)
                    continue
                self.pushed_tasks += len(ts)
                meta.hot_hits += len(ts)
                _one(sys, CHARGE_PIM, mod, PIM_TASK_DISPATCH_CYCLES)
                _one(sys, CHARGE_SEND, mod, sum(t.send_words for t in ts))
                _one(sys, CHARGE_PIM, mod, float(out.cycles[gi]))
                _one(sys, CHARGE_RECV, mod, float(out.recv[gi]))
                gi += 1
            self.rounds_executed += 1
        if pulled_items:
            self.pulled_metas += len(pulled_items)
            host = kernel(pulled_items, True)
            sys.charge_cpu(host.cpu_ops)
            sys.touch_cpu_blocks(
                ("pimzd", "pulled", nid) for nid in host.touched)
            outs.append(host)
        frontier = []
        for o in outs:
            for qid, value in o.results:
                results[qid].append(value)
            frontier += o.emits
        if round_hook is not None:
            round_hook(results)
    return results


# ======================================================================
# SEARCH
# ======================================================================
def route_through_l0(tree, results) -> list[Task]:
    """Traverse the globally-shared layer for every query (Alg. 1 step 1),
    one key and one node at a time, placing and charging each query on
    its own — what one lookup in production's frontier table must equal."""
    sys = tree.system
    kb = tree.key_bits
    tasks: list[Task] = []
    on_cpu = tree.l0_on_cpu

    def step(res):
        """Walk L0; returns (parent, border_child) or None if terminal."""
        node = tree.root
        lo, hi = node.key_range(kb)
        if not lo <= res.key < hi:
            res.edge = (None, node)
            return None
        if node.layer != Layer.L0:
            # Tiny trees (or huge θ_L0) may have an empty L0: the border
            # sits at the root itself.
            return None, node
        while True:
            res.trace.append(node)
            if on_cpu:
                sys.charge_cpu(CPU_NODE_OPS)
                sys.touch_cpu_blocks((("pimzd", "l0", node.nid),))
            if node.is_leaf:
                res.leaf = node
                return None
            child = node.child_for_key(res.key, kb)
            lo, hi = child.key_range(kb)
            if not lo <= res.key < hi:
                res.edge = (node, child)
                return None
            if child.layer != Layer.L0:
                return node, child
            node = child

    if on_cpu:
        for res in results:
            out = step(res)
            if out is not None:
                tasks.append(Task(res.qid, out[1].meta, out[1]))
        return tasks

    # L0 replicated across modules: queries are hash-partitioned into P
    # groups and each group walks its module's replica in one round.
    with sys.round():
        for res in results:
            mid = sys.place(("l0q", tree._l0_route_salt, res.qid))
            _one(sys, CHARGE_SEND, mid, 2)
            out = step(res)
            depth = len(res.trace)
            _one(sys, CHARGE_PIM, mid, depth * L0_PIM_CYCLES_PER_NODE)
            _one(sys, CHARGE_RECV, mid, TRACE_WORDS)
            if out is not None:
                tasks.append(Task(res.qid, out[1].meta, out[1]))
    return tasks


def make_search_handler(tree, results):
    """Per-task handler descending within the locally available region."""
    kb = tree.key_bits

    def handler(task: Task, ctx) -> None:
        res = results[task.qid]
        node = task.node
        while True:
            ctx.visit_node(node)
            res.trace.append(node)
            if node.is_leaf:
                ctx.return_words(TRACE_WORDS)
                res.leaf = node
                return
            child = node.child_for_key(res.key, kb)
            lo, hi = child.key_range(kb)
            if not lo <= res.key < hi:
                ctx.return_words(TRACE_WORDS)
                res.edge = (node, child)
                return
            if ctx.local(child):
                node = child
                continue
            ctx.return_words(TRACE_WORDS)
            ctx.emit(Task(task.qid, child.meta, child))
            return

    return handler


# ======================================================================
# kNN: the CPU's steps one query and one node at a time, and the handlers
# ======================================================================
class _ScalarHost:
    """Steps 2, 3 and 5 per query and per node: the oracle
    ``repro.core.knn._ArrayHost`` must match."""

    def __init__(self, tree, results, states, k: int, metric: Metric,
                 coarse: Metric, anchor: float, slack: float) -> None:
        self.tree, self.results, self.states = tree, results, states
        self.k, self.metric, self.coarse = k, metric, coarse
        self.anchor, self.slack = anchor, slack
        self.merge = _make_merge_hook(tree, states, k)

    def candidate_seeds(self) -> list[Task]:
        tree, k = self.tree, self.k
        tasks: list[Task] = []
        for res in self.results:
            tree.system.charge_cpu(len(res.trace) * _CPU_TRACE_OPS)
            start = _lowest_with_sc(res.trace, 2 * k) or tree.root
            _seed_from(tree, start, res.qid, self.states[res.qid],
                       self.coarse, tasks, mode="candidates")
        return tasks

    def fetch_seeds(self):
        tree, k, metric = self.tree, self.k, self.metric
        sys, dims = tree.system, tree.dims
        fetch_tasks: list[Task] = []
        bounds: list[float] = []
        exact_radii: list[float] = []
        for res in self.results:
            st = self.states[res.qid]
            if len(st.cand_d) == 0:
                r_exact = math.inf
            else:
                exact = np.sort(dist(st.cand_p, st.q, metric))
                sys.charge_cpu(len(exact) * metric.cpu_ops_per_dim * dims)
                kk = min(k, len(exact))
                r_exact = (float(exact[kk - 1]) * self.slack
                           if len(st.cand_d) >= k else math.inf)
            bound = r_exact * self.anchor if math.isfinite(r_exact) else math.inf
            bounds.append(bound)
            exact_radii.append(r_exact)
            n2 = _lowest_containing_sphere(tree, res.trace, st.q, r_exact)
            sys.charge_cpu(len(res.trace) * _CPU_TRACE_OPS)
            # Reset candidate store: step 4 re-fetches the full ball.
            st.cand_d = np.empty(0)
            st.cand_p = np.empty((0, dims))
            _seed_from(tree, n2, res.qid, st, self.coarse, fetch_tasks,
                       mode="fetch", bound=bound, r_exact=r_exact)
        return fetch_tasks, bounds, exact_radii

    def answers(self, fetched) -> list:
        k, metric = self.k, self.metric
        sys, dims = self.tree.system, self.tree.dims
        answers = []
        for res in self.results:
            st = self.states[res.qid]
            chunks = [st.cand_p] + [
                pts for kind, pts in fetched.get(res.qid, []) if kind == "pts"
            ]
            allp = np.vstack([c for c in chunks if len(c)]) if any(
                len(c) for c in chunks
            ) else np.empty((0, dims))
            if len(allp):
                d = dist(allp, st.q, metric)
                sys.charge_cpu(len(allp) * metric.cpu_ops_per_dim * dims)
                order = np.argsort(d, kind="stable")[: min(k, len(d))]
                sys.charge_cpu(len(allp) * max(1, int(np.log2(k + 1))))
                answers.append((d[order], allp[order]))
            else:
                answers.append((np.empty(0), np.empty((0, dims))))
        return answers


def _lowest_with_sc(trace: list[Node], threshold: int) -> Node | None:
    for node in reversed(trace):
        if node.sc >= threshold:
            return node
    return None


def _lowest_containing_sphere(tree, trace: list[Node], q: np.ndarray, r: float
                              ) -> Node:
    if math.isfinite(r):
        for node in reversed(trace):
            if node_box(tree, node).contains_sphere(q, r):
                return node
    return tree.root


def _child_box_dists(tree, left: Node, right: Node, q: np.ndarray,
                     coarse: Metric, want_linf: bool):
    """Coarse (and optionally ℓ∞) box distances for a sibling pair.

    One gap evaluation covers both children, and the ℓ∞ distance reuses
    the same gap array; elementwise identical to :func:`dist_point_box`.
    """
    bl = node_box(tree, left)
    br = node_box(tree, right)
    lo, hi = np.stack((bl.lo, br.lo)), np.stack((bl.hi, br.hi))
    gap = np.maximum(np.maximum(lo - q, q - hi), 0.0)
    if coarse.name == "l1":
        dc = gap.sum(axis=-1)
    elif coarse.name == "linf":
        dc = gap.max(axis=-1)
    else:
        dc = np.sqrt((gap * gap).sum(axis=-1))
    dl = gap.max(axis=-1) if want_linf else None
    return dc, dl


def _seed_from(tree, start: Node, qid: int, state: _KnnState, coarse: Metric,
               tasks: list[Task], *, mode: str, bound: float = math.inf,
               r_exact: float = math.inf) -> None:
    """Walk the L0 portion (on the host) and emit border tasks.

    For ``mode="candidates"`` L0 leaves feed the candidate store directly;
    for ``mode="fetch"`` they contribute points within the anchored bound
    (ℓ1 ≤ √D·r) *and* the ℓ∞ secondary filter (ℓ∞ ≤ r).
    """
    sys = tree.system
    send_words = tree.dims + 3
    q = state.q
    use_linf = mode == "fetch" and math.isfinite(r_exact)
    # Stack entries carry the precomputed (coarse, ℓ∞) box distances; the
    # start node (and non-L0 children, whose distances are never used)
    # carry None and compute lazily.
    stack = [(start, None, None)]
    while stack:
        node, d, dlinf = stack.pop()
        if node.layer != Layer.L0:
            tasks.append(Task(qid, node.meta, node, None, send_words))
            continue
        sys.charge_cpu(4)
        sys.touch_cpu_blocks((("pimzd", "l0", node.nid),))
        if d is None:
            d = dist_point_box(q, node_box(tree, node), coarse)
            if use_linf:
                dlinf = dist_point_box(q, node_box(tree, node), LINF)
        prune_at = state.radius() if mode == "candidates" else bound
        if d > prune_at:
            continue
        if use_linf and dlinf > r_exact:
            continue
        if node.is_leaf:
            dd = dist(node.pts, q, coarse)
            sys.charge_cpu(node.count * coarse.cpu_ops_per_dim * tree.dims)
            if mode == "candidates":
                _merge_into_state(state, dd, node.pts, state.k)
            else:
                mask = dd <= bound
                if math.isfinite(r_exact):
                    mask &= dist(node.pts, q, LINF) <= r_exact
                if mask.any():
                    _merge_points_into_state(state, node.pts[mask], dd[mask])
            continue
        left, right = node.left, node.right
        if left.layer == Layer.L0 or right.layer == Layer.L0:
            dc, dl = _child_box_dists(tree, left, right, q, coarse, use_linf)
            ll, lr = (float(dl[0]), float(dl[1])) if use_linf else (None, None)
            stack.append((left, float(dc[0]), ll))
            stack.append((right, float(dc[1]), lr))
        else:
            stack.append((left, None, None))
            stack.append((right, None, None))


def _merge_into_state(state: _KnnState, dists: np.ndarray, pts: np.ndarray,
                      k: int) -> None:
    d = np.concatenate([state.cand_d, dists])
    p = np.vstack([state.cand_p, pts]) if len(pts) else state.cand_p
    order = np.argsort(d, kind="stable")[: min(k, len(d))]
    state.cand_d = d[order]
    state.cand_p = p[order]


def _merge_points_into_state(state: _KnnState, pts: np.ndarray, dists: np.ndarray
                             ) -> None:
    state.cand_d = np.concatenate([state.cand_d, dists])
    state.cand_p = np.vstack([state.cand_p, pts]) if len(state.cand_p) else pts.copy()


def _make_candidate_handler(tree, states: list[_KnnState], coarse: Metric, k: int):
    dims = tree.dims

    def handler(task: Task, ctx) -> None:
        state = states[task.qid]
        # Prune on the round-start radius only: the bound is fixed for the
        # whole round (BSP-consistent), so the visit set is independent of
        # traversal order.
        radius = state.radius()
        local_d: list[np.ndarray] = []
        local_p: list[np.ndarray] = []
        stack = [task.node]
        while stack:
            node = stack.pop()
            ctx.visit_node(node)
            d = dist_point_box(state.q, node_box(tree, node), coarse)
            ctx.extra_work(2 * dims, coarse.pim_cycles_per_dim * dims)
            if d > radius:
                continue
            if node.is_leaf:
                ctx.scan_points(node.count, coarse, dims)
                dd = dist(node.pts, state.q, coarse)
                local_d.append(dd)
                local_p.append(node.pts)
                continue
            for child in (node.left, node.right):
                if ctx.local(child):
                    stack.append(child)
                else:
                    ctx.emit(Task(task.qid, child.meta, child, None, dims + 3))
        if local_d:
            dcat = np.concatenate(local_d)
            pcat = np.vstack(local_p)
            order = np.argsort(dcat, kind="stable")[: min(k, len(dcat))]
            ctx.extra_work(len(dcat) * 4, len(dcat) * 6)
            ctx.return_words(len(order) * (dims + 1))
            ctx.result(("cand", dcat[order], pcat[order]))

    return handler


def _make_merge_hook(tree, states: list[_KnnState], k: int):
    consumed: dict[int, int] = {}

    def hook(results: dict[int, list]) -> None:
        for qid, items in results.items():
            start = consumed.get(qid, 0)
            fresh = items[start:]
            consumed[qid] = len(items)
            for item in fresh:
                if item[0] != "cand":
                    continue
                _, dd, pp = item
                tree.system.charge_cpu(len(dd) * _CPU_MERGE_OPS)
                _merge_into_state(states[qid], dd, pp, k)

    return hook


def _make_fetch_handler(tree, states: list[_KnnState], coarse: Metric,
                        bounds: list[float], exact_radii: list[float]):
    dims = tree.dims

    def handler(task: Task, ctx) -> None:
        state = states[task.qid]
        bound = bounds[task.qid]
        r_exact = exact_radii[task.qid]
        use_linf = math.isfinite(r_exact) and coarse.name != "l2"
        stack = [task.node]
        collected: list[np.ndarray] = []
        n_pts = 0
        while stack:
            node = stack.pop()
            ctx.visit_node(node)
            d = dist_point_box(state.q, node_box(tree, node), coarse)
            ctx.extra_work(2 * dims, coarse.pim_cycles_per_dim * dims)
            if d > bound:
                continue
            if use_linf:
                ctx.extra_work(2 * dims, LINF.pim_cycles_per_dim * dims)
                if dist_point_box(state.q, node_box(tree, node), LINF) > r_exact:
                    continue
            if node.is_leaf:
                ctx.scan_points(node.count, coarse, dims)
                dd = dist(node.pts, state.q, coarse)
                mask = dd <= bound
                if use_linf:
                    ctx.scan_points(node.count, LINF, dims)
                    mask &= dist(node.pts, state.q, LINF) <= r_exact
                if mask.any():
                    collected.append(node.pts[mask])
                    n_pts += int(mask.sum())
                continue
            for child in (node.left, node.right):
                if ctx.local(child):
                    stack.append(child)
                else:
                    ctx.emit(Task(task.qid, child.meta, child, None, dims + 3))
        if collected:
            ctx.return_words(n_pts * dims)
            ctx.result(("pts", np.vstack(collected)))

    return handler


# ======================================================================
# range queries
# ======================================================================
def _classify(tree, node: Node, box: Box) -> str:
    nbox = node_box(tree, node)
    if not box.intersects(nbox):
        return "disjoint"
    if box.contains_box(nbox):
        return "contained"
    return "partial"


def _seed_l0(tree, box: Box, qid: int, tasks: list[Task], *,
             fetch: bool, counts: list[int], chunks: list[np.ndarray]) -> None:
    """Walk the L0 portion on the host; emit border tasks."""
    sys = tree.system
    stack: list[tuple[Node, bool]] = [(tree.root, False)]
    while stack:
        node, skip_test = stack.pop()
        if node.layer != Layer.L0:
            words = 2 * tree.dims + 2  # the box corners + query id/mode
            tasks.append(
                Task(qid, node.meta, node, "all" if skip_test else "test", words)
            )
            continue
        sys.charge_cpu(CPU_BOX_TEST_OPS)
        sys.touch_cpu_blocks((("pimzd", "l0", node.nid),))
        cls = "contained" if skip_test else _classify(tree, node, box)
        if cls == "disjoint":
            continue
        if cls == "contained":
            if not fetch:
                counts[qid] += node.count
                continue
            if node.is_leaf:
                chunks.append(node.pts)
                continue
            stack.append((node.left, True))
            stack.append((node.right, True))
            continue
        if node.is_leaf:
            mask = box.contains_point(node.pts)
            sys.charge_cpu(node.count * 2 * tree.dims)
            if fetch:
                if mask.any():
                    chunks.append(node.pts[mask])
            else:
                counts[qid] += int(np.count_nonzero(mask))
            continue
        stack.append((node.left, False))
        stack.append((node.right, False))


def _seed_l0_boxes(tree, Lo, Hi, *, fetch: bool):
    """``repro.core.vexec.l0_box_seeds`` over :func:`_seed_l0`: the border
    tasks and each box's L0 count or points as one result item."""
    tasks: list[Task] = []
    results: dict[int, list] = {}
    counts = [0] * len(Lo)
    for qid, box in enumerate(map(Box, Lo, Hi)):
        chunks: list[np.ndarray] = []
        _seed_l0(tree, box, qid, tasks, fetch=fetch, counts=counts,
                 chunks=chunks)
        if chunks:
            results[qid] = [("pts", np.vstack(chunks))]
        elif counts[qid]:
            results[qid] = [("count", counts[qid])]
    return tasks, results


def _make_handler(tree, Lo, Hi, *, fetch: bool):
    dims = tree.dims
    boxes = list(map(Box, Lo, Hi))

    def handler(task: Task, ctx) -> None:
        box = boxes[task.qid]
        stack: list[tuple[Node, bool]] = [(task.node, task.payload == "all")]
        total = 0
        collected: list[np.ndarray] = []
        n_pts = 0
        while stack:
            node, skip_test = stack.pop()
            ctx.visit_node(node)
            if skip_test:
                cls = "contained"
            else:
                ctx.extra_work(CPU_BOX_TEST_OPS, PIM_BOX_TEST_CYCLES)
                cls = _classify(tree, node, box)
            if cls == "disjoint":
                continue
            if cls == "contained" and not fetch:
                total += node.count
                continue
            if node.is_leaf:
                if cls == "contained":
                    if fetch:
                        collected.append(node.pts)
                        n_pts += node.count
                    continue
                ctx.scan_points(node.count, _SCAN_METRIC, dims)
                mask = box.contains_point(node.pts)
                if fetch:
                    if mask.any():
                        collected.append(node.pts[mask])
                        n_pts += int(mask.sum())
                else:
                    total += int(np.count_nonzero(mask))
                continue
            nxt = cls == "contained"
            for child in (node.left, node.right):
                if ctx.local(child):
                    stack.append((child, nxt))
                else:
                    ctx.emit(
                        Task(task.qid, child.meta, child,
                             "all" if nxt else "test", 2 * dims + 2)
                    )
        if fetch:
            if collected:
                ctx.return_words(n_pts * dims)
                ctx.result(("pts", np.vstack(collected)))
        elif total:
            ctx.return_words(1)
            ctx.result(("count", total))

    return handler


class _ScanCost:
    """Box membership test cost profile (compare-only, like ℓ∞)."""

    name = "boxtest"
    cpu_ops_per_dim = 2
    pim_cycles_per_dim = 2


_SCAN_METRIC = _ScanCost()


# ======================================================================
# delete planning
# ======================================================================
def _plan_leaf_deletions(leaf, qids, results, points, removal_count):
    """Which stored rows of ``leaf`` go: one row compare at a time."""
    keep = np.ones(leaf.count, dtype=bool)
    for q in qids:
        removed_here = 0
        p = points[q]
        key = np.uint64(results[q].key)
        j0 = int(np.searchsorted(leaf.keys, key))
        j1 = int(np.searchsorted(leaf.keys, key, side="right"))
        for j in range(j0, j1):
            if keep[j] and np.array_equal(leaf.pts[j], p):
                keep[j] = False
                removed_here += 1
        removal_count[q] = removed_here
    return keep


# ======================================================================
# route pruning
# ======================================================================
_MASK64 = (1 << 64) - 1


def splitmix_int(x: int, salt: int) -> int:
    """Scalar splitmix64 of ``x`` under ``salt`` (taken modulo 2^64)."""
    z = ((x ^ (salt & _MASK64)) + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def bit_positions(key: int, seed: int, m_bits: int, k: int) -> list[int]:
    """The ``k`` Bloom bits of ``key`` in an ``m_bits`` filter seeded
    ``seed``, one key and one hash at a time."""
    h1 = splitmix_int(key, seed)
    h2 = splitmix_int(key, seed + 1) | 1
    return [(h1 + i * h2) & (m_bits - 1) for i in range(k)]


def probe(f, key: int, seed: int) -> bool:
    """May ``key`` be in filter ``f``?  Its range summary, then its bits."""
    if f.lo is None or not f.lo <= key <= f.hi:
        return False
    return all((int(f.words[idx >> 6]) >> (idx & 63)) & 1
               for idx in bit_positions(key, seed, f.m_bits, f.k))


def probe_global(self, key: int) -> bool:
    g = self._global
    self.probes += 1
    self.tree.system.charge_cpu(_PROBE_BASE_OPS + g.k * _HASH_OPS)
    return probe(g, key, self.seed)


def probe_module(self, mid: int, key: int) -> bool:
    f = self._filters.get(mid)
    self.probes += 1
    if f is None:
        self.tree.system.charge_cpu(_PROBE_BASE_OPS)
        return False
    self.tree.system.charge_cpu(_PROBE_BASE_OPS + f.k * _HASH_OPS)
    return probe(f, key, self._seed_of(mid))


def prune_l0_route(self, results) -> set[int]:
    """The global-filter gate ahead of a replicated-L0 routing round, one
    query at a time; returns the probed qids."""
    probed: set[int] = set()
    for res in results:
        probed.add(res.qid)
        if not probe_global(self, res.key):
            res.pruned = True
            self.queries_pruned += 1
            self.words_saved += QUERY_WORDS + TRACE_WORDS
    return probed


def make_search_prune(self, results):
    """``RouteFilterSet.make_search_prune`` one task at a time: a query's
    first task probes the global filter, a later hop into a closed chunk
    the chunk's module filter, each charging as it goes; a verdict feeds
    the query's later tasks.  A replicated L0 is gated first by
    :func:`prune_l0_route`."""
    decided: dict[int, bool] = {}
    if not self.tree.l0_on_cpu:
        decided = dict.fromkeys(prune_l0_route(self, results), False)
    probed = np.zeros(len(results), dtype=bool)
    probed[list(decided)] = True

    def drop(task) -> bool:
        res = results[task.qid]
        verdict = decided.get(task.qid)
        if verdict is None:
            probed[task.qid] = True
            verdict = not probe_global(self, res.key)
            decided[task.qid] = verdict
            if verdict:
                res.pruned = True
                self.queries_pruned += 1
        if verdict:
            self.words_saved += task.send_words
            return True
        info = self._meta_info.get(task.meta.root.nid)
        if info is not None and info[3]:
            if not probe_module(self, info[0], res.key):
                decided[task.qid] = True
                res.pruned = True
                self.queries_pruned += 1
                self.words_saved += task.send_words
                return True
        return False

    return per_task(drop), probed


def per_task(drop):
    """The executor's group hook over a per-task verdict: each group keeps
    its tasks ``drop`` refuses, asked in round order; emptied groups go."""

    def prune(groups):
        return [(meta, kept) for meta, ts in groups
                if (kept := [t for t in ts if not drop(t)])]

    return prune


def make_knn_prune(self, states, bounds=None):
    """``RouteFilterSet.make_knn_prune`` one task at a time: each task
    reads its query's radius, re-encodes the ball's cover when the
    radius moved, and probes its chunk's range summary, charging as it
    goes."""
    tree = self.tree
    cache: dict[int, tuple[float, int, int]] = {}

    def drop(task) -> bool:
        qid = task.qid
        r = bounds[qid] if bounds is not None else states[qid].radius()
        if not math.isfinite(r):
            return False
        ent = cache.get(qid)
        if ent is None or ent[0] != r:
            q = states[qid].q
            corners = np.vstack([q - r, q + r])
            zlo, zhi = (int(x) for x in tree.encode_keys(corners))
            cache[qid] = (r, zlo, zhi)
        else:
            _, zlo, zhi = ent
        # May the chunk hold a key in [zlo, zhi]?
        self.probes += 1
        tree.system.charge_cpu(_PROBE_BASE_OPS)
        info = self._meta_info.get(task.meta.root.nid)
        if info is None:
            return False  # unknown chunk (stale summary): never suppress
        _, lo, hi, closed = info
        if not closed:
            return False  # traversal may continue into other chunks
        if lo is not None and not (zhi < lo or zlo > hi):
            return False  # the ranges meet; an empty closed chunk never
        self.queries_pruned += 1
        self.words_saved += task.send_words
        return True

    return per_task(drop)


# ======================================================================
# the swap
# ======================================================================
_SWAPS = (
    (PushPullExecutor, "run", _run),
    (repro.core.search, "route_through_l0", route_through_l0),
    (repro.core.search, "make_search_kernel", make_search_handler),
    (repro.core.knn, "_ArrayHost", _ScalarHost),
    (repro.core.knn, "make_candidate_kernel", _make_candidate_handler),
    (repro.core.knn, "make_fetch_kernel", _make_fetch_handler),
    (repro.core.range_query, "l0_box_seeds", _seed_l0_boxes),
    (repro.core.range_query, "make_range_kernel", _make_handler),
    (repro.core.update, "plan_leaf_deletions", _plan_leaf_deletions),
    (RouteFilterSet, "make_knn_prune", make_knn_prune),
    (RouteFilterSet, "make_search_prune", make_search_prune),
)


@contextmanager
def reference_exec():
    """Run every operation through the scalar engine inside the block.

    Each production kernel factory is replaced by the handler factory of
    the same signature, the executor by :func:`_run`, the batch-wide
    host passes by their per-query forms, and the route prunes by
    :func:`make_knn_prune` and :func:`make_search_prune`.  Yields the
    :class:`pytest.MonkeyPatch` holding the swap, so callers can add
    their own patches (e.g. the scalar simulator core) to the same undo.
    """
    with pytest.MonkeyPatch.context() as mp:
        for owner, name, oracle in _SWAPS:
            mp.setattr(owner, name, oracle)
        yield mp


def exec_engine(name: str):
    """The engine a parametrised suite names: ``"reference"`` runs
    :func:`reference_exec`, ``"vectorized"`` runs production."""
    return reference_exec() if name == "reference" else nullcontext()
