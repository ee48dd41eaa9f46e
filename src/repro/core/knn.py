"""Batch k-nearest-neighbour queries (Alg. 3).

The batched kNN pipeline:

1. SEARCH the batch, recording traces.
2. For each query, pick the lowest trace node whose lazy counter is at
   least ``2k`` (the paper states ``SC ≥ k``; because Lemma 3.1 only
   guarantees ``T ≥ SC/2``, the implementation uses the 2k slack so the
   chosen subtree provably holds ≥ k points) and push-pull traverse its
   descendants for k candidates.
3. Compute the smallest sphere around the query containing all candidates
   (under the *exact* metric, on the CPU) and pick the lowest trace node
   whose box contains it.
4. Push-pull traverse that node's descendants, fetching every point that
   can lie in the sphere.
5. Filter on the CPU for the exact answer.

Coarse/fine filtering (§6): UPMEM-like PIM cores multiply slowly (32
cycles), so when the query metric is ℓ2 and ``config.fast_l2`` is on, the
PIM-side work (steps 2 and 4) uses the ℓ1 norm — additions only — with the
``√D`` anchoring bound guaranteeing the candidate superset; the CPU-side
steps (3, 5) use exact ℓ2.  Disabling ``fast_l2`` (Table 3 ablation) runs
ℓ2 directly on the PIM cores at the 32-cycle multiply cost.

Ties at the bound.  Step 3 clears the candidate store, so step 4 must
fetch the very point that defined the radius — and every point tying
it.  In floats it may not: when the k-th neighbour sits at equal offset
in every coordinate, ℓ1 = √D·ℓ2 holds in the reals but the computed
``r·√D`` can land one ulp below the computed ℓ1 (an even lattice queried
at odd points returned *no* neighbour).  Step 3 therefore inflates the
exact radius once, by :func:`tie_slack` — the worst-case relative
rounding error of the computations on both sides of step 4's
comparisons — and the sphere-containment test, the anchored ℓ1 bound and
the ℓ∞ bound all read that one value, in both exec modes (the
``exact_radii`` / ``bounds`` lists both step-4 handlers receive).  Points
the slack lets in only widen the step-5 candidate set; the exact filter
still ranks them by their computed distance.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import L1, L2, LINF, Metric, dist, dist_point_box
from .node import Layer, Node
from .push_pull import PushPullExecutor, Task
from .search import search_batch
from .vexec import (
    _dist_rows,
    lowest_rows,
    make_candidate_round_kernel,
    make_fetch_round_kernel,
    node_arena,
    seed_knn_l0,
    segmented_topk,
    sphere_cover_mask,
    trace_rows,
)

__all__ = ["knn_batch"]

_CPU_TRACE_OPS = 2
_CPU_MERGE_OPS = 14  # per candidate heap merge step
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


class _KnnState:
    """Shared per-query state; only the CPU round-hook mutates it."""

    __slots__ = ("q", "k", "cand_d", "cand_p")

    def __init__(self, q: np.ndarray, k: int, dims: int) -> None:
        self.q = q
        self.k = k
        self.cand_d = np.empty(0)
        self.cand_p = np.empty((0, dims))

    def radius(self) -> float:
        """Current coarse pruning radius (k-th best coarse distance)."""
        if len(self.cand_d) < self.k:
            return math.inf
        return float(self.cand_d[self.k - 1])


def knn_batch(tree, queries: np.ndarray, k: int, metric: Metric = L2):
    """Exact batched kNN; returns a list of ``(dists, points)`` per query."""
    queries = np.asarray(queries, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be >= 1")
    if queries.size == 0:
        # Empty batch: nothing to do, no rounds.  Short-circuit before
        # atleast_2d, which would turn a bare ``[]`` into one bogus 0-D
        # query and trip the Morton codec.
        return []
    queries = np.atleast_2d(queries)
    sys = tree.system
    dims = tree.dims
    use_anchor = tree.config.fast_l2 and metric.name == "l2"
    coarse = L1 if use_anchor else metric
    anchor_factor = math.sqrt(dims) if use_anchor else 1.0

    vectorized = tree.config.exec_mode == "vectorized"
    with sys.phase("knn"):
        results = search_batch(tree, queries, phase="knn")
        states = [_KnnState(queries[i], k, dims) for i in range(len(queries))]
        host = (_ArrayHost if vectorized else _ScalarHost)(
            tree, results, states, k, metric, coarse, anchor_factor,
            1.0 + tie_slack(dims))

        # ---- Step 2: candidate subtrees and coarse candidate search -----
        tasks = host.candidate_seeds()
        executor = PushPullExecutor(tree)
        cand_handler = _make_candidate_handler(tree, states, coarse, k)
        if vectorized:
            cand_handler.round_kernel = make_candidate_round_kernel(
                tree, states, coarse, k
            )
        # Membership-filter routing (repro.route): suppress candidate
        # probes into closed chunks whose resident z-range the current
        # coarse ball provably misses.
        rf = tree.route_filters
        use_rf = rf is not None and rf.enabled
        out = executor.run(tasks, cand_handler, round_hook=host.merge,
                           prune=rf.make_knn_prune(states) if use_rf else None)
        host.merge(out)  # merge any CPU-seeded results not covered by rounds

        # ---- Step 3: exact radius + sphere-covering trace node ----------
        fetch_tasks, bounds, exact_radii = host.fetch_seeds()

        # ---- Step 4: fetch all points inside the (anchored) ball ---------
        executor2 = PushPullExecutor(tree)
        fetch_handler = _make_fetch_handler(tree, states, coarse, bounds,
                                            exact_radii)
        if vectorized:
            fetch_handler.round_kernel = make_fetch_round_kernel(
                tree, states, coarse, bounds, exact_radii
            )
        fetched = executor2.run(
            fetch_tasks, fetch_handler,
            prune=rf.make_knn_prune(states, bounds) if use_rf else None,
        )
        tree.last_executor = executor2

        # ---- Step 5: exact filter on the CPU ------------------------------
        return host.answers(fetched)


# ----------------------------------------------------------------------
# the CPU's steps, one query and one node at a time (the oracle)
# ----------------------------------------------------------------------
class _ScalarHost:
    """Steps 2, 3 and 5 per query and per node: what ``exec_mode=
    "reference"`` runs, and the oracle :class:`_ArrayHost` must match."""

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


# ----------------------------------------------------------------------
# the CPU's steps as batch-wide array passes (vectorized mode)
# ----------------------------------------------------------------------
class _ArrayHost:
    """Steps 2, 3 and 5 for the whole batch at once, over the node arena.

    The traces are one padded ``(query, depth)`` row matrix: step 2's
    start is the deepest row with ``sc ≥ 2k``, step 3's covering node the
    deepest row whose box contains the sphere (one masked compare and an
    ``argmax`` along depth).  Both L0 walks are :func:`.vexec.seed_knn_l0`,
    and the round-hook merge, step 3's k-th exact distance and step 5's
    answer are each one :func:`.vexec.segmented_topk`.  Charges and LLC
    touches equal :class:`_ScalarHost`'s (module docstring of
    :mod:`.vexec`, "Counter-exactness contract").
    """

    def __init__(self, tree, results, states, k: int, metric: Metric,
                 coarse: Metric, anchor: float, slack: float) -> None:
        self.tree, self.states = tree, states
        self.k, self.metric, self.coarse = k, metric, coarse
        self.anchor, self.slack = anchor, slack
        self.Q = np.stack([st.q for st in states])
        self.rows, self.sc, self.n_trace = trace_rows(results)
        self._consumed: dict[int, int] = {}
        self._l0_pts = None

    def candidate_seeds(self) -> list[Task]:
        tree = self.tree
        tree.system.charge_cpu(self.n_trace * _CPU_TRACE_OPS)
        start = lowest_rows(self.sc >= 2 * self.k, self.rows, tree.root.row)
        tasks, _, _ = seed_knn_l0(tree, self.Q, start, self.coarse,
                                  states=self.states, k=self.k)
        return tasks

    def merge(self, results: dict[int, list]) -> None:
        """Round hook: fold each query's fresh candidates into its state."""
        states, consumed = self.states, self._consumed
        qids: list[int] = []
        lens: list[int] = []
        parts_d: list[np.ndarray] = []
        parts_p: list[np.ndarray] = []
        n_new = 0
        for qid, items in results.items():
            start = consumed.get(qid, 0)
            if start == len(items):
                continue
            consumed[qid] = len(items)
            st = states[qid]
            parts_d.append(st.cand_d)
            parts_p.append(st.cand_p)
            m = len(st.cand_d)
            for _, dd, pp in items[start:]:
                parts_d.append(dd)
                parts_p.append(pp)
                m += len(dd)
                n_new += len(dd)
            qids.append(qid)
            lens.append(m)
        if not qids:
            return
        self.tree.system.charge_cpu(n_new * _CPU_MERGE_OPS)
        d, p = np.concatenate(parts_d), np.concatenate(parts_p)
        sel, counts = segmented_topk(
            d, np.repeat(np.arange(len(qids)), lens), self.k, len(qids))
        d, p = d[sel], p[sel]
        s = 0
        for qid, c in zip(qids, counts.tolist()):
            st = states[qid]
            st.cand_d, st.cand_p = d[s:s + c], p[s:s + c]
            s += c

    def fetch_seeds(self):
        tree, k, metric, Q = self.tree, self.k, self.metric, self.Q
        n, dims = len(Q), tree.dims
        lens = np.array([len(st.cand_d) for st in self.states])
        r_exact = np.full(n, np.inf)
        if lens.any():
            seg = np.repeat(np.arange(n), lens)
            cand = np.concatenate([st.cand_p for st in self.states])
            d = _dist_rows(cand, Q[seg], metric)
            tree.system.charge_cpu(len(cand) * metric.cpu_ops_per_dim * dims)
            sel, counts = segmented_topk(d, seg, k, n)
            full = lens >= k
            kth = np.cumsum(counts) - 1
            r_exact[full] = d[sel[kth[full]]] * self.slack
        bound = r_exact * self.anchor
        cover = sphere_cover_mask(node_arena(tree), self.rows, Q, r_exact)
        start = lowest_rows(cover, self.rows, tree.root.row)
        tree.system.charge_cpu(self.n_trace * _CPU_TRACE_OPS)
        tasks, pts, pts_q = seed_knn_l0(tree, Q, start, self.coarse,
                                        bound=bound, r_exact=r_exact)
        self._l0_pts = (pts, pts_q)
        return tasks, bound.tolist(), r_exact.tolist()

    def answers(self, fetched) -> list:
        k, metric, Q = self.k, self.metric, self.Q
        n, dims = len(Q), self.tree.dims
        pts, pts_q = self._l0_pts
        l0_end = np.cumsum(np.bincount(pts_q, minlength=n)).tolist()
        parts: list[np.ndarray] = []
        lens: list[int] = []
        s = 0
        for qid, e in enumerate(l0_end):
            parts.append(pts[s:e])
            m = e - s
            for _, chunk in fetched.get(qid, ()):
                parts.append(chunk)
                m += len(chunk)
            lens.append(m)
            s = e
        allp = np.concatenate(parts)
        seg = np.repeat(np.arange(n), lens)
        d = _dist_rows(allp, Q[seg], metric)
        if len(allp):
            self.tree.system.charge_cpu(len(allp) * (
                metric.cpu_ops_per_dim * dims + max(1, int(np.log2(k + 1)))))
        sel, counts = segmented_topk(d, seg, k, n)
        d, allp = d[sel], allp[sel]
        answers = []
        s = 0
        for c in counts.tolist():
            answers.append((d[s:s + c], allp[s:s + c]) if c
                           else (np.empty(0), np.empty((0, dims))))
            s += c
        return answers


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def tie_slack(dims: int) -> float:
    """Relative inflation of the exact radius: ``γ_n = n·u / (1 − n·u)``
    with ``u`` the unit roundoff — the standard bound on ``n`` chained
    roundings, ``∏(1 + δ_i) ∈ [1 − γ_n, 1 + γ_n]``.

    A point ``p`` tying the k-th candidate has computed ℓ2 ≤ ``r``, so in
    the reals ``‖p − q‖₂ ≤ r·(1 + γ_{D+3})``: the |diff| rounding, the
    square, D − 1 additions and the square root.  Step 4 then compares
    the computed ℓ1 (``1 + γ_D``: D − 1 additions of rounded |diffs|)
    against ``fl(fl(r·s)·fl(√D))`` (three roundings), the computed ℓ∞
    against ``fl(r·s)``, and the real coordinates against the covering
    box's faces.  ``s = 1 + γ_n`` with ``n = D + (D + 3) + 3`` covers
    the ℓ1 chain, and with it the two shorter ones.
    """
    n = 2 * dims + 6
    nu = n * _UNIT_ROUNDOFF
    return nu / (1.0 - nu)


def _lowest_with_sc(trace: list[Node], threshold: int) -> Node | None:
    for node in reversed(trace):
        if node.sc >= threshold:
            return node
    return None


def _lowest_containing_sphere(tree, trace: list[Node], q: np.ndarray, r: float
                              ) -> Node:
    if math.isfinite(r):
        for node in reversed(trace):
            if tree.node_box(node).contains_sphere(q, r):
                return node
    return tree.root


def _child_box_dists(tree, left: Node, right: Node, q: np.ndarray,
                     coarse: Metric, want_linf: bool):
    """Coarse (and optionally ℓ∞) box distances for a sibling pair.

    One gap evaluation covers both children, and the ℓ∞ distance reuses
    the same gap array.  The row-wise formula is elementwise identical to
    :func:`dist_point_box`, so values are bitwise equal to the per-child
    scalar calls the L0 walk used to make.
    """
    bl = tree.node_box(left)
    br = tree.node_box(right)
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
    (ℓ1 ≤ √D·r) *and* the ℓ∞ secondary filter (ℓ∞ ≤ r — every true kNN
    satisfies ℓ∞ ≤ ℓ2 ≤ r, and the extra compare-only test shrinks the
    candidate superset from the ℓ1 cross-polytope to the r-cube).

    Box distances for both children of an expanded node are computed in a
    single vectorized call (:func:`_child_box_dists`) instead of one
    ``dist_point_box`` per child per pop — same values, same charges, same
    LLC touch order; only the host wall-clock changes.
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
        sys.touch_cpu_block(("pimzd", "l0", node.nid))
        if d is None:
            d = dist_point_box(q, tree.node_box(node), coarse)
            if use_linf:
                dlinf = dist_point_box(q, tree.node_box(node), LINF)
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
        # traversal order — the property the vectorized frontier kernels
        # rely on to charge the exact same simulated cost.
        radius = state.radius()
        local_d: list[np.ndarray] = []
        local_p: list[np.ndarray] = []
        stack = [task.node]
        while stack:
            node = stack.pop()
            ctx.visit_node(node)
            d = dist_point_box(state.q, tree.node_box(node), coarse)
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
            d = dist_point_box(state.q, tree.node_box(node), coarse)
            ctx.extra_work(2 * dims, coarse.pim_cycles_per_dim * dims)
            if d > bound:
                continue
            if use_linf:
                ctx.extra_work(2 * dims, LINF.pim_cycles_per_dim * dims)
                if dist_point_box(state.q, tree.node_box(node), LINF) > r_exact:
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
