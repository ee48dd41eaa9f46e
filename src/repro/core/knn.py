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
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import L1, L2, LINF, Metric, dist, dist_point_box
from .node import Layer, Node
from .push_pull import PushPullExecutor, Task
from .search import search_batch
from .vexec import (
    make_candidate_round_kernel,
    make_fetch_round_kernel,
    node_arena,
)

__all__ = ["knn_batch"]

_CPU_TRACE_OPS = 2
_CPU_MERGE_OPS = 14  # per candidate heap merge step


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

    with sys.phase("knn"):
        results = search_batch(tree, queries, phase="knn")
        states = [_KnnState(queries[i], k, dims) for i in range(len(queries))]

        # ---- Step 2: candidate subtrees and coarse candidate search -----
        tasks: list[Task] = []
        for res in results:
            sys.charge_cpu(len(res.trace) * _CPU_TRACE_OPS)
            start = _lowest_with_sc(res.trace, 2 * k) or tree.root
            _seed_from(tree, start, res.qid, states[res.qid], coarse, tasks,
                       mode="candidates")
        executor = PushPullExecutor(tree)
        hook = _make_merge_hook(tree, states, k)
        cand_handler = _make_candidate_handler(tree, states, coarse, k)
        if tree.config.exec_mode == "vectorized":
            cand_handler.round_kernel = make_candidate_round_kernel(
                tree, states, coarse, k
            )
        # Membership-filter routing (repro.route): suppress candidate
        # probes into closed chunks whose resident z-range the current
        # coarse ball provably misses.
        rf = tree.route_filters
        use_rf = rf is not None and rf.enabled
        out = executor.run(tasks, cand_handler, round_hook=hook,
                           prune=rf.make_knn_prune(states) if use_rf else None)
        hook(out)  # merge any CPU-seeded results not covered by rounds

        # ---- Step 3: exact radius + sphere-covering trace node ----------
        fetch_tasks: list[Task] = []
        bounds: list[float] = []
        exact_radii: list[float] = []
        for res in results:
            st = states[res.qid]
            if len(st.cand_d) == 0:
                r_exact = math.inf
            else:
                exact = np.sort(dist(st.cand_p, st.q, metric))
                sys.charge_cpu(len(exact) * metric.cpu_ops_per_dim * dims)
                kk = min(k, len(exact))
                r_exact = float(exact[kk - 1]) if len(st.cand_d) >= k else math.inf
            bound = r_exact * anchor_factor if math.isfinite(r_exact) else math.inf
            bounds.append(bound)
            exact_radii.append(r_exact)
            n2 = _lowest_containing_sphere(tree, res.trace, st.q, r_exact)
            sys.charge_cpu(len(res.trace) * _CPU_TRACE_OPS)
            # Reset candidate store: step 4 re-fetches the full ball.
            st.cand_d = np.empty(0)
            st.cand_p = np.empty((0, dims))
            _seed_from(tree, n2, res.qid, st, coarse, fetch_tasks,
                       mode="fetch", bound=bound, r_exact=r_exact)

        # ---- Step 4: fetch all points inside the (anchored) ball ---------
        executor2 = PushPullExecutor(tree)
        fetch_handler = _make_fetch_handler(tree, states, coarse, bounds,
                                            exact_radii)
        if tree.config.exec_mode == "vectorized":
            fetch_handler.round_kernel = make_fetch_round_kernel(
                tree, states, coarse, bounds, exact_radii
            )
        fetched = executor2.run(
            fetch_tasks, fetch_handler,
            prune=rf.make_knn_prune(states, bounds) if use_rf else None,
        )
        tree.last_executor = executor2

        # ---- Step 5: exact filter on the CPU ------------------------------
        answers = []
        for res in results:
            st = states[res.qid]
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
# helpers
# ----------------------------------------------------------------------
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

    In vectorized mode the stacked ``(2, dims)`` lo/hi arrays are the two
    children's rows of the node arena (:mod:`.vexec` — the same
    ``prefix_box_batch`` values ``node_box`` computes one at a time);
    the reference mode never builds an arena and stacks the two boxes.
    """
    if tree.config.exec_mode == "vectorized":
        arena = node_arena(tree)
        rows = (left.row, right.row)
        lo, hi = arena.lo.take(rows, axis=0), arena.hi.take(rows, axis=0)
    else:
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
