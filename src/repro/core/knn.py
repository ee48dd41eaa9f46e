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

Steps 2 and 4 run through the round kernels of :mod:`.vexec` — at the
modules for pushed groups, on the host for pulled ones — and the CPU's
steps as batch-wide array passes over the node arena (:class:`_ArrayHost`).

Ties at the bound.  Step 3 clears the candidate store, so step 4 must
fetch the very point that defined the radius — and every point tying
it.  In floats it may not: when the k-th neighbour sits at equal offset
in every coordinate, ℓ1 = √D·ℓ2 holds in the reals but the computed
``r·√D`` can land one ulp below the computed ℓ1 (an even lattice queried
at odd points returned *no* neighbour).  Step 3 therefore inflates the
exact radius once, by :func:`tie_slack` — the worst-case relative
rounding error of the computations on both sides of step 4's
comparisons — and the sphere-containment test, the anchored ℓ1 bound and
the ℓ∞ bound all read that one value (the ``exact_radii`` / ``bounds``
lists step 4's kernel receives).  Points
the slack lets in only widen the step-5 candidate set; the exact filter
still ranks them by their computed distance.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .geometry import L1, L2, Metric
from .push_pull import PushPullExecutor, Task
from .search import search_batch
from .vexec import (
    _dist_rows,
    l0_candidate_seeds,
    l0_fetch_seeds,
    lowest_rows,
    make_candidate_kernel,
    make_fetch_kernel,
    node_arena,
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
    # Validated before any charge.  A bool is an int, so it is refused
    # by name; NumPy integers are integers.
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise TypeError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not isinstance(metric, Metric):
        raise TypeError(f"metric must be a Metric (L1, L2, LINF), got {metric!r}")
    queries = np.asarray(queries, dtype=np.float64)
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
        host = _ArrayHost(tree, results, states, k, metric, coarse,
                          anchor_factor, 1.0 + tie_slack(dims))

        # ---- Step 2: candidate subtrees and coarse candidate search -----
        tasks = host.candidate_seeds()
        executor = PushPullExecutor(tree)
        # Membership-filter routing (repro.route): once per round, drop
        # the tasks into closed chunks whose resident z-range the current
        # coarse ball provably misses.
        rf = tree.route_filters
        # The round hook merges each round's candidates as it closes.
        executor.run(tasks, make_candidate_kernel(tree, states, coarse, k),
                     round_hook=host.merge,
                     prune=None if rf is None else rf.make_knn_prune(states))

        # ---- Step 3: exact radius + sphere-covering trace node ----------
        fetch_tasks, bounds, exact_radii = host.fetch_seeds()

        # ---- Step 4: fetch all points inside the (anchored) ball ---------
        executor2 = PushPullExecutor(tree)
        fetched = executor2.run(
            fetch_tasks,
            make_fetch_kernel(tree, states, coarse, bounds, exact_radii),
            prune=None if rf is None else rf.make_knn_prune(states, bounds),
        )
        tree.last_executor = executor2

        # ---- Step 5: exact filter on the CPU ------------------------------
        return host.answers(fetched)


# ----------------------------------------------------------------------
# the CPU's steps as batch-wide array passes
# ----------------------------------------------------------------------
class _ArrayHost:
    """Steps 2, 3 and 5 for the whole batch at once, over the node arena.

    The traces are one padded ``(query, depth)`` row matrix: step 2's
    start is the deepest row with ``sc ≥ 2k``, step 3's covering node the
    deepest row whose box contains the sphere (one masked compare and an
    ``argmax`` along depth).  Both L0 walks run at the L0 site, each
    query's start subtree in L0's table at once: step 2's candidate
    search (:func:`.vexec.l0_candidate_seeds`), whose ``"cand"`` items
    become the states' first candidates, and step 4's ball fetch
    (:func:`.vexec.l0_fetch_seeds`), whose ``"pts"`` items join the
    rounds'.
    The round-hook merge, step 3's k-th exact distance and step 5's
    answer are each one :func:`.vexec.segmented_topk`.  Charges and LLC
    touches equal the per-query oracle's (module docstring of
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

    def candidate_seeds(self) -> list[Task]:
        tree = self.tree
        tree.system.charge_cpu(self.n_trace * _CPU_TRACE_OPS)
        start = lowest_rows(self.sc >= 2 * self.k, self.rows, tree.root.row)
        tasks, cands = l0_candidate_seeds(tree, self.Q, start, self.coarse,
                                          self.k)
        for qid, ((_, d, p),) in cands.items():
            st = self.states[qid]
            st.cand_d, st.cand_p = d, p
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
        tasks, self._l0 = l0_fetch_seeds(tree, Q, start, self.coarse, bound,
                                         r_exact)
        return tasks, bound.tolist(), r_exact.tolist()

    def answers(self, fetched) -> list:
        k, metric, Q = self.k, self.metric, self.Q
        n, dims = len(Q), self.tree.dims
        l0 = self._l0
        parts: list[np.ndarray] = [np.empty((0, dims))]
        lens: list[int] = []
        for qid in range(n):
            m = 0
            for _, chunk in chain(l0.get(qid, ()), fetched.get(qid, ())):
                parts.append(chunk)
                m += len(chunk)
            lens.append(m)
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
