"""Batched top-down SEARCH (Alg. 1).

SEARCH locates, for each query point, the leaf whose key range contains the
point's Morton key — the preprocessing step of updates, kNN and range
queries.  The batch traverses L0 on the host (or, when L0 is replicated
because it outgrew the LLC, on the PIM modules in one round), then descends
through L1/L2 with push-pull at meta-node granularity.

Because the tree is a *compressed* radix tree, a key can diverge from the
structure in the middle of a compressed edge; SEARCH detects this (the key
falls outside the child's range) and reports the edge instead of a leaf —
INSERT uses exactly this to split edges (Alg. 2 step 2c).

The search trace (the nodes visited, with their lazy counters) is recorded
on the CPU (Alg. 2 step 1): per meta-node segment the module ships the
segment endpoints plus the k-threshold crossing point, which we charge as
``TRACE_WORDS`` per segment; the host-side trace list holds the full node
path, which the real system reconstructs from those segment records.
"""

from __future__ import annotations

import numpy as np

from .node import Layer, Node
from .push_pull import PushPullExecutor, Task, CPU_NODE_OPS

__all__ = ["SearchResult", "search_batch", "route_through_l0"]

TRACE_WORDS = 3  # segment start, segment end, counter-crossing node
_L0_PIM_CYCLES_PER_NODE = 10


class SearchResult:
    """Outcome of one top-down search.

    Exactly one of the two shapes holds:

    * ``leaf`` is set — the key lies inside ``leaf``'s range;
    * ``edge`` is set to ``(parent, child)`` — the key diverges from the
      compressed edge entering ``child`` (``parent is None`` means the key
      diverges above the root).
    """

    __slots__ = ("qid", "key", "leaf", "edge", "trace", "pruned")

    def __init__(self, qid: int, key: int) -> None:
        self.qid = qid
        self.key = key
        self.leaf: Node | None = None
        self.edge: tuple[Node | None, Node] | None = None
        self.trace: list[Node] = []
        # Membership-filter verdict (repro.route): the descent was
        # suppressed because the key is provably absent.  Consumers treat
        # this exactly like a key that searched to a miss.
        self.pruned = False


def route_through_l0(tree, results: list[SearchResult]) -> list[Task]:
    """Traverse the globally-shared layer for every query (Alg. 1 step 1).

    Returns the border tasks entering L1/L2.  Terminal outcomes (leaf or
    edge divergence inside L0) are written into ``results`` directly.
    """
    if tree.config.exec_mode == "vectorized":
        from .vexec import route_through_l0_vec

        return route_through_l0_vec(tree, results)

    sys = tree.system
    kb = tree.key_bits
    tasks: list[Task] = []
    on_cpu = tree.l0_on_cpu

    def step(res: SearchResult) -> tuple[Node, Node] | None:
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
                sys.touch_cpu_block(("pimzd", "l0", node.nid))
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
            sys.send(mid, 2)
            out = step(res)
            depth = len(res.trace)
            sys.charge_pim(mid, depth * _L0_PIM_CYCLES_PER_NODE)
            sys.recv(mid, TRACE_WORDS)
            if out is not None:
                tasks.append(Task(res.qid, out[1].meta, out[1]))
    return tasks


def make_search_handler(tree, results: list[SearchResult]):
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


def search_batch(tree, points: np.ndarray, *, phase: str = "search"
                 ) -> list[SearchResult]:
    """SEARCH a batch of query points; returns one result per row."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    sys = tree.system
    with sys.phase(phase):
        keys = tree.encode_keys(points)
        results = [SearchResult(i, int(k)) for i, k in enumerate(keys)]
        # Membership-filter routing (repro.route): point lookups and
        # delete planning may suppress descents for provably-absent keys.
        # Phases whose answers depend on the full descent (insert needs
        # the target leaf/edge; kNN needs the byte-identical trace) are
        # never pruned.  With a replicated L0 even the routing round is a
        # send, so the global filter gates it; a host-resident L0 walks
        # for free and queries are screened at their first L1/L2 task.
        rf = tree.route_filters
        use_rf = (rf is not None and rf.enabled
                  and phase in ("search", "delete"))
        live, pre_probed = results, None
        if use_rf and not tree.l0_on_cpu:
            live, pre_probed = rf.prune_l0_route(results)
        tasks = route_through_l0(tree, live) if live else []
        prune = rf.make_search_prune(results, pre_probed) if use_rf else None
        if tasks:
            executor = PushPullExecutor(tree)
            handler = make_search_handler(tree, results)
            if tree.config.exec_mode == "vectorized":
                from .vexec import make_search_round_kernel

                handler.round_kernel = make_search_round_kernel(tree, results)
            executor.run(tasks, handler, prune=prune)
            tree.last_executor = executor
        if prune is not None:
            rf.account_search(results, prune.probed)
        # The trace records land in host memory.
        sys.charge_cpu(len(results) * 2, span=np.log2(len(results) + 2))
    return results
