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

from .node import Node
from .push_pull import TRACE_WORDS, PushPullExecutor
from .vexec import make_search_kernel, route_through_l0

__all__ = ["SearchResult", "search_batch", "route_through_l0"]


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


def search_batch(tree, points: np.ndarray, *, phase: str = "search"
                 ) -> list[SearchResult]:
    """SEARCH a batch of query points; returns one result per row."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not np.logical_and.reduce(np.isfinite(points), axis=None):
        raise ValueError("coordinates must be finite, got NaN or ±inf")
    sys = tree.system
    with sys.phase(phase):
        keys = tree.encode_keys(points)
        results = [SearchResult(i, int(k)) for i, k in enumerate(keys)]
        # Membership-filter routing (repro.route): point lookups and
        # delete planning may suppress descents for provably-absent keys.
        # Phases whose answers depend on the full descent (insert needs
        # the target leaf/edge; kNN needs the byte-identical trace) are
        # never pruned.  With a replicated L0 the hook's factory screens
        # the batch before routing; the executor calls it once per round.
        rf = tree.route_filters
        prune, live = None, results
        if rf is not None and phase in ("search", "delete"):
            prune, probed = rf.make_search_prune(results)
            live = [res for res in results if not res.pruned]
        tasks = route_through_l0(tree, live) if live else []
        if tasks:
            executor = PushPullExecutor(tree)
            executor.run(tasks, make_search_kernel(tree, results), prune=prune)
            tree.last_executor = executor
        if prune is not None:
            rf.account_search(results, probed)
        # The trace records land in host memory.
        sys.charge_cpu(len(results) * 2, span=np.log2(len(results) + 2))
    return results
