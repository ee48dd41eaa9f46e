"""Batch dynamic updates: INSERT (Alg. 2) and DELETE.

INSERT pipeline (the Alg. 2 rounds, with charges for each):

1. SEARCH the batch, recording traces on the CPU.
2. CPU groups keys by target (leaf, or compressed edge on divergence) —
   one semisort — and deduplicates conflicting new-node creations by
   construction (all keys targeting the same edge are merged together).
3. Lazy counters along all search paths are updated first (so that the
   exact counts of freshly created internal nodes can be derived from
   their children); one round then ships the new points to the master
   modules and performs the leaf merges / leaf splits / edge splits
   there; a second round links new parent–child pointers; two rounds
   refresh the L1 cached copies; promotions/demotions take two more.

Structural invariants preserved throughout: the tree stays a compressed
radix tree (every internal node has two children), leaves hold at most
``leaf_size`` points unless all keys are equal, counts are exact on master
nodes while replicated snapshots lag per the lazy-counter protocol
(Lemma 3.1), and layer assignment stays monotone along paths.

DELETE is symmetric: points are removed from leaves, empty leaves are
spliced out (the parent collapses onto the sibling — path compression is
maintained because nodes store absolute prefixes), and affected regions
are re-chunked.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter

import numpy as np

from ..faults.errors import FaultError
from ..pim import CHARGE_PIM, CHARGE_SEND
from .chunking import MetaNode, chunk_region
from .node import Layer, Node, node_words
from .search import search_batch
from .vexec import plan_leaf_deletions

__all__ = ["insert_batch", "delete_batch"]

_PIM_MERGE_CYCLES_PER_POINT = 10
_PIM_BUILD_CYCLES_PER_POINT = 14
_CPU_GROUP_OPS_PER_KEY = 8
_LINK_WORDS = 2  # one parent->child pointer update
_UNSET = object()
_DEPTH = attrgetter("depth")


class _BatchState:
    """Bookkeeping shared by one update batch."""

    __slots__ = ("new_nodes", "new_links", "cache_words", "pim")

    def __init__(self) -> None:
        self.new_nodes: set[int] = set()
        self.new_links = 0
        self.cache_words = 0.0
        # The merges' (module, cycles), booked after the last merge.
        self.pim: list[tuple[int, float]] = []


# ======================================================================
# INSERT
# ======================================================================
def insert_batch(tree, points: np.ndarray) -> None:
    """Insert a batch of points into the PIM-zd-tree."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[0] == 0:
        return
    if points.shape[1] != tree.dims:
        raise ValueError("dimension mismatch")
    if not np.logical_and.reduce(np.isfinite(points), axis=None):
        raise ValueError("coordinates must be finite, got NaN or ±inf")
    sys = tree.system
    # Write-ahead: journal the batch before any mutation; the COMMIT
    # marker lands only after the batch fully applied, so recovery replays
    # exactly the batches that completed (repro.store).
    journal = tree.journal
    wal_seq = None if journal is None else journal.log_insert(points)
    with sys.phase("insert"):
        results = search_batch(tree, points, phase="insert")

        # ---- Step 2 (CPU): group by target leaf / edge ------------------
        n = len(results)
        sys.charge_cpu(n * _CPU_GROUP_OPS_PER_KEY, span=np.log2(n + 2))
        sys.dram_stream(n * (tree.dims + 1))
        groups: dict[Node, list[int]] = defaultdict(list)
        batch = tree._batch_counter
        aux = []
        for res in results:
            target = res.leaf if res.leaf is not None else res.edge[1]
            groups[target].append(res.qid)
            aux += (("pimzd", "batchaux", batch, res.qid // 4),)
        # The batch's auxiliary structures (trace records, grouping
        # tables) occupy the LLC; very large batches evict the shared
        # upper-tree blocks — the Fig. 7 traffic uptick (§7.3).
        sys.touch_cpu_blocks(aux)

        # ---- Step 3e first: exact counts + lazy counters on the paths ----
        # (Counts must be current before new LCA internals copy them.)
        synced = _apply_path_deltas(tree, ((res, +1) for res in results))

        # ---- Step 3a/b: apply structural merges (one round + link round) --
        # Fault atomicity: every fault site in the round (the sends — drop
        # roll plus dead-module check; the merges' cycles can only address
        # a module a send already vetted this round) is charged *before*
        # the first merge mutates the tree.  If the round faults, no point
        # was merged, so undoing the step-3e count deltas restores the
        # exact pre-insert logical state and a retry (or a serving-layer
        # compensation) never sees a half-applied batch.  The merges'
        # cycles book in one more call after the last merge.
        state = _BatchState()
        try:
            with sys.round():
                staged = []
                writes = []
                for target, qids in groups.items():
                    karr = np.array(
                        [results[q].key for q in qids], dtype=np.uint64
                    )
                    order = np.argsort(karr, kind="stable")
                    keys = karr[order]
                    pts = points[qids][order]
                    if target.layer != Layer.L0 and target.meta is not None:
                        writes += ((target.meta,
                                    len(keys) * (tree.dims + 1)),)
                    staged.append((target, keys, pts))
                if writes:
                    _charge_writes(tree, writes)
                for target, keys, pts in staged:
                    _merge_target(tree, target, keys, pts, state)
                if state.pim:
                    sys.charge_sequence(CHARGE_PIM, *zip(*state.pim))
        except FaultError:
            with sys.faults_suppressed():
                _apply_path_deltas(tree, ((res, -1) for res in results))
            raise

        if state.new_links:
            with sys.round():
                sys.charge_comm_flat(state.new_links * _LINK_WORDS)

        # ---- Step 3c: refresh shared caching (two rounds) ----------------
        if state.cache_words:
            with sys.round():
                pass
            with sys.round():
                sys.charge_comm_flat(state.cache_words)

        # ---- Step 3d: promotions / demotions (two rounds) -----------------
        _apply_layer_transitions(tree, synced)

        tree.rechunk_stale()
    # Insert-only residency change: stage the new keys so the route
    # filters' rebuild (inside refresh_residency) can charge per new key.
    # A faulted batch never reaches here — its rollback goes through the
    # delete path, which does not stage.
    rf = tree.route_filters
    if rf is not None:
        rf.stage_inserts(
            np.array([res.key for res in results], dtype=np.uint64))
    tree.refresh_residency()
    if wal_seq is not None:
        journal.commit(wal_seq)


def _charge_writes(tree, writes: list[tuple[MetaNode, float]]) -> None:
    """Book an update round's sends in one call, per ``(meta, words)``
    its primary then its replica fan-out, and record in the ReplicaSet
    the sends that went through, as sending one by one would have."""
    reps = tree.replicas
    sends = []
    fanned = []  # (meta, words, index of its primary send, fan-out size)
    for meta, words in writes:
        secs = () if reps is None else reps.fan_out(meta)
        fanned += ((meta, words, len(sends), len(secs)),)
        sends += ((meta.module, words),)
        if secs:
            sends += [(mid, words) for mid in secs]
    reached = len(sends)
    try:
        tree.system.charge_sequence(CHARGE_SEND, *zip(*sends))
    except FaultError as e:
        reached = e.charge_index
        raise
    finally:
        if reps is not None:
            for meta, words, start, n_secs in fanned:
                if start < reached:
                    reps.on_write(meta, words,
                                  min(n_secs, reached - start - 1))


def _merge_target(tree, target: Node, keys: np.ndarray, pts: np.ndarray,
                  state: _BatchState) -> None:
    """Perform the structural merge for one target leaf or edge."""
    sys = tree.system
    on_module = target.layer != Layer.L0 and target.meta is not None
    mid = target.meta.module if on_module else None

    def charge(cycles: float) -> None:
        if on_module:
            state.pim += ((mid, cycles),)
        else:
            # Host cores retire roughly 4x the instructions per second of a
            # PIM core per the cost model; fold that into the op count.
            sys.charge_cpu(cycles / 4)

    kb = tree.key_bits
    lo, hi = target.key_range(kb)
    in_range = int(keys[0]) >= lo and int(keys[-1]) < hi
    # The merge may re-parent ``target`` under freshly built internals, so
    # the slot to patch must be captured *before* merging.
    orig_parent = target.parent

    if target.is_leaf and in_range:
        new_node = _merge_leaf(tree, target, keys, pts, state, charge,
                               count_from_path=True)
        if new_node is not target:
            _replace_child(tree, target, new_node, orig_parent)
            _assign_mixed(tree, new_node, orig_parent, state)
        return

    # Edge split (Alg. 2 step 2c): keys diverge inside the compressed edge
    # entering ``target``.
    new_top = _merge_edge(tree, target, keys, pts, state, charge)
    if new_top is not target:
        _replace_child(tree, target, new_top, orig_parent)
        _assign_mixed(tree, new_top, orig_parent, state)


def _merge_leaf(tree, leaf: Node, keys: np.ndarray, pts: np.ndarray,
                state: _BatchState, charge, *, count_from_path: bool) -> Node:
    """Merge sorted keys into a leaf; returns the (possibly new) subtree.

    With ``count_from_path`` the surviving leaf's count was already updated
    by the path-delta pass; otherwise (fresh divergence paths) the count is
    set here.
    """
    merged_keys = np.concatenate([leaf.keys, keys])
    merged_pts = np.vstack([leaf.pts, pts])
    order = np.argsort(merged_keys, kind="stable")
    merged_keys = merged_keys[order]
    merged_pts = merged_pts[order]
    total = len(merged_keys)
    charge(total * _PIM_MERGE_CYCLES_PER_POINT)
    all_equal = int(merged_keys[0]) == int(merged_keys[-1])
    if total <= tree.config.leaf_size or all_equal:
        leaf.keys = merged_keys
        leaf.pts = merged_pts
        if not count_from_path:
            leaf.count = total
            leaf.sc = total
            leaf.delta = 0
        if leaf.meta is not None:
            leaf.meta.payload_words += len(keys) * (tree.dims + 1)
            if leaf.meta.layer == Layer.L1:
                state.cache_words += (
                    len(keys) * (tree.dims + 1) * leaf.meta.replica_count()
                )
        return leaf
    # Leaf split: rebuild the leaf into a fresh subtree.
    charge(total * _PIM_BUILD_CYCLES_PER_POINT * max(1, int(np.log2(total + 1))))
    new_root = _build_fresh(tree, merged_keys, merged_pts, leaf.depth, state)
    _retire_node(tree, leaf)
    state.new_links += 1
    return new_root


def _merge_edge(tree, node: Node, keys: np.ndarray, pts: np.ndarray,
                state: _BatchState, charge) -> Node:
    """Merge sorted diverging keys around ``node``'s compressed edge.

    Returns the node that should replace ``node`` in its parent slot.
    """
    if len(keys) == 0:
        return node
    kb = tree.key_bits
    lo, hi = node.key_range(kb)
    i0 = int(np.searchsorted(keys, np.uint64(lo))) if lo > 0 else 0
    i1 = int(np.searchsorted(keys, np.uint64(hi))) if hi < (1 << 64) else len(keys)
    if i0 == 0 and i1 == len(keys):
        # All keys inside node's range.  SEARCH routed diverging keys here,
        # so this only happens for leaves (or for ranges created earlier in
        # this very merge).
        if node.is_leaf:
            return _merge_leaf(tree, node, keys, pts, state, charge,
                               count_from_path=node.nid not in state.new_nodes)
        split_bit = kb - node.depth - 1
        threshold = ((node.prefix << 1) | 1) << split_bit
        mid = int(np.searchsorted(keys, np.uint64(threshold)))
        old = node.left.count + node.right.count
        node.left = _merge_edge(tree, node.left, keys[:mid], pts[:mid], state, charge)
        node.right = _merge_edge(tree, node.right, keys[mid:], pts[mid:], state, charge)
        node.left.parent = node
        node.right.parent = node
        grown = node.left.count + node.right.count - old
        node.count += grown
        node.sc = node.count
        node.delta = 0
        return node

    # True divergence: build the LCA internal node (charging the site).
    span_lo = min(int(keys[0]), lo)
    span_hi = max(int(keys[-1]), hi - 1)
    d = kb - (span_lo ^ span_hi).bit_length()
    prefix = span_lo >> (kb - d)
    split_bit = kb - d - 1
    threshold = ((prefix << 1) | 1) << split_bit
    mid = int(np.searchsorted(keys, np.uint64(threshold)))
    node_on_right = bool((lo >> split_bit) & 1)
    charge(8)
    lca = Node(tree.new_nid(), prefix, d)
    state.new_nodes.add(lca.nid)
    if node_on_right:
        left = _build_fresh(tree, keys[:mid], pts[:mid], d + 1, state, charge)
        right = _merge_edge(tree, node, keys[mid:], pts[mid:], state, charge)
    else:
        left = _merge_edge(tree, node, keys[:mid], pts[:mid], state, charge)
        right = _build_fresh(tree, keys[mid:], pts[mid:], d + 1, state, charge)
    lca.left = left
    lca.right = right
    left.parent = lca
    right.parent = lca
    lca.count = left.count + right.count
    lca.sc = lca.count
    state.new_links += 2
    return lca


def _build_fresh(tree, keys: np.ndarray, pts: np.ndarray, base_depth: int,
                 state: _BatchState, charge=None) -> Node:
    """Build a brand-new subtree and tag every node as new."""
    n = len(keys)
    if charge is not None:
        charge(n * _PIM_BUILD_CYCLES_PER_POINT * max(1, int(np.log2(n + 1))))
    root = tree._build_nodes(keys, pts, base_depth)
    stack = [root]
    while stack:
        nd = stack.pop()
        state.new_nodes.add(nd.nid)
        if not nd.is_leaf:
            stack.append(nd.left)
            stack.append(nd.right)
    return root


def _replace_child(tree, old: Node, new: Node, parent: Node | None = _UNSET) -> None:
    """Patch ``parent``'s child slot from ``old`` to ``new``.

    ``parent`` must be the *pre-merge* parent of ``old`` when the merge may
    have re-parented ``old`` (edge splits nest the old node under a fresh
    LCA); defaulting to ``old.parent`` is only safe otherwise.
    """
    if new is old:
        return
    if parent is _UNSET:
        parent = old.parent
    new.parent = parent
    # A new root has no parent whose row would lead the arena to it.
    tree.mark_dirty(new if parent is None else parent)
    if parent is None:
        tree.root = new
        return
    if parent.left is old:
        parent.left = new
    elif parent.right is old:
        parent.right = new
    else:  # pragma: no cover - structural corruption guard
        raise RuntimeError("child replacement: old node not found under parent")


def _leave_meta(tree, node: Node) -> MetaNode | None:
    """Take ``node`` out of its chunk's bookkeeping; returns that chunk."""
    meta = node.meta
    if meta is not None:
        # Marked while ``node`` (possibly the root) still belongs to it, so
        # the chunk itself is named even when its root is the one leaving.
        tree.mark_dirty(meta.root)
        meta.n_nodes -= 1
        meta.payload_words -= node_words(node, tree.dims)
        node.meta = None
        tree.mark_dirty(node)
    return meta


def _retire_node(tree, node: Node) -> None:
    """Remove one node from the tree and from chunk bookkeeping."""
    tree.mark_removed(node)
    meta = _leave_meta(tree, node)
    if meta is not None and meta.root is node:
        tree.mark_stale(meta)


# ----------------------------------------------------------------------
# layer + meta assignment for mixed new/old chains
# ----------------------------------------------------------------------
def _assign_mixed(tree, node: Node, parent: Node | None, state: _BatchState) -> None:
    """Assign layers and meta-nodes to the new nodes reachable from ``node``.

    ``node`` may head a chain mixing fresh nodes (LCA internals, rebuilt
    subtrees) with pre-existing subtrees that keep their chunks; the walk
    stops at old nodes, only fixing their meta-tree parent links.
    """
    if node.nid not in state.new_nodes:
        _fix_old_subtree_links(tree, node, parent)
        return
    raw = tree.layer_from_sc(node.sc)
    node.layer = raw if parent is None else Layer(max(raw, parent.layer))
    if node.layer == Layer.L0:
        node.meta = None
        tree.feed.touch_l0(node)
        words = node_words(node, tree.dims)
        if tree.l0_on_cpu:
            tree.system.charge_cpu(words)
        else:
            tree.system.charge_comm_flat(words * tree.system.n_modules)
    else:
        candidate = (
            parent.meta
            if parent is not None and parent.meta is not None and parent.meta in tree.metas
            else None
        )
        joined = False
        if (
            candidate is not None
            and candidate.layer == node.layer
            and node.sc > candidate.root.sc / max(1, tree.config.chunk_factor)
        ):
            node.meta = candidate
            candidate.n_nodes += 1
            candidate.payload_words += node_words(node, tree.dims)
            tree.mark_dirty(candidate.root)
            joined = True
            if candidate.layer == Layer.L1:
                state.cache_words += node_words(node, tree.dims) * candidate.replica_count()
        if not joined:
            meta = MetaNode(node, tree.system.place(("meta", node.nid)))
            node.meta = meta
            meta.n_nodes = 1
            meta.payload_words = node_words(node, tree.dims)
            tree._add_meta(meta, max(1, node.sc))
            _relink_meta_parent(tree, meta, candidate)
            if meta.layer == Layer.L1:
                state.cache_words += meta.size_words(tree.config) * meta.replica_count()
    if not node.is_leaf:
        _assign_mixed(tree, node.left, node, state)
        _assign_mixed(tree, node.right, node, state)


def _fix_old_subtree_links(tree, node: Node, parent: Node | None) -> None:
    """Re-point an old subtree's chunk at its (possibly new) meta parent."""
    if node.meta is None or node.meta not in tree.metas:
        return
    desired = None
    if parent is not None and parent.layer != Layer.L0 and parent.meta in tree.metas:
        desired = parent.meta
    if node.meta.root is node:
        if node.meta is not desired:
            _relink_meta_parent(tree, node.meta, desired)
    elif node.meta is not desired:
        # The node is a mid-chunk member now separated from its chunk root:
        # connectivity is broken until the region re-chunks.
        tree.mark_stale(node.meta)


def _relink_meta_parent(tree, child: MetaNode, new_parent: MetaNode | None) -> None:
    if child.parent is new_parent:
        return
    # The L1 caches of both the old and the new relatives change.
    tree.feed.touch_family(child)
    sub_l1 = child.l1_desc_metas + (1 if child.layer == Layer.L1 else 0)
    old = child.parent
    if old is not None:
        if child in old.children:
            old.children.remove(child)
        anc = old
        while anc is not None:
            anc.l1_desc_metas -= sub_l1
            anc = anc.parent
    child.parent = new_parent
    if new_parent is not None:
        new_parent.children.append(child)
        anc = new_parent
        while anc is not None:
            anc.l1_desc_metas += sub_l1
            anc = anc.parent
    tree.feed.touch_family(child)


# ----------------------------------------------------------------------
# counters + transitions
# ----------------------------------------------------------------------
def _apply_path_deltas(tree, results_with_sign) -> list[Node]:
    """Update exact counts and lazy counters along all search paths.

    ``results_with_sign`` yields ``(SearchResult, ±per-key delta)``.
    Returns nodes whose snapshots synced (transition candidates).
    """
    deltas: dict[Node, int] = defaultdict(int)
    batch = tree._batch_counter
    aux = []
    for res, sign in results_with_sign:
        aux += (("pimzd", "batchaux", batch, res.qid // 4),)
        for node in res.trace:
            deltas[node] += sign
    # Second pass over the batch's trace records: for batches whose
    # auxiliary structures exceed the LLC this re-read misses — the
    # Fig. 7 large-batch traffic uptick (§7.3).
    tree.system.touch_cpu_blocks(aux)
    tree.system.charge_cpu(len(deltas) * 4)
    return tree.record_count_changes(deltas)


def _apply_layer_transitions(tree, synced: list[Node]) -> None:
    """Alg. 2 step 3d: promote/demote nodes whose snapshots crossed θ."""
    if not synced:
        return
    sys = tree.system
    moved_any = False
    for node in sorted(synced, key=_DEPTH):
        new_layer = tree.clamped_layer(node)
        if new_layer == node.layer or tree._node_detached(node):
            continue
        old_layer = node.layer
        moved_any = True
        if new_layer == Layer.L0:
            # Promotion into L0: broadcast the node, re-chunk its region.
            meta = _leave_meta(tree, node)  # also marks the node's arena row
            if meta is not None:
                tree.mark_stale(meta)
            node.layer = Layer.L0
            words = node_words(node, tree.dims)
            if tree.l0_on_cpu:
                sys.charge_cpu(words)
            else:
                sys.charge_comm_flat(words * sys.n_modules)
        elif old_layer == Layer.L0:
            # Leaving L0 demotes any still-L0 descendants too (layer
            # monotonicity): re-layer the subtree before re-chunking it.
            node.layer = new_layer
            tree._assign_layers_subtree(
                node, node.parent.layer if node.parent is not None else None
            )
            tree.force_rechunk_region(node)
        else:
            # L1 <-> L2: re-layer the (θ-sized) subtree, re-chunk its region.
            tree._assign_layers_subtree(
                node, node.parent.layer if node.parent is not None else None
            )
            if node.meta is not None:
                tree.mark_stale(node.meta)
    if moved_any:
        with sys.round():
            pass
        with sys.round():
            pass


# ======================================================================
# DELETE
# ======================================================================
def delete_batch(tree, points: np.ndarray) -> int:
    """Delete all stored points exactly equal to each query point.

    Returns the number of points removed.  The tree must keep ≥ 1 point.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[0] == 0:
        return 0
    if points.shape[1] != tree.dims:
        raise ValueError("dimension mismatch")
    if not np.logical_and.reduce(np.isfinite(points), axis=None):
        raise ValueError("coordinates must be finite, got NaN or ±inf")
    sys = tree.system
    before = tree.root.count
    # Write-ahead, committed only after the batch applied (see insert).
    journal = tree.journal
    wal_seq = None if journal is None else journal.log_delete(points)
    with sys.phase("delete"):
        results = search_batch(tree, points, phase="delete")
        n = len(results)
        sys.charge_cpu(n * _CPU_GROUP_OPS_PER_KEY, span=np.log2(n + 2))

        groups: dict[Node, list[int]] = defaultdict(list)
        for res in results:
            if res.leaf is not None:
                groups[res.leaf].append(res.qid)
        removal_count: dict[int, int] = {}
        emptied: list[Node] = []

        # ---- Plan pass (CPU-side bookkeeping, no mutation yet): decide
        # which stored points go, so a batch that would empty the tree is
        # rejected *before* any structural change.
        plans: list[tuple[Node, np.ndarray, int]] = []
        total_removed = 0
        for leaf, qids in groups.items():
            keep = plan_leaf_deletions(leaf, qids, results, points,
                                       removal_count)
            n_removed = int((~keep).sum())
            total_removed += n_removed
            plans.append((leaf, keep, n_removed))
        if total_removed >= tree.root.count:
            raise ValueError(
                "delete would empty the tree; PIM-zd-tree requires >= 1 point"
            )

        # ---- Apply pass (one round): remove the points on the modules.
        # Fault atomicity, as in insert_batch: every fault site of the
        # round (the sends and the replica fan-out) is charged before the
        # first leaf shrinks, so a faulted round has mutated nothing; the
        # leaves' cycles book in one more call after the last leaf.
        with sys.round():
            writes = [(leaf.meta, len(groups[leaf]) * (tree.dims + 1))
                      for leaf, _keep, _n_removed in plans
                      if leaf.layer != Layer.L0 and leaf.meta is not None]
            if writes:
                _charge_writes(tree, writes)
            pim = []
            for leaf, keep, n_removed in plans:
                qids = groups[leaf]
                if leaf.layer != Layer.L0 and leaf.meta is not None:
                    pim += ((leaf.meta.module, leaf.count * len(qids) * 2),)
                else:
                    sys.charge_cpu(leaf.count * len(qids))
                if n_removed == 0:
                    continue
                if leaf.meta is not None:
                    leaf.meta.payload_words -= n_removed * (tree.dims + 1)
                if keep.any():
                    leaf.keys = leaf.keys[keep]
                    leaf.pts = leaf.pts[keep]
                else:
                    emptied.append(leaf)
            if pim:
                sys.charge_sequence(CHARGE_PIM, *zip(*pim))

        # Counts first (so splice decisions and transitions see exact sizes).
        def with_signs():
            for res in results:
                removed = removal_count.get(res.qid, 0)
                if removed:
                    yield res, -removed

        synced = _apply_path_deltas(tree, with_signs())

        for leaf in emptied:
            _splice_out_leaf(tree, leaf)

        _apply_layer_transitions(tree, synced)
        tree.rechunk_stale()
    tree.refresh_residency()
    if tree.root.count == 0:
        raise ValueError("delete emptied the tree; PIM-zd-tree requires >= 1 point")
    if wal_seq is not None:
        journal.commit(wal_seq)
    return before - tree.root.count


def _splice_out_leaf(tree, leaf: Node) -> None:
    """Remove an emptied leaf; collapse its parent onto the sibling."""
    parent = leaf.parent
    _retire_node(tree, leaf)
    if parent is None:
        raise ValueError("delete would empty the tree")
    sibling = parent.right if parent.left is leaf else parent.left
    tree.mark_removed(parent)
    meta = _leave_meta(tree, parent)
    needs_region_fix = (
        meta is None or meta.root is parent or sibling.meta is not meta
    )
    if meta is not None and needs_region_fix:
        tree.mark_stale(meta)
    _replace_child(tree, parent, sibling)
    tree.system.charge_comm_flat(_LINK_WORDS)
    if sibling.parent is None:
        # Sibling became the tree root.  When the collapsed parent was a
        # chunk root, its meta is now rootless while survivors under the
        # sibling may still reference it, so the region must be rebuilt
        # immediately — rechunk_stale would otherwise discard the meta
        # (detached root) and leave those references dangling.
        if sibling.layer != Layer.L0:
            if needs_region_fix:
                tree.force_rechunk_region(sibling)
            elif sibling.meta is not None:
                tree.mark_stale(sibling.meta)
        return
    if needs_region_fix and sibling.layer != Layer.L0:
        tree.force_rechunk_region(sibling)
