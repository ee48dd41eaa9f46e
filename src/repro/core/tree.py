"""The PIM-zd-tree facade: construction, layering, chunk maintenance.

This class owns the canonical tree structure and all bookkeeping the
operation modules (:mod:`.search`, :mod:`.update`, :mod:`.knn`,
:mod:`.range_query`) rely on:

* building the compressed zd-tree from the initial points and *uploading*
  it to the simulated PIM system;
* the three-layer assignment (§3.1) — layers are derived from the lazy
  counters against θ_L0/θ_L1 and clamped to be monotone along root-to-leaf
  paths (a child is never in a higher layer than its parent);
* meta-node chunking and its amortised maintenance: chunks are rebuilt for
  a region when its root's lazy counter drifts by 2× from the value the
  chunk was built at, mirroring the amortisation of §3.2;
* lazy counters (§3.4): ``record_count_changes`` applies a batch's count
  deltas — one arena scatter, marks only for leaves and synced chunk
  roots — and triggers snapshot syncs per the Table 1 thresholds,
  charging replica updates (L0 broadcast; L1 cached copies) when they
  fire;
* residency accounting per module for the Theorem 5.1 space bounds, kept
  in proportion to each batch by the chunk-change feed of
  :mod:`.residency`.
"""

from __future__ import annotations

import numpy as np

from ..pim.cost_model import PIMCostModel, upmem_scaled
from ..pim.model import CHARGE_SEND, PIMSystem
from .chunking import MetaNode, chunk_region
from .config import PIMZdTreeConfig, throughput_optimized
from .geometry import L2, Metric
from .morton import MortonCodec, max_bits_per_dim
from .node import Layer, Node, node_words, subtree_nodes
from .residency import ResidencyFeed, WordLedger, residency_from_scratch
from .vexec import NodeArena, check_arena

__all__ = ["PIMZdTree"]

_SYNC_WORDS = 2  # one counter update message: node address + value


class PIMZdTree:
    """Batch-dynamic zd-tree distributed over a simulated PIM system."""

    # The optional serving tiers (repro.replicate.ReplicaSet,
    # repro.route.RouteFilterSet), set as one attaches; see ``tiers``.
    replicas = None
    route_filters = None

    def __init__(
        self,
        points: np.ndarray,
        *,
        config: PIMZdTreeConfig | None = None,
        system: PIMSystem | None = None,
        cost_model: PIMCostModel | None = None,
        bounds: tuple[np.ndarray, np.ndarray] | None = None,
        bits: int | None = None,
    ) -> None:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[0] == 0:
            raise ValueError("PIMZdTree requires at least one initial point")
        # Quantizing would clip a NaN or ±inf coordinate to a corner of the
        # key space; every entry point refuses one with one reduction.
        if not np.logical_and.reduce(np.isfinite(points), axis=None):
            raise ValueError("coordinates must be finite, got NaN or ±inf")
        self.dims = points.shape[1]
        self.system = system if system is not None else PIMSystem(64)
        if config is None:
            config = throughput_optimized(len(points), self.system.n_modules)
        self.config = config
        if cost_model is None:
            cost_model = upmem_scaled(self.system.n_modules)
        self.cost_model = cost_model.with_direct_api(config.direct_api)

        if bounds is not None:
            lo, hi = bounds
            self.codec = MortonCodec(
                lo, hi, self.dims, bits or max_bits_per_dim(self.dims))
        else:
            self.codec = MortonCodec.fit(points, bits)
        self.key_bits = self.codec.key_bits

        self._next_nid = 0
        self._batch_counter = 0
        self._l0_route_salt = 0
        self.metas: set[MetaNode] = set()
        self._stale_metas: set[MetaNode] = set()
        # Lazy-counter value of each meta root at chunk-build time, for the
        # 2x staleness rule that amortises re-chunking (§3.2).
        self._meta_built_sc: dict[MetaNode, int] = {}
        # What changed since the last refresh_residency, and the per-chunk
        # word accounting that reads it (repro.core.residency).
        self.feed = ResidencyFeed()
        self._ledger = WordLedger(self)
        self.last_executor = None
        # Derived read-side view: the round kernels' node arena
        # (repro.core.vexec.NodeArena), built by its first flush and
        # kept current through the mark_* hooks below.
        self._arena = NodeArena(self)
        # Write-ahead journal (repro.store): attached by DurableStore so
        # insert/delete append before mutating; None means no durability.
        self.journal = None

        with self.system.phase("build"):
            keys = self.encode_keys(points)
            order = np.argsort(keys, kind="stable")
            n = len(keys)
            self.system.charge_cpu(n * max(1, int(np.log2(n + 1))) * 4)
            self.system.dram_stream(n * (self.dims + 1))
            self.root: Node = self._build_nodes(keys[order], points[order], 0)
            self._layer_subtree(self.root, parent_layer=None)
            self._chunk_everything()
            self._decide_l0_mode()
            self._upload()
        self.refresh_residency()

    # ==================================================================
    # key encoding
    # ==================================================================
    def encode_keys(self, points: np.ndarray) -> np.ndarray:
        """Morton-encode ``points``, charging CPU work per the z-order mode.

        Fast mode costs O(log bits) word operations per dimension (§6);
        naive interleaving costs O(bits) — the Table 3 "Fast z-order"
        ablation flips this switch.  Both yield the same keys, so only the
        charge differs.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        n = len(points)
        keys = self.codec.encode(points)
        if self.config.fast_zorder:
            # O(log bits) shift/mask stages per dimension (§6).
            self.system.charge_cpu(
                n * (self.dims * 4 * max(1, int(np.log2(self.codec.bits))) + 8)
            )
        else:
            # Bit-by-bit interleaving: extract, shift, or — per key bit.
            self.system.charge_cpu(n * (8 * self.key_bits + self.dims))
        self.system.dram_stream(n * self.dims)
        return keys

    # ==================================================================
    # construction helpers
    # ==================================================================
    def new_nid(self) -> int:
        self._next_nid += 1
        return self._next_nid

    def _build_nodes(self, keys: np.ndarray, pts: np.ndarray, base_depth: int) -> Node:
        """Recursively build a compressed subtree from sorted keys."""
        n = len(keys)
        kb = self.key_bits
        first = int(keys[0])
        last = int(keys[-1])
        cp = kb - (first ^ last).bit_length() if first != last else kb
        if n <= self.config.leaf_size or cp >= kb:
            prefix = first >> (kb - base_depth) if base_depth else 0
            node = Node(self.new_nid(), prefix, base_depth)
            node.keys = keys.copy()
            node.pts = pts.copy()
            node.count = n
            node.sc = n
            return node
        depth = cp
        prefix = first >> (kb - depth)
        split_bit = kb - depth - 1
        threshold = ((prefix << 1) | 1) << split_bit
        idx = int(np.searchsorted(keys, np.uint64(threshold)))
        node = Node(self.new_nid(), prefix, depth)
        node.left = self._build_nodes(keys[:idx], pts[:idx], depth + 1)
        node.right = self._build_nodes(keys[idx:], pts[idx:], depth + 1)
        node.left.parent = node
        node.right.parent = node
        node.count = n
        node.sc = n
        return node

    # ==================================================================
    # layers (§3.1)
    # ==================================================================
    def layer_from_sc(self, sc: int) -> Layer:
        if sc >= self.config.theta_l0:
            return Layer.L0
        if sc >= self.config.theta_l1:
            return Layer.L1
        return Layer.L2

    def clamped_layer(self, node: Node) -> Layer:
        """Layer from the lazy counter, kept monotone under the parent."""
        raw = self.layer_from_sc(node.sc)
        parent = node.parent
        if parent is None or raw >= parent.layer:
            return raw
        return parent.layer

    def _assign_layers_subtree(self, node: Node, parent_layer: Layer | None) -> None:
        self.mark_dirty_subtree(node)
        self._layer_subtree(node, parent_layer)

    def _layer_subtree(self, node: Node, parent_layer: Layer | None) -> None:
        """Layer every node at or below ``node`` (unmarked: the build,
        whose first refresh reads the whole tree anyway)."""
        stack = [(node, parent_layer)]
        while stack:
            nd, above = stack.pop()
            raw = self.layer_from_sc(nd.sc)
            nd.layer = raw if above is None else Layer(max(raw, above))
            if not nd.is_leaf:
                stack.append((nd.left, nd.layer))
                stack.append((nd.right, nd.layer))

    # ==================================================================
    # residency listeners: the node arena and the chunk-change feed
    # ==================================================================
    # One marking call per structural change (DESIGN.md § "Residency
    # listeners"): the vectorised kernels' NodeArena rewrites the marked
    # *rows*; the feed records the marked *chunks* (``node.meta`` as of
    # the mark; ``None`` is the L0 pseudo-chunk) and the meta-less nodes.
    def mark_dirty(self, node: Node) -> None:
        """Something a listener mirrors (count, layer, meta, child links,
        leaf payload) changed on ``node``.  A meta-node whose member count
        changed marks its *root*, whose arena row carries the chunk's
        per-visit cycles.
        """
        self._arena.dirty.add(node)
        meta = node.meta
        self.feed.metas.add(meta)
        if meta is None:
            self.feed.touch_l0(node)

    def mark_dirty_subtree(self, root: Node) -> None:
        """Every node at or below ``root`` changed (a region re-chunked)."""
        nodes = subtree_nodes(root)
        self._arena.dirty.update(nodes)
        metas = {nd.meta for nd in nodes}
        self.feed.metas.update(metas)
        if None in metas:
            for nd in nodes:
                if nd.meta is None:
                    self.feed.touch_l0(nd)

    def mark_removed(self, node: Node) -> None:
        """``node`` was unlinked from the tree: its arena row is garbage,
        its chunk lost a member."""
        self._arena.remove(node)
        meta = node.meta
        self.feed.removed.add(node)
        self.feed.metas.add(meta)
        if meta is None:
            self.feed.touch_l0(node)

    def mark_placed(self, meta: MetaNode) -> None:
        """``meta``'s module or its replica copies changed (``relocate``,
        a replica set dropping a dead module's copies)."""
        self.feed.placed.add(meta)
        self.feed.touch_family(meta)

    def _add_meta(self, meta: MetaNode, built_sc: int | None) -> None:
        """The one way a chunk enters ``metas`` (build, re-chunk, a new
        chunk in an update, snapshot decode)."""
        self.metas.add(meta)
        self.feed.added.add(meta)
        if built_sc is not None:
            self._meta_built_sc[meta] = built_sc

    def _retire_meta(self, meta: MetaNode) -> None:
        """The one way a chunk leaves ``metas``; its L1 relatives are
        recorded while its links are still intact."""
        self.feed.touch_family(meta)
        self.feed.retired.add(meta)
        self.metas.discard(meta)
        self._stale_metas.discard(meta)
        self._meta_built_sc.pop(meta, None)

    def l0_nodes(self) -> list[Node]:
        out: list[Node] = []
        stack = [self.root]
        while stack:
            n = stack.pop()
            if n.layer != Layer.L0:
                continue
            out.append(n)
            if not n.is_leaf:
                stack.append(n.left)
                stack.append(n.right)
        return out

    def l0_words(self) -> int:
        return sum(node_words(n, self.dims) for n in self.l0_nodes())

    def _decide_l0_mode(self) -> None:
        # L0 lives in the LLC while it fits (half the cache, leaving room
        # for the working set); otherwise it is replicated on every module.
        self.l0_on_cpu = self.l0_words() * 8 <= self.system.llc.capacity_blocks * 64 // 2

    # ==================================================================
    # chunking (§3.2)
    # ==================================================================
    def _region_roots_below(self, node: Node) -> list[Node]:
        """Topmost non-L0 nodes at or below ``node``."""
        if node.layer != Layer.L0:
            return [node]
        if node.is_leaf:
            return []
        return self._region_roots_below(node.left) + self._region_roots_below(node.right)

    def _chunk_everything(self) -> None:
        for region_root in self._region_roots_below(self.root):
            for m in chunk_region(region_root, self.config, self.dims,
                                  self.system.place):
                self._add_meta(m, m.root.sc)

    def mark_stale(self, meta: MetaNode) -> None:
        if meta in self.metas:
            self._stale_metas.add(meta)

    def meta_is_stale(self, meta: MetaNode) -> bool:
        if meta in self._stale_metas:
            return True
        built = self._meta_built_sc.get(meta)
        return built is not None and not (built / 2 <= max(1, meta.root.sc) <= built * 2)

    def rechunk_stale(self) -> None:
        """Rebuild chunking for every stale region (amortised maintenance).

        A region is rebuilt from its topmost non-L0 node, retiring every
        meta-node referenced by nodes in the region (a *geometric* walk, so
        node→meta references can never dangle) and re-running the §3.2
        chunking rule.  Data movement is charged as one round of traffic
        proportional to the rebuilt masters plus the L1 cache fan-out.

        Only chunks the feed names can be stale: :meth:`meta_is_stale`
        reads ``meta.root.sc`` and ``_meta_built_sc``, which change only
        under a mark or when the chunk is created, and ``refresh_residency``
        keeps a chunk it finds still stale marked for the next call.
        """
        # Canonical (root-nid) order: set iteration follows object hashes,
        # i.e. memory addresses, and the rebuild order is observable — both
        # through the retired/done_regions guards below and through the
        # charged rebuild traffic.
        feed = self.feed
        stale = sorted(
            (m for m in feed.metas | feed.added | self._stale_metas
             if m in self.metas and self.meta_is_stale(m)),
            key=lambda m: m.root.nid,
        )
        if not stale:
            return
        done_regions: set[int] = set()
        for meta in stale:
            if meta not in self.metas:
                continue  # already retired by an earlier region rebuild
            root = meta.root
            if self._node_detached(root):
                # The meta root was spliced out this batch; the survivors'
                # region was already rebuilt at splice time.
                self._discard_meta(meta)
                continue
            # Rebuild locally from the stale meta's own root: re-chunking
            # is amortised per-chunk, not per-module-region (a drifted leaf
            # chunk must not trigger an n/P-sized rebuild).
            if root.nid in done_regions:
                continue
            done_regions.add(root.nid)
            self.force_rechunk_region(root)
        self._stale_metas.clear()
        self._purge_empty_metas()

    def _discard_meta(self, meta: MetaNode) -> None:
        """Retire one meta-node, keeping the meta tree consistent: the
        parent drops it, surviving children re-attach upward, and the
        ancestors' L1-descendant counters shed this meta (its descendants
        stay below the same ancestors, so only the meta itself is shed)."""
        self._retire_meta(meta)
        parent = meta.parent if meta.parent in self.metas else None
        if meta.layer == Layer.L1:
            anc = meta.parent
            while anc is not None:
                if anc in self.metas:
                    anc.l1_desc_metas -= 1
                anc = anc.parent
        if parent is not None and meta in parent.children:
            parent.children.remove(meta)
        for ch in meta.children:
            if ch in self.metas and ch.parent is meta:
                ch.parent = parent
                if parent is not None:
                    parent.children.append(ch)

    def _purge_empty_metas(self) -> None:
        """Drop meta-nodes that lost all members (e.g. their only node was
        promoted into L0); their children re-attach to the grandparent.
        A chunk loses members only in ``update._leave_meta``, which marks
        it, so the feed names every candidate."""
        # Root-nid order: _discard_meta re-appends surviving children to
        # their grandparent, so discard order shapes the meta tree.
        feed = self.feed
        for m in sorted(
            (m for m in feed.metas | feed.added
             if m in self.metas and m.n_nodes <= 0),
            key=lambda m: m.root.nid,
        ):
            self._discard_meta(m)

    def _node_detached(self, node: Node) -> bool:
        n = node
        while n.parent is not None:
            p = n.parent
            if p.left is not n and p.right is not n:
                return True
            n = p
        return n is not self.root

    def force_rechunk_region(self, region_root: Node) -> None:
        """Retire and rebuild every chunk at or under ``region_root``.

        ``region_root`` may be any node: non-L0 nodes rebuild their own
        subtree's chunks (local, amortised maintenance); L0 nodes rebuild
        each maximal non-L0 subtree below them (the promotion case).

        Works purely from the tree geometry, with a fixpoint expansion: a
        retired meta-node may span *several* rebuild scopes when a
        promotion moved the L0 border through its middle this batch (its
        root sits above the new border while members sit below, on both
        sides).  Every scope holding members of a retired meta is rebuilt,
        so node→meta references can never dangle.
        """
        pending: dict[int, Node] = {}
        for rr in self._region_roots_below(region_root):
            pending[rr.nid] = rr
        processed: dict[int, Node] = {}
        retired: set[MetaNode] = set()
        covered_roots: set[int] = set()
        while pending:
            nid, r = pending.popitem()
            if nid in processed:
                continue
            processed[nid] = r
            stack = [r]
            while stack:
                n = stack.pop()
                covered_roots.add(n.nid)
                if n.meta is not None and n.meta not in retired:
                    retired.add(n.meta)
                    root = n.meta.root
                    # Expand to every region the retired meta reaches.
                    if root.nid not in covered_roots and not self._node_detached(root):
                        for rr in self._region_roots_below(root):
                            if rr.nid not in processed:
                                pending[rr.nid] = rr
                if not n.is_leaf:
                    stack.append(n.left)
                    stack.append(n.right)
        for m in retired:
            self._retire_meta(m)
        # Surviving ancestors stop counting the retired L1 descendants.
        for m in retired:
            if m.layer != Layer.L1:
                continue
            anc = m.parent
            while anc is not None:
                if anc in self.metas:
                    anc.l1_desc_metas -= 1
                anc = anc.parent
        # Rebuild each processed scope, re-linking every new top chunk to
        # the live meta of the node just above it (None at the L0 border).
        new_all: list[MetaNode] = []
        for r in processed.values():
            for rr in self._region_roots_below(r):
                created = chunk_region(rr, self.config, self.dims, self.system.place)
                self.mark_dirty_subtree(rr)
                for m in created:
                    self._add_meta(m, max(1, m.root.sc))
                parent_meta = None
                p = rr.parent
                if p is not None and p.layer != Layer.L0 and p.meta in self.metas:
                    parent_meta = p.meta
                created[0].parent = parent_meta
                if parent_meta is not None:
                    parent_meta.children.append(created[0])
                    new_l1 = sum(1 for m in created if m.layer == Layer.L1)
                    if new_l1:
                        anc = parent_meta
                        while anc is not None:
                            anc.l1_desc_metas += new_l1
                            anc = anc.parent
                self.feed.touch_family(created[0])
                new_all.extend(created)
        # Drop the retired chunks from their surviving parents' children
        # (a child list only ever holds chunks whose parent is its owner).
        for p in {m.parent for m in retired}:
            if p in self.metas:
                p.children = [c for c in p.children if c in self.metas]
        # One round of master movement plus L1 cache rebuild fan-out.
        self.system.charge_comm_flat(
            sum(m.upload_words(self.config) for m in new_all)
        )

    # ==================================================================
    # lazy counters (§3.4)
    # ==================================================================
    def record_count_changes(self, deltas: dict[Node, int]) -> list[Node]:
        """Apply a batch's subtree-size changes, syncing each snapshot that
        crossed its Table 1 bound; returns the synced nodes in ``deltas``
        order.

        A count change alone is not a mark: the internal nodes' arena
        counts move in one scatter.  A leaf is marked (its payload and
        words changed with its count), and so is a chunk root whose
        snapshot synced (``meta_is_stale`` reads its ``sc``).
        """
        lazy = self.config.lazy_counters
        bounds = self.config.delta_bounds  # all (0, 0) without lazy counters
        inner: list[Node] = []
        inner_deltas: list[int] = []
        synced: list[Node] = []
        for node, d in deltas.items():
            if d == 0:
                continue
            node.count += d
            node.delta += d
            mark = node.keys is not None
            if not mark:
                inner.append(node)
                inner_deltas.append(d)
            dmin, dmax = bounds[node.layer]
            if node.delta != 0 and not dmin < node.delta < dmax:
                # Without lazy counters every change syncs, charged as
                # per-update immediate propagation to the master and all
                # replicas: the "prohibitively expensive" strawman of §3.4
                # and the Table 3 "Lazy Counter" ablation.
                self.sync_counter(node, eager_updates=0 if lazy else abs(d))
                synced.append(node)
                meta = node.meta
                mark = mark or (meta is not None and meta.root is node)
            if mark:
                self.mark_dirty(node)
        if inner:
            self._arena.add_counts(inner, inner_deltas)
        return synced

    def sync_counter(self, node: Node, eager_updates: int = 0) -> None:
        """Publish the exact count into the replicated snapshot (charged).

        With ``eager_updates > 0`` the charge models per-update immediate
        propagation (that many separate messages per copy) instead of one
        batched snapshot message.
        """
        node.sc = node.count
        node.delta = 0
        messages = max(1, eager_updates)
        if node.layer == Layer.L0:
            if self.l0_on_cpu:
                self.system.charge_cpu(_SYNC_WORDS * messages)
            else:
                # Replicas live only on live modules (dead ones were
                # decommissioned and hold nothing).
                self.system.charge_comm_flat(
                    _SYNC_WORDS * self.system.n_live * messages
                )
            if eager_updates:
                self.system.charge_comm_flat(_SYNC_WORDS * eager_updates)
        elif node.layer == Layer.L1 and node.meta is not None:
            # Replica fan-out only: the master copy's counter update rides
            # along with the batch's update messages to that module.
            copies = node.meta.replica_count()
            self.system.charge_comm_flat(
                _SYNC_WORDS * (copies * messages + eager_updates)
            )
        elif eager_updates:
            self.system.charge_comm_flat(_SYNC_WORDS * eager_updates)

    # ==================================================================
    # upload / residency / space
    # ==================================================================
    def _upload(self) -> None:
        """Initial distribution of the built tree onto the modules.

        The per-meta fan-out is aggregated per destination module and
        booked with one ``charge_sequence`` call: at paper scale the build
        touches every one of the P=2048 modules (integer word counts sum
        exactly in any order).
        """
        send_by: dict[int, float] = {}
        for meta in self.metas:
            send_by[meta.module] = (send_by.get(meta.module, 0.0)
                                    + meta.upload_words(self.config))
        with self.system.round():
            self.system.charge_sequence(CHARGE_SEND, list(send_by),
                                        list(send_by.values()))
            if not self.l0_on_cpu:
                self.system.broadcast(self.l0_words())

    def refresh_residency(self) -> None:
        """Bring every residency listener up to date with the feed.

        The listeners read the same feed (``self.feed``) in order — word
        accounting (master, L1-cache, replica and L0 words per module),
        then each attached tier's ``refresh()`` (:attr:`tiers`) — and it
        is then cleared.  Every path that moves keys (upload,
        insert/delete, migrate/clone, replica install/promotion, failover,
        recovery) funnels through here under its charged phase.
        """
        self._ledger.apply()
        for tier in self.tiers:
            tier.refresh()
        feed = self.feed
        # A chunk still stale (or empty) waits, marked, for the next
        # rechunk_stale — a refresh outside an update batch, after a
        # faulted one, must not drop it.  (Chunks are created fresh; one
        # decoded from a snapshot is marked by decode_tree.)
        waiting = [m for m in feed.metas
                   if m in self.metas
                   and (m.n_nodes <= 0 or self.meta_is_stale(m))]
        feed.clear()
        feed.metas.update(waiting)

    @property
    def tiers(self) -> tuple:
        """The attached serving tiers, replicas first.  Their protocol:
        ``refresh()`` after the word ledger, ``check()`` in
        :meth:`check_invariants`, and ``MANIFEST_KEY`` / ``to_manifest()``
        / ``restore(tree, doc)`` for snapshots (repro.store)."""
        return tuple(t for t in (self.replicas, self.route_filters)
                     if t is not None)

    def space_words(self) -> dict[str, float]:
        """Space consumption split by category (Theorem 5.1)."""
        master = self.system.master_words()
        cache = self.system.cache_words()
        host_l0 = float(self._ledger.l0_words) if self.l0_on_cpu else 0.0
        return {
            "master": master,
            "cache": cache,
            "host_l0": host_l0,
            "total": master + cache + host_l0,
        }

    # ==================================================================
    # public operations (delegated)
    # ==================================================================
    @property
    def size(self) -> int:
        return self.root.count

    def search(self, points: np.ndarray):
        from .search import search_batch

        self._batch_counter += 1
        self._l0_route_salt = self._batch_counter
        return search_batch(self, points)

    def insert(self, points: np.ndarray) -> None:
        from .update import insert_batch

        self._batch_counter += 1
        self._l0_route_salt = self._batch_counter
        insert_batch(self, points)

    def delete(self, points: np.ndarray) -> int:
        from .update import delete_batch

        self._batch_counter += 1
        self._l0_route_salt = self._batch_counter
        return delete_batch(self, points)

    def knn(self, queries: np.ndarray, k: int, metric: Metric = L2):
        from .knn import knn_batch

        self._batch_counter += 1
        self._l0_route_salt = self._batch_counter
        return knn_batch(self, queries, k, metric)

    def box_count(self, boxes) -> np.ndarray:
        from .range_query import box_count_batch

        self._batch_counter += 1
        return box_count_batch(self, boxes)

    def box_fetch(self, boxes):
        from .range_query import box_fetch_batch

        self._batch_counter += 1
        return box_fetch_batch(self, boxes)

    def fail_over(self, mid: int) -> dict:
        """Decommission module ``mid`` and rebuild its shard on live modules.

        Charged under the ``"recovery"`` phase; see
        :func:`repro.faults.fail_over`.
        """
        from ..faults.recovery import fail_over

        return fail_over(self, mid)

    # ==================================================================
    # inspection / invariants
    # ==================================================================
    def all_points(self) -> np.ndarray:
        chunks: list[np.ndarray] = []

        def rec(n: Node) -> None:
            if n.is_leaf:
                chunks.append(n.pts)
            else:
                rec(n.left)
                rec(n.right)

        rec(self.root)
        return np.vstack(chunks) if chunks else np.empty((0, self.dims))

    def stats(self):
        """Structural statistics snapshot (see :mod:`repro.core.introspect`)."""
        from .introspect import tree_stats

        return tree_stats(self)

    def height(self) -> int:
        def h(n: Node) -> int:
            return 1 if n.is_leaf else 1 + max(h(n.left), h(n.right))

        return h(self.root)

    def num_nodes(self) -> int:
        def c(n: Node) -> int:
            return 1 if n.is_leaf else 1 + c(n.left) + c(n.right)

        return c(self.root)

    def _check_residency(self) -> None:
        """The booked residency equals a walk over every chunk and the
        whole L0, and every stale chunk is one ``rechunk_stale`` will
        look at."""
        want = residency_from_scratch(self)
        master, cache = self.system.residency_split()
        assert np.array_equal(master, want["master"]), "master words drift"
        assert np.array_equal(cache, want["cache"]), "cache words drift"
        assert self._ledger.l0_words == want["l0"], "L0 words drift"
        assert self._ledger.entries.keys() == self.metas, "chunk not booked"
        replica = np.zeros(self.system.n_modules)
        for _module, size, _holders, secs in self._ledger.entries.values():
            for mid in secs:
                replica[mid] += size
        assert np.array_equal(replica, want["replica"]), "replica words drift"
        feed = self.feed
        seen = feed.metas | feed.added | self._stale_metas
        assert all(m in seen for m in self.metas if self.meta_is_stale(m)), (
            "a stale chunk is not marked")

    def check_invariants(self) -> None:
        """Raise AssertionError on any structural/layer/counter violation."""
        kb = self.key_bits
        cfg = self.config

        def rec(node: Node, lo: int, hi: int, parent: Node | None) -> int:
            node_lo, node_hi = node.key_range(kb)
            assert lo <= node_lo < node_hi <= hi, "node range escapes parent"
            assert node.parent is parent, "broken parent pointer"
            # Layer monotonicity along the path.
            if parent is not None:
                assert node.layer >= parent.layer, "layer inversion"
            # Lemma 3.1: T/2 <= SC <= 2T.
            if node.count > 0:
                assert node.count / 2 - 1e-9 <= node.sc <= 2 * node.count + 1e-9, (
                    f"lazy counter out of Lemma 3.1 range: sc={node.sc} "
                    f"count={node.count}"
                )
            assert node.sc == node.count - node.delta, "delta bookkeeping broken"
            # Meta membership.
            if node.layer == Layer.L0:
                assert node.meta is None, "L0 node assigned to a meta-node"
            else:
                assert node.meta is not None, "non-L0 node without meta-node"
                assert node.meta in self.metas, "node points at retired meta"
                assert node.meta.layer == node.layer, "meta/layer mismatch"
            if node.is_leaf:
                assert node.count == len(node.keys) == len(node.pts)
                assert node.count > 0, "empty leaf"
                equal = int(node.keys[0]) == int(node.keys[-1])
                assert node.count <= cfg.leaf_size or equal, "oversized mixed leaf"
                keys = node.keys
                assert all(
                    node_lo <= int(x) < node_hi for x in keys.tolist()
                ), "leaf key outside range"
                return node.count
            assert node.left is not None and node.right is not None
            mid = node_lo + (node_hi - node_lo) // 2
            nl = rec(node.left, node_lo, mid, node)
            nr = rec(node.right, mid, node_hi, node)
            assert node.count == nl + nr, "count mismatch"
            return node.count

        rec(self.root, 0, 1 << kb, None)
        # Meta tree consistency.
        for meta in self.metas:
            assert meta.root.meta is meta, "meta root not assigned to meta"
            for ch in meta.children:
                assert ch.parent is meta
                assert ch in self.metas, "retired child meta still linked"
        # L1-descendant counters (replica accounting) match the links.
        memo: dict[int, int] = {}

        def l1_below(meta) -> int:
            key = id(meta)
            if key not in memo:
                memo[key] = sum(
                    (1 if ch.layer == Layer.L1 else 0) + l1_below(ch)
                    for ch in meta.children
                )
            return memo[key]

        for meta in self.metas:
            assert meta.l1_desc_metas == l1_below(meta), (
                f"l1_desc_metas drift: {meta.l1_desc_metas} vs {l1_below(meta)}"
            )
        self._check_residency()
        # The vectorised kernels' arena (built here if it is not yet)
        # mirrors this structure; each attached tier checks its own state
        # against it.
        check_arena(self)
        for tier in self.tiers:
            tier.check()
