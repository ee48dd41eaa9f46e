"""Residency upkeep in proportion to the batch: the chunk-change feed and
the word-accounting listener.

Every structural change the tree makes is *recorded* as it happens, in one
:class:`ResidencyFeed` per ``refresh_residency`` window:

* ``metas`` / ``l0`` / ``removed`` — the tree's marking calls
  (``mark_dirty``, ``mark_dirty_subtree``, ``mark_removed``) add
  ``node.meta`` as of the mark (``None`` stands for L0), the meta-less
  nodes themselves, and the nodes unlinked from the tree;
* ``added`` / ``retired`` — the one tree method each that puts a chunk
  into ``tree.metas`` or takes it out;
* ``placed`` — chunks whose module or replica copies changed
  (``relocate``, a replica set dropping a dead module's copies);
* ``family`` — L1 chunks whose set of L1 relatives, and so the modules
  caching them (§3.1), may have changed: every create, retire, relink or
  move of an L1 chunk adds the chunk with its L1 ancestors and
  descendants, read *before* and *after* the change.

``refresh_residency`` hands the feed to its listeners in order — word
accounting (:class:`WordLedger`), then each attached serving tier
(``tree.tiers``: the replica registry, the route filters) — and
``rechunk_stale`` reads the same marks for its candidates, so none of them
walks every chunk, every L0 node or every module in steady state.
One mark the tree cannot make is a module zeroed by
``PIMSystem.decommission``: the system bumps ``residency_epoch`` and the
ledger re-books from an empty cache, the same routine that runs first
after build, decode and recovery.

:func:`residency_from_scratch` is the full walk the accounting replaced;
``tree.check_invariants()`` holds the ledger against it.
"""

from __future__ import annotations

import numpy as np

from .chunking import iter_meta_subtree
from .node import Layer, node_words

__all__ = ["ResidencyFeed", "WordLedger", "residency_from_scratch"]


class ResidencyFeed:
    """The chunk changes of one ``refresh_residency`` window."""

    __slots__ = ("metas", "l0", "removed", "added", "retired", "placed",
                 "family")

    def __init__(self) -> None:
        self.metas: set = set()      # MetaNode, or None for L0
        self.l0: set = set()         # nodes marked while meta-less
        self.removed: set = set()    # nodes unlinked from the tree
        self.added: set = set()
        self.retired: set = set()
        self.placed: set = set()
        self.family: set = set()

    def clear(self) -> None:
        for name in self.__slots__:
            getattr(self, name).clear()

    def touch_l0(self, node) -> None:
        """``node`` is, was or may become an L0 node: its words are
        re-read at the next refresh."""
        self.l0.add(node)

    def touch_family(self, meta) -> None:
        """The holders of ``meta``'s L1 relatives are about to change:
        record ``meta``, its L1 ancestors and its L1 descendants."""
        if meta.layer != Layer.L1:
            return
        family = self.family
        up = meta.parent
        while up is not None and up.layer == Layer.L1:
            family.add(up)
            up = up.parent
        stack = [meta]
        while stack:
            m = stack.pop()
            family.add(m)
            stack.extend(c for c in m.children if c.layer == Layer.L1)


def _holders(meta) -> tuple[int, ...]:
    """Modules caching ``meta``: for an L1 chunk, those of its L1
    ancestors and of its L1 descendants (L1 sharing, §3.1)."""
    if meta.layer != Layer.L1 or (meta.parent is None and not meta.children):
        return ()
    out = [a.module for a in meta.l1_ancestors()]
    stack = [c for c in meta.children if c.layer == Layer.L1]
    while stack:
        m = stack.pop()
        out.append(m.module)
        stack.extend(c for c in m.children if c.layer == Layer.L1)
    return tuple(out)


class WordLedger:
    """Listener 1: per-module master and cache words, booked per chunk.

    Each live chunk has one booked entry ``(module, size_words, holders,
    live secondaries)``: its master copy lives on ``module``, a copy of
    ``size_words`` on every holder and every live secondary.  A refresh
    re-reads only the chunks the feed names and applies the difference
    between their old and new entries, plus the change of the L0 words
    (kept as a running total over the touched L0 nodes) on every live
    module, through one ``PIMSystem.add_residency`` call.  Word counts are
    integers, so the module totals are exactly those of a full recompute.
    """

    def __init__(self, tree) -> None:
        self.tree = tree
        self.entries: dict = {}
        self.l0: dict = {}           # L0 node -> words booked for it
        self.l0_words = 0
        self.epoch = None            # system.residency_epoch booked under

    def apply(self) -> None:
        tree = self.tree
        feed = tree.feed
        sys, cfg, live = tree.system, tree.config, tree.metas
        dead = sys.dead_modules
        reps = tree.replicas
        mids: list[int] = []
        master: list[float] = []
        cache: list[float] = []
        parts = []
        entries, l0 = self.entries, self.l0

        if self.epoch != sys.residency_epoch:
            # Empty cache (first refresh, or a module was zeroed out of
            # band): book every chunk and L0 node, and take back whatever
            # the modules held.
            self.epoch = sys.residency_epoch
            entries.clear()
            l0.clear()
            self.l0_words = 0
            chunks, remake = live, live
            l0_nodes = tree.l0_nodes()
            gone: set = set()
            held_master, held_cache = sys.residency_split()
            parts.append((np.arange(sys.n_modules), -held_master,
                          -held_cache))
        else:
            remake = feed.added | feed.placed | feed.family
            chunks = feed.metas | feed.retired | remake
            l0_nodes, gone = feed.l0, feed.removed

        for meta in chunks:
            if meta is None:
                continue
            old = entries.get(meta)
            if meta in live:
                if old is None or meta in remake:
                    secs = reps.secondaries(meta) if reps is not None else ()
                    new = (meta.module, meta.size_words(cfg), _holders(meta),
                           tuple(m for m in secs if m not in dead))
                else:
                    size = meta.size_words(cfg)
                    if size == old[1]:
                        continue
                    new = (old[0], size, old[2], old[3])
                if new == old:
                    continue
                entries[meta] = new
            elif old is None:
                continue
            else:
                new = None
                del entries[meta]
            for entry, sign in ((old, -1), (new, 1)):
                if entry is None:
                    continue
                module, size, holders, secs = entry
                words = sign * size
                mids.append(module)
                master.append(words)
                cache.append(0)
                if holders or secs:
                    copies = holders + secs
                    mids.extend(copies)
                    master.extend([0] * len(copies))
                    cache.extend([words] * len(copies))

        dims = tree.dims
        l0_delta = 0
        for node in l0_nodes:
            words = (0 if node in gone or node.layer != Layer.L0
                     else node_words(node, dims))
            old = l0.get(node, 0)
            if words != old:
                l0_delta += words - old
                if words:
                    l0[node] = words
                else:
                    del l0[node]
        self.l0_words += l0_delta
        if mids:
            parts.append((np.array(mids), np.array(master, dtype=np.float64),
                          np.array(cache, dtype=np.float64)))
        if l0_delta and not tree.l0_on_cpu:
            # The L0 replica on every live module, as one array add.
            alive = np.ones(sys.n_modules, dtype=bool)
            alive[list(dead)] = False
            on = np.flatnonzero(alive)
            parts.append((on, np.zeros(len(on)), np.full(len(on), l0_delta,
                                                        dtype=np.float64)))
        if parts:
            sys.add_residency(*(np.concatenate(col) for col in zip(*parts)))


def residency_from_scratch(tree) -> dict:
    """Per-module master, L1-cache and replica words plus the L0 words,
    recomputed by walking every chunk and the whole L0 (the oracle)."""
    sys, cfg = tree.system, tree.config
    p = sys.n_modules
    master = np.zeros(p)
    l1 = np.zeros(p)
    replica = np.zeros(p)
    for meta in tree.metas:
        words = meta.size_words(cfg)
        master[meta.module] += words
        if meta.layer != Layer.L1:
            continue
        for holder in meta.l1_ancestors():
            l1[holder.module] += words
        for desc in iter_meta_subtree(meta):
            if desc is not meta and desc.layer == Layer.L1:
                l1[desc.module] += words
    dead = sys.dead_modules
    if tree.replicas is not None:
        for meta in tree.metas:
            words = meta.size_words(cfg)
            for mid in tree.replicas.secondaries(meta):
                if mid not in dead:
                    replica[mid] += words
    l0 = tree.l0_words()
    cache = l1 + replica
    if not tree.l0_on_cpu:
        for mid in range(p):
            if mid not in dead:
                cache[mid] += l0
    return {"master": master, "cache": cache, "replica": replica, "l0": l0}
