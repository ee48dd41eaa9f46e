"""Host-resident per-module membership filters for send suppression.

PIM-tree's skew-resistance lesson (PAPERS.md) and the PrIM study agree:
these workloads are communication-bound, so the cheapest round is the one
never sent.  :class:`RouteFilterSet` keeps, on the host,

* a **global Bloom filter** over every resident Morton key — one probe
  decides whether a point lookup or delete can possibly hit anything, so
  the whole L1/L2 descent for a provably-absent key is suppressed;
* **per-module Bloom filters** over the keys resident on each module
  (primary chunks plus replica copies), probed on descent hops whose
  target chunk is *closed* (no external children — the traversal cannot
  continue elsewhere, so module-level absence proves the send is empty);
* a **per-module zvalue-range summary** — for each chunk mastered on the
  module, the ``[min, max]`` of its resident keys — probed by the kNN
  candidate/fetch routers with the query ball's covering z-range
  (Morton encoding is monotone per coordinate, so the encoded corners of
  the ball's bounding box bracket every key the ball can contain).

A filter can only suppress **provably-empty** sends: Bloom filters have
no false negatives over the indexed key set, range summaries are exact
bounds, and closedness is structural — so answers stay byte-identical
and a false positive costs exactly what the unfiltered send costs today.

Maintenance is charged honestly, and costs the host what the batch
touched.  Filters catch up inside ``tree.refresh_residency()``, which every
path that moves keys already calls under its charged phase (bulk upload,
insert/delete batches, rebalance migrate/clone, replica install/promotion,
failover rebuild, recovery replay).

*What is cached.*  Per chunk (keyed by its root nid) the resident key
array and the replica secondaries it was indexed under, next to the
``(module, lo, hi, closed)`` summary the probes read; plus the keys of the
"L0" pseudo-chunk (leaves above the chunked layers, global filter only).
Every filter is a pure function of this cache: the global one the union of
all arrays, a module's the union over the chunks it masters or holds a
copy of.

*Who marks.*  The tree's chunk-change feed (``tree.feed``, DESIGN.md §
"Residency listeners"): its marking calls record the chunk of every node
they change, and new, retired, moved and re-replicated chunks.  A refresh
re-scans the marked and new chunks and re-files the moved ones; no other
chunk is looked at and no leaf of a clean chunk is visited.  A filter
that only gained keys within its Bloom geometry gets them OR-ed in, one
that lost a key or outgrew its geometry is rebuilt from its chunks'
cached arrays, the rest are not read.  Attach, an FPR change and
recovery (:meth:`RouteFilterSet.restore`) are the same routine with an
empty cache, which takes every chunk and the L0 pseudo-chunk as marked.

*Why the physical work and the charged work are computed separately.*  The
simulated bill is the model's, not the host's: a full rebuild charges
``k`` hash ops per indexed key plus a DRAM stream of the filter words under
a ``"route"`` phase (the pinned ``"recovery"`` phase keeps recovery
attribution); an insert batch that staged its keys
(:meth:`RouteFilterSet.stage_inserts`) and provably changed nothing else
charges per *new* key only.  Which of the two applies is decided by the
arithmetic a full residency walk would do, evaluated on the touched chunks
and cached counts — so the charge is to the integer what walking every
meta charged, while the bits are always derived from the cache diff and
never depend on the staging.  Probes charge a few host ops each.
Crash-restart persists only ``(fpr, seed, enabled)`` in the snapshot
manifest — the bit arrays are a pure function of residency and seed, so
:func:`repro.store.recovery.recover` rebuilds them bit-identically.
"""

from __future__ import annotations

import copy
import math

import numpy as np

__all__ = ["RouteFilterSet", "DEFAULT_FPR"]

DEFAULT_FPR = 0.01

_MASK64 = (1 << 64) - 1
# splitmix64 constants; two seeded streams give the double-hashing pair.
_C1 = 0x9E3779B97F4A7C15
_C2 = 0xBF58476D1CE4E5B9
_C3 = 0x94D049BB133111EB

# Charge model (host ops, all integers).
_PROBE_BASE_OPS = 2          # range/closedness checks per probe
_HASH_OPS = 1                # per hash function evaluated
_REBUILD_OPS_PER_KEY = 1     # per (key, hash) bit set during a rebuild
_REBUILD_OPS_PER_META = 4    # per-chunk summary bookkeeping

_NO_KEYS = np.empty(0, dtype=np.uint64)
_HASH_STEPS = np.arange(16, dtype=np.uint64)[:, None]  # i of h1 + i·h2, i < k
_SCATTER_BLOCK = 1 << 12     # keys hashed per scatter


def _splitmix_array(x: np.ndarray, salt: int) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 keys."""
    with np.errstate(over="ignore"):
        z = (x ^ np.uint64(salt & _MASK64)) + np.uint64(_C1)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_C2)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_C3)
        return z ^ (z >> np.uint64(31))


def _splitmix_int(x: int, salt: int) -> int:
    """Scalar splitmix64, bit-identical to :func:`_splitmix_array`."""
    z = ((x ^ (salt & _MASK64)) + _C1) & _MASK64
    z = ((z ^ (z >> 30)) * _C2) & _MASK64
    z = ((z ^ (z >> 27)) * _C3) & _MASK64
    return z ^ (z >> 31)


def _bloom_params(n_keys: int, fpr: float) -> tuple[int, int]:
    """(m_bits power of two, k hashes) sized for ``n_keys`` at ``fpr``."""
    k = max(1, min(16, round(-math.log2(fpr))))
    want = max(64, math.ceil(n_keys * k / math.log(2)))
    m_bits = 1 << (want - 1).bit_length()
    return m_bits, k


class _ModuleFilter:
    """Bloom bits + resident-key range for one module."""

    __slots__ = ("words", "m_bits", "k", "lo", "hi", "n_keys")

    def __init__(self, keys: np.ndarray, fpr: float, seed: int) -> None:
        self.m_bits, self.k = _bloom_params(max(1, len(keys)), fpr)
        self.words = np.zeros(self.m_bits // 64, dtype=np.uint64)
        self.lo = self.hi = None
        self.n_keys = 0
        self.add(keys, seed)

    def add(self, keys: np.ndarray, seed: int) -> None:
        """OR ``keys``' bits in place and widen the range summary.

        Bloom bits are an OR over per-key hashes, so adding the new
        keys' bits to the existing array is *bit-identical* to a full
        rebuild over old ∪ new — provided ``m_bits``/``k`` are unchanged
        (the caller checks :func:`_bloom_params` before choosing this
        path) and the seed is the same.  The ``k × n`` bit positions are
        computed as one matrix and scattered in one pass (per block of
        ``_SCATTER_BLOCK`` keys), not hash function by hash function.
        """
        if not len(keys):
            return
        mask = np.uint64(self.m_bits - 1)
        # Blocked so a big filter's index matrix stays a few hundred KiB.
        for at in range(0, len(keys), _SCATTER_BLOCK):
            block = keys[at:at + _SCATTER_BLOCK]
            h1 = _splitmix_array(block, seed)
            h2 = _splitmix_array(block, seed + 1) | np.uint64(1)
            idx = (h1 + _HASH_STEPS[:self.k] * h2) & mask
            np.bitwise_or.at(
                self.words, (idx >> np.uint64(6)).astype(np.intp).ravel(),
                (np.uint64(1) << (idx & np.uint64(63))).ravel(),
            )
        klo, khi = int(keys.min()), int(keys.max())
        self.lo = klo if self.lo is None else min(self.lo, klo)
        self.hi = khi if self.hi is None else max(self.hi, khi)
        self.n_keys += len(keys)

    def probe(self, key: int, seed: int) -> bool:
        """May ``key`` be present?  No false negatives by construction."""
        if self.lo is None or not self.lo <= key <= self.hi:
            return False
        h1 = _splitmix_int(key, seed)
        h2 = _splitmix_int(key, seed + 1) | 1
        mask = self.m_bits - 1
        for i in range(self.k):
            idx = (h1 + i * h2) & mask
            if not (int(self.words[idx >> 6]) >> (idx & 63)) & 1:
                return False
        return True


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    if len(parts) > 1:
        return np.concatenate(parts)
    return parts[0] if parts else _NO_KEYS


def _scan(root, meta) -> tuple[np.ndarray, bool]:
    """Resident keys of the chunk ``meta`` rooted at ``root`` and whether
    it is *closed* (no member has a child in another chunk).  With
    ``meta=None`` and the tree root this is the L0 pseudo-chunk: the keys
    held above the chunked layers (host/broadcast L0 leaves)."""
    closed = True
    parts: list[np.ndarray] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.meta is not meta:
            closed = False
            continue
        if node.is_leaf:
            if len(node.keys):
                parts.append(node.keys)
            continue
        stack.append(node.left)
        stack.append(node.right)
    return _concat(parts), closed


def _multiset_delta(old: list[np.ndarray], new: list[np.ndarray]
                    ) -> tuple[np.ndarray, bool]:
    """``(added, shrank)`` between two key multisets given as array lists:
    the keys ``new`` holds beyond ``old`` (with multiplicity), and whether
    ``old`` holds any key ``new`` lacks (``added`` is then unused)."""
    if len(old) == len(new) and all(a is b for a, b in zip(old, new)):
        return _NO_KEYS, False
    if not old:
        return _concat(new), False
    if not new:
        return _NO_KEYS, True
    a, b = _concat(old), _concat(new)
    vals, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    diff = (np.bincount(inv[len(a):], minlength=len(vals))
            - np.bincount(inv[:len(a)], minlength=len(vals)))
    if (diff < 0).any():
        return _NO_KEYS, True
    grown = diff > 0
    return np.repeat(vals[grown], diff[grown]), False


class RouteFilterSet:
    """Membership-filter routing state attached to a :class:`PIMZdTree`.

    Constructing one attaches it as ``tree.route_filters`` (a serving
    tier, like :class:`repro.replicate.ReplicaSet`) and builds the filters
    from the current residency, charged under a ``"route"`` phase.
    """

    MANIFEST_KEY = "route_filters"

    def __init__(self, tree, *, fpr: float = DEFAULT_FPR, seed: int = 0,
                 enabled: bool = True) -> None:
        self._attach(tree, fpr, seed, enabled)
        self.refresh()

    def _attach(self, tree, fpr: float, seed: int, enabled: bool) -> None:
        """Attach to ``tree`` with an empty cache (nothing built)."""
        if not 0.0 < fpr < 0.5:
            raise ValueError("route-filter FPR must be in (0, 0.5)")
        self.tree = tree
        self._fpr = float(fpr)
        self.seed = int(seed)
        self.enabled = bool(enabled)
        # Observability counters (host-side, never charged).
        self.queries_pruned = 0
        self.words_saved = 0.0
        self.fp_probes = 0
        self.probes = 0
        self.rebuilds = 0
        self.incremental = 0         # rebuilds charged by the delta formula
        self.keys_indexed = 0
        self._clear()
        tree.route_filters = self

    @property
    def fpr(self) -> float:
        return self._fpr

    @fpr.setter
    def fpr(self, value: float) -> None:
        """Re-target the false-positive rate (the online controller's
        knob): every filter's geometry depends on it, so the next
        :meth:`refresh` starts over."""
        self._fpr = float(value)
        self._clear()

    def _clear(self) -> None:
        """Forget everything derived from residency: the next
        :meth:`refresh` sees every chunk as new."""
        self._global: _ModuleFilter | None = None
        self._filters: dict[int, _ModuleFilter] = {}
        # meta.root.nid -> (module, res_lo, res_hi, closed)
        self._meta_info: dict[int, tuple[int, int | None, int | None, bool]] = {}
        # The chunk cache behind the filters: meta.root.nid -> (resident
        # keys, replica secondaries) as of the last refresh, and the keys
        # of the L0 pseudo-chunk.  Every filter is a function of this
        # cache, so a refresh only re-reads the chunks the feed marked.
        self._chunks: dict[int, tuple[np.ndarray, tuple[int, ...]]] = {}
        self._l0_keys = _NO_KEYS
        # Keys staged by an insert batch (a charging hint, see refresh).
        self._staged: np.ndarray | None = None

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def stage_inserts(self, keys) -> None:
        """Declare that the residency change now in flight only *adds*
        ``keys`` (an insert batch).  The next :meth:`refresh` then checks,
        against what it finds in the touched chunks, that nothing else
        moved, and if so charges the maintenance per *new* key (the bits
        can be OR-ed in place) instead of per resident key.  The staging
        is a charging hint only: which bits are set never depends on it,
        so stale or wrong staging cannot corrupt a filter.  Deletes,
        migrations and rollbacks never stage.
        """
        arr = np.ascontiguousarray(np.asarray(keys, dtype=np.uint64))
        if not len(arr):
            return
        self._staged = (arr.copy() if self._staged is None
                        else np.concatenate([self._staged, arr]))

    # One filter per module plus the global one, addressed as ``None``.
    def _filter(self, mid: int | None) -> _ModuleFilter | None:
        return self._global if mid is None else self._filters.get(mid)

    def _seed_of(self, mid: int | None) -> int:
        return self.seed if mid is None else self.seed + 2 * (mid + 1)

    def _fits(self, mid: int | None, n_more: int) -> bool:
        """Can filter ``mid`` take ``n_more`` keys within its geometry?"""
        f = self._filter(mid)
        return f is not None and _bloom_params(
            max(1, f.n_keys + n_more), self.fpr) == (f.m_bits, f.k)

    def _build_filter(self, mid: int | None, keys: np.ndarray) -> None:
        """(Re)build one filter over ``keys``; a module left without a
        resident key has no filter, the global filter always exists."""
        if mid is None:
            self._global = _ModuleFilter(keys, self.fpr, self.seed)
        elif len(keys):
            self._filters[mid] = _ModuleFilter(keys, self.fpr,
                                               self._seed_of(mid))
        else:
            self._filters.pop(mid, None)

    def refresh(self) -> None:
        """Bring every filter up to date with current residency (charged).

        Called from ``tree.refresh_residency()`` — i.e. inside every
        charged phase where residency actually changes — and once at
        attach time (or after an FPR change), when the cache is empty and
        every chunk is new.  The work follows the touched chunks, not the
        index: only chunks the tree's chunk-change feed (``tree.feed``)
        reports marked, added, retired or placed (moved, re-replicated)
        are looked at, in root-nid order
        (``tree.metas`` is an identity-hashed set, so its own order
        follows memory addresses); of those only the marked and new ones
        are re-scanned.  Each filter whose key multiset only grew, within
        its Bloom geometry, gets the new keys OR-ed in
        (:meth:`_ModuleFilter.add`); one that lost a key or outgrew its
        geometry is rebuilt from the cached arrays of its chunks; the
        others are not read.

        What is *charged* is the model's bill, computed from counts with
        no hashing: when an insert batch staged its keys
        (:meth:`stage_inserts`) and the touched chunks prove nothing else
        moved, ``k`` hash ops per new (key, copy) — otherwise the
        full-rebuild formula, ``k`` hash ops per indexed key plus a DRAM
        stream of every filter word.
        """
        delta = self._sync()
        self.rebuilds += 1
        self.keys_indexed = int(sum(f.n_keys for f in self._filters.values())
                                + self._global.n_keys)
        if delta is not None:
            self.incremental += 1
            k_ops, bit_words, n_metas = delta
        else:
            filters = [self._global, *self._filters.values()]
            k_ops = sum(f.k * f.n_keys for f in filters)
            bit_words = sum(len(f.words) for f in filters)
            n_metas = len(self._meta_info)
        # Charge the maintenance under its own phase (a pinned phase —
        # recovery — keeps its label).
        sys = self.tree.system
        with sys.phase("route"):
            sys.charge_cpu(k_ops * _REBUILD_OPS_PER_KEY
                           + n_metas * _REBUILD_OPS_PER_META)
            sys.dram_stream(bit_words)

    def _sync(self) -> tuple[int, int, int] | None:
        """The uncharged half of :meth:`refresh`: update cache and filters.

        Returns ``(k_ops, bit_words, chunks)`` of the delta charge when
        the staged insert keys account for every change, else ``None``
        (the full-rebuild charge applies).  The test is the arithmetic a
        full residency walk would do — chunk set, modules, closedness and
        replica placement unchanged; every chunk grew by exactly the
        staged keys found in it and the global count by ``len(staged)``
        (a delete, move, split or re-insert of an existing key breaks
        it); no touched filter changes Bloom geometry — evaluated on the
        touched chunks only: equal Morton keys share a leaf, so a clean
        chunk cannot hold a staged key.
        """
        tree = self.tree
        chunks, info_of = self._chunks, self._meta_info
        g = self._global
        staged, self._staged = self._staged, None
        reps = tree.replicas

        # Which chunks changed: the marked ones (None: the L0 pseudo-chunk)
        # and those the feed saw enter ``tree.metas``, leave it or change
        # placement.  A chunk re-created under the same root keeps its nid
        # (and was marked through its nodes by the re-chunk); an empty
        # cache takes every chunk, and the L0 pseudo-chunk, as new.
        live, feed = tree.metas, tree.feed
        gone: list[int] = []
        if g is None:
            marked = {None}
            touched = set(live)
        else:
            # A refresh outside refresh_residency sees these once more at
            # the next one: re-reading an unchanged chunk changes nothing,
            # and a nid already dropped is skipped.
            marked = feed.metas
            touched = {m for m in marked if m is not None and m in live}
            touched.update(m for m in feed.added | feed.placed if m in live)
            kept = {m.root.nid for m in feed.added if m in live}
            gone = sorted(({m.root.nid for m in feed.retired if m not in live}
                           - kept) & chunks.keys())

        # Old and new key arrays per filter (None: the global one).
        old: dict[int | None, list[np.ndarray]] = {None: []}
        new: dict[int | None, list[np.ndarray]] = {None: []}

        def note(parts, keys, residency) -> None:
            if len(keys):
                for mid in (None, *residency):
                    parts.setdefault(mid, []).append(keys)

        incremental = staged is not None and g is not None and not gone
        grown = 0                      # chunks that took a staged key
        staged_on: dict[int, int] = {}  # module -> staged (key, copy) pairs
        n_global = 0 if g is None else g.n_keys

        for nid in gone:
            keys, secs = chunks.pop(nid)
            note(old, keys, (info_of.pop(nid)[0], *secs))
            n_global -= len(keys)
        for meta in sorted(touched, key=lambda m: m.root.nid):
            nid = meta.root.nid
            ent, info = chunks.get(nid), info_of.get(nid)
            res = (meta.module,
                   *(reps.secondaries(meta) if reps is not None else ()))
            if ent is None:
                keys_old, res_old, was_closed = _NO_KEYS, (), None
            else:
                keys_old, res_old, was_closed = (
                    ent[0], (info[0], *ent[1]), info[3])
            if ent is None or meta in marked:
                keys, closed = _scan(meta.root, meta)
                if np.array_equal(keys, keys_old):
                    keys = keys_old
            else:
                keys, closed = keys_old, was_closed
            if incremental and res == res_old and closed == was_closed:
                n_staged = int(np.isin(keys, staged).sum())
                incremental = len(keys) == len(keys_old) + n_staged
                if n_staged:
                    grown += 1
                    for mid in res:
                        staged_on[mid] = staged_on.get(mid, 0) + n_staged
            else:
                incremental = False
            note(old, keys_old, res_old)
            note(new, keys, res)
            n_global += len(keys) - len(keys_old)
            chunks[nid] = (keys, res[1:])
            info_of[nid] = (
                (meta.module, int(keys.min()), int(keys.max()), closed)
                if len(keys) else (meta.module, None, None, closed))
        if None in marked:
            keys, _ = _scan(tree.root, None)
            if np.array_equal(keys, self._l0_keys):
                keys = self._l0_keys
            note(old, self._l0_keys, ())
            note(new, keys, ())
            n_global += len(keys) - len(self._l0_keys)
            self._l0_keys = keys

        # The charge is settled on the filters as they were.
        delta = None
        if (incremental and n_global == g.n_keys + len(staged)
                and all(self._fits(mid, n)
                        for mid, n in ((None, len(staged)),
                                       *staged_on.items()))):
            hashed = [(g, len(staged))] + [
                (self._filters[mid], n) for mid, n in staged_on.items()]
            delta = (sum(f.k * n for f, n in hashed),
                     sum(min(len(f.words), f.k * n) for f, n in hashed),
                     grown)

        # Apply: OR the growth in, or rebuild the filter from the cache.
        stale: dict[int | None, list[np.ndarray]] = {}
        for mid in sorted(old.keys() | new.keys(),
                          key=lambda m: -1 if m is None else m):
            added, shrank = _multiset_delta(old.get(mid, []),
                                            new.get(mid, []))
            if self._filter(mid) is None:  # the module's first keys; attach
                self._build_filter(mid, added)
            elif shrank or not self._fits(mid, len(added)):
                stale[mid] = []
            elif len(added):
                self._filter(mid).add(added, self._seed_of(mid))
        if stale:
            for nid, (keys, secs) in chunks.items():
                if len(keys):
                    for mid in (None, info_of[nid][0], *secs):
                        if mid in stale:
                            stale[mid].append(keys)
            if None in stale and len(self._l0_keys):
                stale[None].append(self._l0_keys)
            for mid, parts in stale.items():
                self._build_filter(mid, _concat(parts))
        return delta

    def check(self) -> None:
        """Assert that the maintained summaries and every filter equal a
        set built from scratch on the current tree (uncharged).  Run by
        ``tree.check_invariants()``: a structural change the tree did not
        mark fails here."""
        fresh = copy.copy(self)
        fresh._clear()
        fresh._sync()
        assert self._meta_info == fresh._meta_info, "stale chunk summary"
        assert self._filters.keys() == fresh._filters.keys(), (
            "route filters cover the wrong modules")
        for mid in (None, *self._filters):
            have, want = self._filter(mid), fresh._filter(mid)
            assert np.array_equal(have.words, want.words) and all(
                getattr(have, a) == getattr(want, a)
                for a in ("m_bits", "k", "lo", "hi", "n_keys")
            ), f"route filter {mid} differs from a fresh build"

    # ------------------------------------------------------------------
    # probes (charged per call)
    # ------------------------------------------------------------------
    def _probe_global(self, key: int) -> bool:
        g = self._global
        self.probes += 1
        self.tree.system.charge_cpu(_PROBE_BASE_OPS + g.k * _HASH_OPS)
        return g.probe(key, self.seed)

    def _probe_module(self, mid: int, key: int) -> bool:
        f = self._filters.get(mid)
        self.probes += 1
        if f is None:
            self.tree.system.charge_cpu(_PROBE_BASE_OPS)
            return False
        self.tree.system.charge_cpu(_PROBE_BASE_OPS + f.k * _HASH_OPS)
        return f.probe(key, self._seed_of(mid))

    def _probe_meta_range(self, nid: int, zlo: int, zhi: int) -> bool:
        """May the chunk rooted at ``nid`` hold a key in ``[zlo, zhi]``?"""
        self.probes += 1
        self.tree.system.charge_cpu(_PROBE_BASE_OPS)
        info = self._meta_info.get(nid)
        if info is None:
            return True  # unknown chunk (stale summary): never suppress
        _, lo, hi, closed = info
        if not closed:
            return True  # traversal may continue into other chunks
        if lo is None:
            return False  # closed chunk with no resident keys
        return not (zhi < lo or zlo > hi)

    # ------------------------------------------------------------------
    # pre-send pruning callbacks
    # ------------------------------------------------------------------
    def prune_l0_route(self, results):
        """Global-filter gate ahead of the *replicated-L0* routing round.

        When L0 outgrew the LLC, every query pays a send + trace return
        just to walk L0 on a module — the earliest send there is, and at
        paper-scale P most point lookups never get past it.  Probing the
        global Bloom first suppresses that round participation for
        provably-absent keys.  Returns ``(surviving results, probed
        qids)``; the executor-level filter skips re-probing survivors.
        """
        from ..core.push_pull import QUERY_WORDS, TRACE_WORDS

        live = []
        probed: set[int] = set()
        for res in results:
            probed.add(res.qid)
            if self._probe_global(res.key):
                live.append(res)
            else:
                res.pruned = True
                self.queries_pruned += 1
                self.words_saved += QUERY_WORDS + TRACE_WORDS
        return live, probed

    def make_search_prune(self, results, pre_probed: set[int] | None = None):
        """Frontier filter for point lookups and delete planning.

        The first task of a query probes the global Bloom — absence
        suppresses the whole descent.  Later hops whose target chunk is
        closed probe the target module's filter as well.  ``pre_probed``
        marks queries already screened by :meth:`prune_l0_route`, whose
        survivors must not be re-probed (or double-counted).
        """
        decided: dict[int, bool] = (
            {} if pre_probed is None else dict.fromkeys(pre_probed, False))
        probed: set[int] = set() if pre_probed is None else set(pre_probed)

        def prune(task) -> bool:
            res = results[task.qid]
            verdict = decided.get(task.qid)
            if verdict is None:
                probed.add(task.qid)
                verdict = not self._probe_global(res.key)
                decided[task.qid] = verdict
                if verdict:
                    res.pruned = True
                    self.queries_pruned += 1
            if verdict:
                self.words_saved += task.send_words
                return True
            info = self._meta_info.get(task.meta.root.nid)
            if info is not None and info[3]:
                if not self._probe_module(info[0], res.key):
                    decided[task.qid] = True
                    res.pruned = True
                    self.queries_pruned += 1
                    self.words_saved += task.send_words
                    return True
            return False

        prune.probed = probed
        return prune

    def account_search(self, results, probed: set[int]) -> None:
        """Tally false positives once ground truth is known (stats only)."""
        for qid in probed:
            res = results[qid]
            if res.pruned:
                continue
            leaf = res.leaf
            present = False
            if leaf is not None and leaf.keys is not None and len(leaf.keys):
                key = np.uint64(res.key)
                j = int(np.searchsorted(leaf.keys, key))
                present = j < len(leaf.keys) and leaf.keys[j] == key
            if not present:
                self.fp_probes += 1

    def make_knn_prune(self, states, bounds=None):
        """Frontier filter for kNN candidate/fetch task emission.

        A task probing a *closed* chunk whose resident z-range misses the
        query ball's covering z-range is provably empty: the chunk holds
        no point the ball can contain and the traversal cannot continue
        into another chunk.  The ball's covering range is the Morton code
        of the clipped corners of ``[q - r, q + r]`` (encoding is
        monotone per coordinate).  ``bounds`` fixes per-query radii
        (fetch); without it the current coarse radius is used and the
        cached range is refreshed whenever the radius tightens.
        """
        tree = self.tree
        cache: dict[int, tuple[float, int, int]] = {}

        def prune(task) -> bool:
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
            if self._probe_meta_range(task.meta.root.nid, zlo, zhi):
                return False
            self.queries_pruned += 1
            self.words_saved += task.send_words
            return True

        return prune

    # ------------------------------------------------------------------
    # observability + persistence (the tier protocol's snapshot half)
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        return {
            "enabled": self.enabled,
            "fpr": self.fpr,
            "queries_pruned": self.queries_pruned,
            "words_saved": self.words_saved,
            "fp_probes": self.fp_probes,
            "probes": self.probes,
            "rebuilds": self.rebuilds,
            "incremental": self.incremental,
            "keys_indexed": self.keys_indexed,
            "filter_kib": round(
                8 * (len(self._global.words)
                     + sum(len(f.words) for f in self._filters.values()))
                / 1024.0, 3,
            ),
        }

    def to_manifest(self) -> dict:
        """Snapshot payload: config only — bits rebuild from residency."""
        return {"fpr": self.fpr, "seed": self.seed, "enabled": self.enabled}

    @classmethod
    def restore(cls, tree, doc: dict) -> "RouteFilterSet":
        """Reattach the filters a snapshot manifest recorded, with an empty
        cache and nothing built: the next ``tree.refresh_residency()``
        builds them, charged like the constructor's build."""
        rf = cls.__new__(cls)
        rf._attach(tree, float(doc["fpr"]), int(doc["seed"]),
                   bool(doc.get("enabled", True)))
        return rf
