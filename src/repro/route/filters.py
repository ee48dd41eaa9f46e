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
chunk is looked at and no leaf of a clean chunk is visited.  The changed
chunks are diffed against their cached keys in one sort.  A filter
that only gained keys within its Bloom geometry gets them OR-ed in, one
that lost a key or outgrew its geometry is rebuilt from the cached
arrays of the chunks it holds — every such filter in one hashing pass —
and the rest are not read.  Attach, an FPR change and
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
never depend on the staging.  Crash-restart persists only ``(fpr, seed)``
in the snapshot manifest — the bit arrays are a pure function
of residency and seed, so :func:`repro.store.recovery.recover` rebuilds
them bit-identically.

*Probes.*  Each probe charges a few host ops.  The executor hands a
round's ``(meta, tasks)`` groups to a group hook once, after its pull
decision; the kNN and the point-lookup hook each decide the round in one
array pass with one probe charge.  Setting and probing bits share one
bit-position function (:func:`_bit_index`).
"""

from __future__ import annotations

import copy
import math
from collections import defaultdict
from itertools import chain, compress
from operator import attrgetter, itemgetter, mul

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
# The summary a probe reads for a chunk with none (a stale summary): open,
# so nothing is pruned.
_UNKNOWN_CHUNK = (None, None, None, False)
_HASH_STEPS = np.arange(16, dtype=np.uint64)[:, None]  # i of h1 + i·h2, i < k
_SCATTER_BLOCK = 1 << 12     # keys hashed per scatter
_ONE = np.uint64(1)

_FIRST = itemgetter(0)
_SECOND = itemgetter(1)
_ROOT_NID = attrgetter("root.nid")
_MODULE = attrgetter("module")
_QID = attrgetter("qid")
_KEY = attrgetter("key")
_LEAF = attrgetter("leaf")
_SEND_WORDS = attrgetter("send_words")
_N_KEYS = attrgetter("n_keys")
_K = attrgetter("k")
_WORDS = attrgetter("words")


def _splitmix_array(x: np.ndarray, salt) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 keys.  ``salt`` is an
    int, or a uint64 array holding one salt per key."""
    if not isinstance(salt, np.ndarray):
        salt = np.uint64(salt & _MASK64)
    with np.errstate(over="ignore"):
        z = (x ^ salt) + np.uint64(_C1)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_C2)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_C3)
        return z ^ (z >> np.uint64(31))


def _bloom_params(n_keys: int, fpr: float) -> tuple[int, int]:
    """(m_bits power of two, k hashes) sized for ``n_keys`` at ``fpr``."""
    k = max(1, min(16, round(-math.log2(fpr))))
    want = max(64, math.ceil(n_keys * k / math.log(2)))
    m_bits = 1 << (want - 1).bit_length()
    return m_bits, k


class _ModuleFilter:
    """Bloom bits + resident-key range for one module."""

    __slots__ = ("words", "m_bits", "k", "cap", "lo", "hi", "n_keys")

    def __init__(self, n_keys: int, fpr: float) -> None:
        """An empty filter with the geometry ``n_keys`` keys need at
        ``fpr``; :func:`_or_into` sets its bits."""
        self.m_bits, self.k = _bloom_params(max(1, n_keys), fpr)
        # The most keys this geometry is sized for: _bloom_params' bit
        # count only grows with the key count, so ``n`` keys fit exactly
        # when ``n <= cap``.
        cap = int(self.m_bits * math.log(2) / self.k)
        while _bloom_params(cap + 1, fpr)[0] <= self.m_bits:
            cap += 1
        while _bloom_params(cap, fpr)[0] > self.m_bits:
            cap -= 1
        self.cap = cap
        self.words = np.zeros(self.m_bits // 64, dtype=np.uint64)
        self.lo = self.hi = None
        self.n_keys = 0


def _layout(filters: list, seeds) -> tuple:
    """The filters' words end to end in one buffer; per filter its word
    count and first word, and its keys' salt, bit mask and word offset."""
    sizes = np.fromiter(map(len, map(_WORDS, filters)), dtype=np.intp,
                        count=len(filters))
    starts = np.cumsum(sizes) - sizes
    salts = np.array([seed & _MASK64 for seed in seeds], dtype=np.uint64)
    masks = np.array([f.m_bits - 1 for f in filters], dtype=np.uint64)
    words = _concat(list(map(_WORDS, filters)))
    return words, sizes, starts, salts, masks, starts.astype(np.uint64)


def _bit_index(keys: np.ndarray, salt: np.ndarray, mask: np.ndarray,
               base: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each key's ``k`` Bloom bits: buffer words and bit masks, two
    ``(k, n)`` arrays.  A key carries its filter's salt, bit mask and word
    offset (:func:`_layout`), so keys of many filters hash in one pass.
    Bit ``i`` is ``h1 + i·h2``: splitmix64 under the salt, and (odd) under
    the salt plus one modulo 2^64.  :func:`_or_into` sets these bits and
    :meth:`RouteFilterSet._absent` reads them."""
    h1 = _splitmix_array(keys, salt)
    h2 = _splitmix_array(keys, salt + _ONE) | _ONE
    idx = (h1 + _HASH_STEPS[:k] * h2) & mask
    return (((idx >> np.uint64(6)) + base).astype(np.intp),
            _ONE << (idx & np.uint64(63)))


def _or_into(jobs: list) -> None:
    """OR each ``(filter, keys, seed)`` job's bits in and widen its range
    summary, for every job in one hashing pass (one job per filter).

    Bloom bits are an OR over per-key hashes, so OR-ing new keys into a
    filter is *bit-identical* to a full rebuild over old ∪ new, provided
    its geometry holds them (the caller checks ``cap``) and the seed is
    the same.  The ``k × n`` bit positions of all jobs
    (:func:`_bit_index`) are one matrix per block of ``_SCATTER_BLOCK``
    keys (a big filter's index matrix stays a few hundred KiB) and one
    ``np.bitwise_or.at`` scatters them.  Every filter of a set hashes
    ``k`` times (``k`` follows the FPR alone).
    """
    jobs = [job for job in jobs if len(job[1])]
    if not jobs:
        return
    filters = list(map(_FIRST, jobs))
    parts = list(map(_SECOND, jobs))
    counts = np.fromiter(map(len, parts), dtype=np.intp, count=len(jobs))
    keys = np.concatenate(parts)
    per = np.repeat(np.arange(len(jobs)), counts)
    words, sizes, starts, salts, masks, bases = _layout(
        filters, [seed for _, _, seed in jobs])
    k = filters[0].k
    for at in range(0, len(keys), _SCATTER_BLOCK):
        block = slice(at, at + _SCATTER_BLOCK)
        f = per[block]
        w, b = _bit_index(keys[block], salts[f], masks[f], bases[f], k)
        np.bitwise_or.at(words, w.ravel(), b.ravel())
    firsts = np.cumsum(counts) - counts
    for f, s, n, m, klo, khi in zip(
            filters, starts.tolist(), sizes.tolist(), counts.tolist(),
            np.minimum.reduceat(keys, firsts).tolist(),
            np.maximum.reduceat(keys, firsts).tolist()):
        f.words[:] = words[s:s + n]
        if f.lo is None or klo < f.lo:
            f.lo = klo
        if f.hi is None or khi > f.hi:
            f.hi = khi
        f.n_keys += m


def _round_tasks(groups: list) -> tuple[list, list[int], np.ndarray]:
    """A round's ``(meta, tasks)`` groups as one task list in group order,
    the group sizes, and each task's query id."""
    lists = list(map(_SECOND, groups))
    tasks = list(chain.from_iterable(lists))
    qid = np.fromiter(map(_QID, tasks), dtype=np.intp, count=len(tasks))
    return tasks, list(map(len, lists)), qid


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
    # Breadth first over a list that grows while it is read, so no node
    # costs a call (``+=`` of a tuple is not one).
    nodes = [root]
    for node in nodes:
        if node.meta is not meta:
            closed = False
        elif node.keys is not None:  # a leaf
            parts += (node.keys,)
        else:
            nodes += (node.left, node.right)
    return _concat(parts), closed


def _deltas(pairs: list[tuple[np.ndarray, np.ndarray]]
            ) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(gained, lost)`` of each ``(old, new)`` pair of key multisets:
    the keys ``new`` holds beyond ``old`` and those ``old`` holds beyond
    ``new``, with multiplicity.

    All pairs in one sort: every key is tagged with its pair and a ±1
    weight (−1 old, +1 new); one lexsort by ``(pair, key)`` puts equal
    keys of a pair side by side, and a run's weight sum is the key's net
    gain in that pair.
    """
    n = len(pairs)
    parts = [*map(_FIRST, pairs), *map(_SECOND, pairs)]
    lens = np.fromiter(map(len, parts), dtype=np.intp, count=2 * n)
    keys = np.concatenate(parts)
    tags = np.tile(np.arange(n), 2).repeat(lens)
    weight = np.repeat(np.repeat(np.array([-1, 1]), n), lens)
    order = np.lexsort((keys, tags))
    keys, tags, weight = keys[order], tags[order], weight[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]) | (tags[1:] != tags[:-1])
    runs = np.flatnonzero(first)
    net = np.add.reduceat(weight, runs) if len(runs) else weight
    out = []
    for sign in (1, -1):
        up = net * sign > 0
        times = net[up] * sign
        ends = np.cumsum(np.bincount(np.repeat(tags[runs[up]], times),
                                     minlength=n)).tolist()
        moved = np.repeat(keys[runs[up]], times)
        out.append([moved[a:b] for a, b in zip([0, *ends[:-1]], ends)])
    return list(zip(*out))


class RouteFilterSet:
    """Membership-filter routing state attached to a :class:`PIMZdTree`.

    Constructing one attaches it as ``tree.route_filters`` (a serving
    tier, like :class:`repro.replicate.ReplicaSet`) and builds the filters
    from the current residency, charged under a ``"route"`` phase.
    """

    MANIFEST_KEY = "route_filters"

    def __init__(self, tree, *, fpr: float = DEFAULT_FPR,
                 seed: int = 0) -> None:
        self._attach(tree, fpr, seed)
        self.refresh()

    def _attach(self, tree, fpr: float, seed: int) -> None:
        """Attach to ``tree`` with an empty cache (nothing built)."""
        if not 0.0 < fpr < 0.5:
            raise ValueError("route-filter FPR must be in (0, 0.5)")
        self.tree = tree
        self._fpr = float(fpr)
        self.seed = int(seed)
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
        # module -> root nids of the chunks it masters or holds a copy of
        self._held: defaultdict[int, set[int]] = defaultdict(set)
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
        return f is not None and f.n_keys + n_more <= f.cap

    def _new_filter(self, mid: int | None, n_keys: int
                    ) -> _ModuleFilter | None:
        """Replace filter ``mid`` by an empty one sized for ``n_keys``
        keys; a module left without a resident key has no filter, the
        global filter always exists."""
        if mid is None:
            self._global = _ModuleFilter(n_keys, self.fpr)
            return self._global
        if n_keys:
            self._filters[mid] = f = _ModuleFilter(n_keys, self.fpr)
            return f
        self._filters.pop(mid, None)
        return None

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
        are re-scanned, and the changed ones diffed against their cached
        keys in one sort (:func:`_deltas`).  A filter whose key multiset
        only grew, within its Bloom geometry, gets the new keys OR-ed
        in; one that lost a key or outgrew its geometry is rebuilt from
        the cached arrays of its chunks — all of them in one hashing
        pass (:func:`_or_into`); the others are not read.

        What is *charged* is the model's bill, computed from counts with
        no hashing: when an insert batch staged its keys
        (:meth:`stage_inserts`) and the touched chunks prove nothing else
        moved, ``k`` hash ops per new (key, copy) — otherwise the
        full-rebuild formula, ``k`` hash ops per indexed key plus a DRAM
        stream of every filter word.
        """
        delta = self._sync()
        self.rebuilds += 1
        filters = [self._global, *self._filters.values()]
        n_keys = list(map(_N_KEYS, filters))
        self.keys_indexed = sum(n_keys)
        if delta is not None:
            self.incremental += 1
            k_ops, bit_words, n_metas = delta
        else:
            k_ops = sum(map(mul, map(_K, filters), n_keys))
            bit_words = sum(map(len, map(_WORDS, filters)))
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
        chunks, info_of, held = self._chunks, self._meta_info, self._held
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

        # The key arrays each filter (None: the global one) gained and
        # lost: a holder that joins or leaves a chunk gains or loses all
        # its keys; the holders that keep a changed chunk take its diff,
        # computed below for all such chunks in one pass — ``pairs``
        # holds their (old, new) keys, ``feeds`` those holders.
        gains: defaultdict[int | None, list[np.ndarray]] = defaultdict(list)
        losses: defaultdict[int | None, list[np.ndarray]] = defaultdict(list)
        pairs: list[tuple[np.ndarray, np.ndarray]] = []
        feeds: list[tuple[int | None, ...]] = []

        incremental = staged is not None and g is not None and not gone
        grown = 0                      # chunks that took a staged key
        staged_on: dict[int, int] = {}  # module -> staged (key, copy) pairs
        n_global = 0 if g is None else g.n_keys

        for nid in gone:
            keys, secs = chunks.pop(nid)
            res = (info_of.pop(nid)[0], *secs)
            for mid in res:
                held[mid].discard(nid)
            if len(keys):
                for mid in (None, *res):
                    losses[mid].append(keys)
            n_global -= len(keys)
        # One row per touched chunk, in root-nid order; the rows' key
        # arrays are read in array passes after the loop.
        rows: list[tuple] = []
        steady = True       # no chunk moved, re-replicated or opened
        for meta in sorted(touched, key=_ROOT_NID):
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
            else:
                keys, closed = keys_old, was_closed
            steady = steady and res == res_old and closed == was_closed
            if res == res_old:
                stay = (None, *res)
            else:
                stay = (None, *(mid for mid in res if mid in res_old))
                for mid in res_old:
                    if mid not in res:
                        held[mid].discard(nid)
                        if len(keys_old):
                            losses[mid].append(keys_old)
                for mid in res:
                    if mid not in res_old:
                        held[mid].add(nid)
                        if len(keys):
                            gains[mid].append(keys)
            if keys is not keys_old:
                if len(keys_old):
                    pairs.append((keys_old, keys))
                    feeds.append(stay)
                elif len(keys):
                    for mid in stay:
                        gains[mid].append(keys)
            chunks[nid] = (keys, res[1:])
            rows += ((meta, keys, keys_old, res, closed),)
        if rows:
            metas, new, old, holders, closeds = zip(*rows)
            n = len(rows)
            lens = np.fromiter(map(len, new), dtype=np.intp, count=n)
            lens_old = np.fromiter(map(len, old), dtype=np.intp, count=n)
            n_global += int(lens.sum()) - int(lens_old.sum())
            flat = np.concatenate(new)
            # The summaries: each chunk's key range (None when empty).
            los, his = [None] * n, [None] * n
            full = np.flatnonzero(lens)
            if len(full):
                starts = (np.cumsum(lens) - lens)[full]
                for i, lo, hi in zip(
                        full.tolist(),
                        np.minimum.reduceat(flat, starts).tolist(),
                        np.maximum.reduceat(flat, starts).tolist()):
                    los[i], his[i] = lo, hi
            info_of.update(zip(map(_ROOT_NID, metas),
                               zip(map(_MODULE, metas), los, his, closeds)))
            # The staged keys must be every change: per chunk, found in
            # it exactly as often as it grew.
            incremental = incremental and steady
            if incremental:
                hit = np.isin(flat, staged)
                n_staged = np.bincount(np.repeat(np.arange(n), lens)[hit],
                                       minlength=n)
                incremental = bool((lens == lens_old + n_staged).all())
                if incremental:
                    took = np.flatnonzero(n_staged)
                    grown = len(took)
                    for i, c in zip(took.tolist(), n_staged[took].tolist()):
                        for mid in holders[i]:
                            staged_on[mid] = staged_on.get(mid, 0) + c
        if None in marked:
            keys_old = self._l0_keys
            keys, _ = _scan(tree.root, None)
            if keys is not keys_old:
                if len(keys_old):
                    pairs.append((keys_old, keys))
                    feeds.append((None,))
                elif len(keys):
                    gains[None].append(keys)
            n_global += len(keys) - len(keys_old)
            self._l0_keys = keys
        if pairs:
            for (gained, shed), stay in zip(_deltas(pairs), feeds):
                for mid in stay:
                    if len(gained):
                        gains[mid].append(gained)
                    if len(shed):
                        losses[mid].append(shed)
        # A filter with a loss nets it against its gains (a key that left
        # one of its chunks for another is no change), all such filters
        # in one more pass; one that still lost a key is rebuilt.
        lost: set[int | None] = set()
        if losses:
            netted = _deltas([(_concat(shed), _concat(gains[mid]))
                              for mid, shed in losses.items()])
            for mid, (gained, shed) in zip(losses, netted):
                if len(shed):
                    lost.add(mid)
                gains[mid] = [gained] if len(gained) else []

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

        # Apply, in one hashing pass: a filter that only grew within its
        # geometry takes its gains; one that lost a key or outgrew its
        # geometry is rebuilt from the cache; one that does not exist
        # yet (a module's first keys; the global one on an empty cache)
        # is built from its gains.
        mids = {mid for mid, parts in gains.items() if parts} | lost
        if g is None:
            mids.add(None)
        jobs = []
        for mid in ([None] if None in mids else []) + sorted(mids - {None}):
            f, keys = self._filter(mid), _concat(gains[mid])
            if f is None or mid in lost or not self._fits(mid, len(keys)):
                if f is not None:
                    keys = self._cached_keys(mid)
                f = self._new_filter(mid, len(keys))
            if f is not None:
                jobs.append((f, keys, self._seed_of(mid)))
        _or_into(jobs)
        return delta

    def _cached_keys(self, mid: int | None) -> np.ndarray:
        """Every cached key filter ``mid`` indexes: the global filter's
        are every chunk's and the L0 pseudo-chunk's, a module's those of
        the chunks it holds (``_held``)."""
        chunks = self._chunks
        if mid is None:
            return _concat([*map(_FIRST, chunks.values()), self._l0_keys])
        return _concat([chunks[nid][0] for nid in self._held[mid]])

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
    # pre-send pruning: the executor's group hooks, one array pass a round
    # ------------------------------------------------------------------
    def _chunk_summaries(self, groups: list) -> list[tuple]:
        """Each group's chunk summary, ``(module, lo, hi, closed)``; a
        stale one reads as open, so its tasks are kept."""
        return [i or _UNKNOWN_CHUNK for i in map(
            self._meta_info.get, [meta.root.nid for meta, _ in groups])]

    def _cut(self, groups: list, tasks: list, sizes: list,
             cut: np.ndarray) -> list:
        """Drop the round's ``cut`` tasks (in group order, ``sizes`` per
        group), each a pruned query; the kept groups, emptied ones gone."""
        n_cut = int(np.count_nonzero(cut))
        if not n_cut:
            return groups
        self.queries_pruned += n_cut
        self.words_saved += float(np.fromiter(
            map(_SEND_WORDS, compress(tasks, cut.tolist())),
            dtype=np.float64, count=n_cut).sum())
        keep = (~cut).tolist()
        left = np.add.reduceat(~cut, np.cumsum([0, *sizes[:-1]]),
                               dtype=np.intp).tolist()
        ends = np.cumsum(sizes).tolist()
        return [(meta, ts if c == m else list(compress(ts, keep[e - m:e])))
                for (meta, ts), c, m, e in zip(groups, left, sizes, ends)
                if c]

    def _absent(self, mids: list, of: np.ndarray, keys: np.ndarray
                ) -> tuple[np.ndarray, int]:
        """Probe: is key ``i`` provably absent from filter ``mids[of[i]]``
        (``None``: the global one)?  Present keys never are: a key may be
        present when inside the filter's key range with all ``k`` bits
        set.  A module with no filter holds no key and costs no hash.
        Counts the probes; returns the verdicts and their host ops."""
        filters = list(map(self._filter, mids))
        hashed = np.array([f is not None for f in filters])[of]
        filters = [f or _ModuleFilter(0, self.fpr) for f in filters]
        words, _, _, salts, masks, bases = _layout(
            filters, map(self._seed_of, mids))
        k = self._global.k
        w, b = _bit_index(keys, salts[of], masks[of], bases[of], k)
        # An empty filter's range is [1, 0]: no key falls in it.
        lo = np.array([1 if f.lo is None else f.lo for f in filters],
                      dtype=np.uint64)
        hi = np.array([f.hi or 0 for f in filters], dtype=np.uint64)
        self.probes += len(keys)
        return ((keys < lo[of]) | (keys > hi[of])
                | np.logical_or.reduce((words[w] & b) == 0, axis=0),
                len(keys) * _PROBE_BASE_OPS
                + int(np.count_nonzero(hashed)) * k * _HASH_OPS)

    def make_search_prune(self, results):
        """Group hook for point lookups and delete planning, one array
        pass per round.  Returns ``(prune, probed)``: the hook, and per
        query whether the global filter screened it (:meth:`account_search`).

        A query's first task probes the global Bloom, a surviving task in
        a closed chunk its module's filter too.  A query holds at most one
        task per round (L0 routing emits one per key, the search kernel at
        most one per task), so a verdict only feeds later rounds.  With a
        replicated L0, whose routing round is a send, the global probe
        screens the batch here, before routing.
        """
        from ..core.push_pull import QUERY_WORDS, TRACE_WORDS

        sys = self.tree.system
        n = len(results)
        keys = np.fromiter(map(_KEY, results), dtype=np.uint64, count=n)
        probed = np.zeros(n, dtype=bool)

        def screen(qids: np.ndarray) -> tuple[np.ndarray, int]:
            probed[qids] = True
            return self._absent([None], np.zeros(len(qids), dtype=np.intp),
                                keys[qids])

        if n and not self.tree.l0_on_cpu:
            absent, ops = screen(np.arange(n))
            sys.charge_cpu(ops)
            for res in compress(results, absent.tolist()):
                res.pruned = True
            n_cut = int(np.count_nonzero(absent))
            self.queries_pruned += n_cut
            self.words_saved += n_cut * (QUERY_WORDS + TRACE_WORDS)

        def prune(groups: list) -> list:
            tasks, sizes, qid = _round_tasks(groups)
            cut = np.zeros(len(tasks), dtype=bool)
            ops = 0
            first = ~probed[qid]
            if first.any():
                cut[first], ops = screen(qid[first])
            infos = self._chunk_summaries(groups)
            ask = ~cut & np.repeat(np.array([i[3] for i in infos]), sizes)
            if ask.any():
                mids = list(dict.fromkeys(i[0] for i in infos if i[3]))
                slot = dict(zip(mids, range(len(mids))))
                of = np.repeat(np.array([slot.get(i[0], 0) for i in infos]),
                               sizes)[ask]
                cut[ask], more = self._absent(mids, of, keys[qid[ask]])
                ops += more
            if ops:
                sys.charge_cpu(ops)
            for q in qid[cut].tolist():
                results[q].pruned = True
            return self._cut(groups, tasks, sizes, cut)

        return prune, probed

    def account_search(self, results, probed: np.ndarray) -> None:
        """Tally false positives once ground truth is known (stats only):
        screened (``probed``), unpruned queries whose leaf lacks the key.

        One sorted pass: the keys of every leaf reached, pooled, and one
        ``searchsorted`` of the queried keys.  Leaves cover disjoint key
        ranges and a search reaches the leaf whose range holds its key
        (an edge, when no leaf's does), so a key is in the pool exactly
        when its own leaf holds it.
        """
        asked = [res for res in compress(results, probed.tolist())
                 if not res.pruned]
        if not asked:
            return
        held = [leaf.keys for leaf in dict.fromkeys(map(_LEAF, asked))
                if leaf is not None and leaf.keys is not None]
        pool = np.sort(np.concatenate(held)) if held else _NO_KEYS
        keys = np.fromiter(map(_KEY, asked), dtype=np.uint64, count=len(asked))
        found = np.zeros(len(asked), dtype=bool)
        if len(pool):
            j = np.minimum(np.searchsorted(pool, keys), len(pool) - 1)
            found = pool[j] == keys
        self.fp_probes += len(asked) - int(np.count_nonzero(found))

    def make_knn_prune(self, states, bounds=None):
        """Group hook for kNN candidate/fetch rounds, one array pass each.

        A task probing a *closed* chunk whose resident z-range misses the
        query ball's covering z-range is provably empty: the chunk holds
        no point the ball can contain and the traversal cannot continue
        into another chunk.  The ball's covering range is the Morton code
        of the clipped corners of ``[q - r, q + r]`` (encoding is
        monotone per coordinate).  ``bounds`` fixes per-query radii
        (fetch); without it the current coarse radius is used and the
        cached range is refreshed whenever the radius tightens.

        Per round: one radius per distinct query; one ``encode_keys``
        call over the corners of every query whose radius moved since its
        cached cover (its charge is linear in the corners, so it equals a
        call per query); every task's verdict from its group's chunk
        summary in one compare; one probe charge and one update of each
        counter.  A task whose radius is infinite is kept unprobed.
        """
        tree = self.tree
        n, k = len(states), states[0].k
        centres = np.array([st.q for st in states])
        fixed = None if bounds is None else np.asarray(bounds,
                                                       dtype=np.float64)
        # Per query: the radius its cached cover was encoded at, and the
        # cover's [zlo, zhi].  NaN never equals a radius.
        cover_r = np.full(n, np.nan)
        cover = np.zeros((2, n), dtype=np.uint64)

        def radii(qids: np.ndarray) -> np.ndarray:
            if fixed is not None:
                return fixed[qids]
            cands = [states[q].cand_d for q in qids.tolist()]
            return np.array([c[k - 1] if c.size >= k else math.inf
                             for c in cands], dtype=np.float64)

        def prune(groups: list) -> list:
            tasks, sizes, qid = _round_tasks(groups)
            present = np.zeros(n, dtype=bool)
            present[qid] = True
            uq = np.flatnonzero(present)
            r = np.full(n, np.inf)
            r[uq] = radii(uq)
            probed = np.isfinite(r[qid])
            n_probes = int(np.count_nonzero(probed))
            if not n_probes:
                return groups
            enc = uq[np.isfinite(r[uq]) & (cover_r[uq] != r[uq])]
            if len(enc):
                q, rm = centres[enc], r[enc][:, None]
                cover[:, enc] = tree.encode_keys(
                    np.concatenate([q - rm, q + rm])).reshape(2, -1)
                cover_r[enc] = r[enc]
            self.probes += n_probes
            tree.system.charge_cpu(n_probes * _PROBE_BASE_OPS)

            # A group's chunk summary gates all its tasks: open chunks
            # keep them, a closed chunk with no resident key drops them,
            # the rest compare ranges.
            infos = self._chunk_summaries(groups)
            gate = np.array([i[3] for i in infos])
            if not gate.any():
                return groups
            vacant = np.array([i[1] is None for i in infos])
            lo = np.array([i[1] or 0 for i in infos], dtype=np.uint64)
            hi = np.array([i[2] or 0 for i in infos], dtype=np.uint64)
            grp = np.repeat(np.arange(len(groups)), sizes)
            zlo, zhi = cover[0, qid], cover[1, qid]
            cut = probed & gate[grp] & (vacant[grp] | (zhi < lo[grp])
                                        | (zlo > hi[grp]))
            return self._cut(groups, tasks, sizes, cut)

        return prune

    # ------------------------------------------------------------------
    # observability + persistence (the tier protocol's snapshot half)
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        return {
            "enabled": True,  # a fixed value the serve output prints
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
        """Snapshot payload: config only — bits rebuild from residency.
        ``"enabled"`` is fixed (a checkpoint charges the manifest bytes)."""
        return {"fpr": self.fpr, "seed": self.seed, "enabled": True}

    @classmethod
    def restore(cls, tree, doc: dict) -> "RouteFilterSet":
        """Reattach the filters a snapshot manifest recorded, with an empty
        cache and nothing built: the next ``tree.refresh_residency()``
        builds them, charged like the constructor's build."""
        rf = cls.__new__(cls)
        rf._attach(tree, float(doc["fpr"]), int(doc["seed"]))
        return rf
