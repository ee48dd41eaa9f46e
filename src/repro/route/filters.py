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

Maintenance is charged honestly.  Filters rebuild from residency inside
``tree.refresh_residency()``, which every path that moves keys already
calls under its charged phase (bulk upload, insert/delete batches,
rebalance migrate/clone, replica install/promotion, failover rebuild,
recovery replay).  A full rebuild charges ``k`` hash ops per indexed key
plus a DRAM stream of the filter words under a ``"route"`` phase (the
pinned ``"recovery"`` phase keeps recovery attribution).  **Insert-only
batches are cheaper**: the insert path stages its new keys
(:meth:`RouteFilterSet.stage_inserts`), and when the rebuild's residency
walk proves nothing else moved, the new bits are OR-ed in place —
bit-identical to the full rebuild, but charged per *new* key only.
Deletes, migrations and every other structural change fall back to the
full rebuild automatically (the staged arithmetic stops matching).
Probes charge a few host ops each.  Crash-restart persists only ``(fpr,
seed, enabled)`` in the snapshot manifest — the bit arrays are a pure
function of residency and seed, so :func:`repro.store.recovery.recover`
rebuilds them bit-identically.
"""

from __future__ import annotations

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
        self.n_keys = len(keys)
        self.m_bits, self.k = _bloom_params(max(1, self.n_keys), fpr)
        self.words = np.zeros(self.m_bits // 64, dtype=np.uint64)
        if self.n_keys:
            self.lo = int(keys.min())
            self.hi = int(keys.max())
            mask = np.uint64(self.m_bits - 1)
            h1 = _splitmix_array(keys, seed)
            h2 = _splitmix_array(keys, seed + 1) | np.uint64(1)
            with np.errstate(over="ignore"):
                for i in range(self.k):
                    idx = (h1 + np.uint64(i) * h2) & mask
                    np.bitwise_or.at(
                        self.words, (idx >> np.uint64(6)).astype(np.int64),
                        np.uint64(1) << (idx & np.uint64(63)),
                    )
        else:
            self.lo = None
            self.hi = None

    def add(self, keys: np.ndarray, seed: int) -> None:
        """OR ``keys``' bits in place and widen the range summary.

        Bloom bits are an OR over per-key hashes, so adding the new
        keys' bits to the existing array is *bit-identical* to a full
        rebuild over old ∪ new — provided ``m_bits``/``k`` are unchanged
        (the caller checks :func:`_bloom_params` before choosing this
        path) and the seed is the same.
        """
        if not len(keys):
            return
        mask = np.uint64(self.m_bits - 1)
        h1 = _splitmix_array(keys, seed)
        h2 = _splitmix_array(keys, seed + 1) | np.uint64(1)
        with np.errstate(over="ignore"):
            for i in range(self.k):
                idx = (h1 + np.uint64(i) * h2) & mask
                np.bitwise_or.at(
                    self.words, (idx >> np.uint64(6)).astype(np.int64),
                    np.uint64(1) << (idx & np.uint64(63)),
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


class RouteFilterSet:
    """Membership-filter routing state attached to a :class:`PIMZdTree`.

    Constructing one attaches it as ``tree.route_filters`` (mirroring
    :class:`repro.replicate.ReplicaSet`) and builds the filters from the
    current residency, charged under a ``"route"`` phase.
    """

    def __init__(self, tree, *, fpr: float = DEFAULT_FPR, seed: int = 0,
                 enabled: bool = True) -> None:
        if not 0.0 < fpr < 0.5:
            raise ValueError("route-filter FPR must be in (0, 0.5)")
        self.tree = tree
        self.fpr = float(fpr)
        self.seed = int(seed)
        self.enabled = bool(enabled)
        # Observability counters (host-side, never charged).
        self.queries_pruned = 0
        self.words_saved = 0.0
        self.fp_probes = 0
        self.probes = 0
        self.rebuilds = 0
        self.incremental = 0         # rebuilds served by the in-place path
        self.keys_indexed = 0
        self._global: _ModuleFilter | None = None
        self._filters: dict[int, _ModuleFilter] = {}
        # meta.root.nid -> (module, res_lo, res_hi, closed)
        self._meta_info: dict[int, tuple[int, int | None, int | None, bool]] = {}
        # Incremental-maintenance state: keys staged by an insert-only
        # batch, per-chunk resident counts and the replica-placement
        # snapshot as of the last (re)build — the evidence the next
        # rebuild uses to prove that setting bits in place is safe.
        self._staged: np.ndarray | None = None
        self._chunk_counts: dict[int, int] = {}
        self._reps_snapshot: dict[int, tuple[int, ...]] = {}
        tree.route_filters = self
        self.rebuild()

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def stage_inserts(self, keys) -> None:
        """Declare that the residency change now in flight only *adds*
        ``keys`` (an insert batch).  The next :meth:`rebuild` then tries
        the in-place incremental path: Bloom bits are an OR over per-key
        hashes, so OR-ing the new keys' bits into the existing arrays is
        bit-identical to a full rebuild *provided* nothing else moved —
        which the rebuild verifies against the staged keys before
        touching a bit (and otherwise falls back to the full, charged
        rebuild, so stale or wrong staging can never corrupt a filter).
        Deletes, migrations and rollbacks never stage, so they keep the
        full-rebuild path.
        """
        arr = np.ascontiguousarray(np.asarray(keys, dtype=np.uint64))
        if not len(arr):
            return
        self._staged = (arr.copy() if self._staged is None
                        else np.concatenate([self._staged, arr]))

    def rebuild(self) -> None:
        """Recompute every filter from current residency (charged).

        Called from ``tree.refresh_residency()`` — i.e. inside every
        charged phase where residency actually changes — and once at
        attach time.  Determinism: bits are an OR over per-key hashes,
        so iteration order cannot matter; summaries iterate
        ``tree.metas`` in list order.

        When an insert-only batch staged its keys via
        :meth:`stage_inserts` and the residency walk proves nothing else
        changed, the rebuild is served **incrementally**: new bits are
        OR-ed into the existing arrays (bit-identical, see
        :meth:`_ModuleFilter.add`) and only the new keys' hashes are
        charged, instead of re-hashing every resident key.
        """
        staged = self._staged
        self._staged = None
        tree = self.tree
        sys = tree.system
        by_module: dict[int, list[np.ndarray]] = {}
        meta_info: dict[int, tuple[int, int | None, int | None, bool]] = {}
        all_keys: list[np.ndarray] = []
        chunk_keys: dict[int, np.ndarray] = {}
        for meta in tree.metas:
            closed = True
            parts: list[np.ndarray] = []
            stack = [meta.root]
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
            nid = meta.root.nid
            if parts:
                arr = np.concatenate(parts) if len(parts) > 1 else parts[0]
                chunk_keys[nid] = arr
                by_module.setdefault(meta.module, []).append(arr)
                all_keys.append(arr)
                meta_info[nid] = (meta.module, int(arr.min()), int(arr.max()),
                                  closed)
            else:
                meta_info[nid] = (meta.module, None, None, closed)
        # Keys held above the chunked layers (host/broadcast L0 leaves)
        # still belong in the global filter: absence there must prove
        # absence everywhere.
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node is None or node.meta is not None:
                continue
            if node.is_leaf:
                if len(node.keys):
                    all_keys.append(node.keys)
                continue
            stack.append(node.left)
            stack.append(node.right)
        # Replica copies: the keys are resident on the secondary modules
        # too (installed/promoted under their own charged phases).
        reps = self.tree.replicas
        reps_snap: dict[int, tuple[int, ...]] = {}
        if reps is not None:
            for nid, mids in reps._secondaries.items():
                reps_snap[int(nid)] = tuple(int(m) for m in mids)
                arr = chunk_keys.get(nid)
                if arr is None:
                    continue
                for mid in mids:
                    by_module.setdefault(int(mid), []).append(arr)

        if staged is not None and self._try_incremental(
                staged, chunk_keys, meta_info, all_keys, reps_snap):
            return

        seed = self.seed
        self._filters = {
            mid: _ModuleFilter(
                np.concatenate(parts) if len(parts) > 1 else parts[0],
                self.fpr, seed + 2 * (mid + 1),
            )
            for mid, parts in by_module.items()
        }
        gkeys = (np.concatenate(all_keys) if all_keys
                 else np.empty(0, dtype=np.uint64))
        self._global = _ModuleFilter(gkeys, self.fpr, seed)
        self._meta_info = meta_info
        self._chunk_counts = {nid: len(arr)
                              for nid, arr in chunk_keys.items()}
        self._reps_snapshot = reps_snap
        self.rebuilds += 1
        self.keys_indexed = int(sum(f.n_keys for f in self._filters.values())
                                + self._global.n_keys)

        # Charge the maintenance under its own phase (a pinned phase —
        # recovery — keeps its label): k hash ops per indexed key, the
        # per-chunk summary bookkeeping, and a DRAM stream of the bits.
        k_ops = (self._global.k * self._global.n_keys
                 + sum(f.k * f.n_keys for f in self._filters.values()))
        bit_words = (len(self._global.words)
                     + sum(len(f.words) for f in self._filters.values()))
        with sys.phase("route"):
            sys.charge_cpu(k_ops * _REBUILD_OPS_PER_KEY
                           + len(self._meta_info) * _REBUILD_OPS_PER_META)
            sys.dram_stream(bit_words)

    def _try_incremental(self, staged: np.ndarray, chunk_keys: dict,
                         meta_info: dict, all_keys: list,
                         reps_snap: dict) -> bool:
        """Serve a rebuild by OR-ing staged insert keys in place.

        All evidence comes from the *fresh* residency walk, checked
        against the state recorded by the last build — the staging is a
        hint, never trusted: (1) the chunk set, each chunk's module and
        closedness, and the replica placement are unchanged; (2) every
        chunk's resident count grew by exactly its share of the staged
        keys, and the global count by exactly ``len(staged)`` (a delete,
        move, split or re-insert of an existing key breaks the
        arithmetic and falls back); (3) no Bloom geometry changes —
        ``_bloom_params`` for the new counts must match every touched
        filter's existing ``(m_bits, k)``.  Only then are bits OR-ed in
        (bit-identical to the full rebuild, :meth:`_ModuleFilter.add`)
        and only the *new* keys' hashes charged.  Returns True when the
        rebuild was served in place.
        """
        g = self._global
        if g is None or not len(staged):
            return False
        old_info = self._meta_info
        if set(meta_info) != set(old_info):
            return False
        for nid, (module, _, _, closed) in meta_info.items():
            old = old_info[nid]
            if module != old[0] or closed != old[3]:
                return False
        if reps_snap != self._reps_snapshot:
            return False
        # Per-chunk arithmetic: new count == old count + staged keys
        # that landed in the chunk (and no chunk lost its keys).
        added_per_chunk: dict[int, np.ndarray] = {}
        for nid, arr in chunk_keys.items():
            add = arr[np.isin(arr, staged)]
            if len(arr) != self._chunk_counts.get(nid, 0) + len(add):
                return False
            if len(add):
                added_per_chunk[nid] = add
        for nid, old_n in self._chunk_counts.items():
            if old_n and nid not in chunk_keys:
                return False
        new_gn = int(sum(len(a) for a in all_keys))
        if new_gn != g.n_keys + len(staged):
            return False
        if _bloom_params(max(1, new_gn), self.fpr) != (g.m_bits, g.k):
            return False
        # Per-module additions: each touched chunk feeds its primary
        # module plus every replica secondary holding a copy.
        added_per_module: dict[int, list[np.ndarray]] = {}
        for nid, add in added_per_chunk.items():
            for mid in (meta_info[nid][0], *reps_snap.get(nid, ())):
                added_per_module.setdefault(int(mid), []).append(add)
        per_module: list[tuple[int, np.ndarray]] = []
        for mid in sorted(added_per_module):
            parts = added_per_module[mid]
            f = self._filters.get(mid)
            if f is None:
                return False  # module gained its first keys: full build
            add = np.concatenate(parts) if len(parts) > 1 else parts[0]
            if _bloom_params(max(1, f.n_keys + len(add)),
                             self.fpr) != (f.m_bits, f.k):
                return False
            per_module.append((mid, add))

        # Every check passed — mutate.  Bits are ORs, so the result is
        # bit-identical to the full rebuild over the same residency.
        touched: list[tuple[_ModuleFilter, int]] = []
        for mid, add in per_module:
            f = self._filters[mid]
            f.add(add, self.seed + 2 * (mid + 1))
            touched.append((f, len(add)))
        g.add(staged, self.seed)
        touched.append((g, len(staged)))
        self._meta_info = meta_info
        self._chunk_counts = {nid: len(arr)
                              for nid, arr in chunk_keys.items()}
        self._reps_snapshot = reps_snap
        self.rebuilds += 1
        self.incremental += 1
        self.keys_indexed = int(
            sum(f.n_keys for f in self._filters.values()) + g.n_keys)

        # Charge only the delta: k hash ops per *new* (key, copy) pair,
        # summary bookkeeping for the touched chunks, and a DRAM stream
        # bounded by the bits actually written (never more than the
        # filter itself — the full-rebuild stream is the ceiling).
        k_ops = sum(f.k * cnt for f, cnt in touched)
        bit_words = sum(min(len(f.words), f.k * cnt) for f, cnt in touched)
        sys = self.tree.system
        with sys.phase("route"):
            sys.charge_cpu(k_ops * _REBUILD_OPS_PER_KEY
                           + len(added_per_chunk) * _REBUILD_OPS_PER_META)
            sys.dram_stream(bit_words)
        return True

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
        return f.probe(key, self.seed + 2 * (mid + 1))

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
        from ..core.push_pull import QUERY_WORDS
        from ..core.search import TRACE_WORDS

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
    # observability + persistence
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
    def from_manifest(cls, tree, doc: dict) -> "RouteFilterSet":
        return cls(tree, fpr=float(doc["fpr"]), seed=int(doc["seed"]),
                   enabled=bool(doc.get("enabled", True)))
