"""Route-filter upkeep (``repro.route.RouteFilterSet``) under every verb.

The filter set keeps a per-chunk key cache and reads the chunks a batch
touched from the tree's chunk-change feed, which the marking primitives
(``mark_dirty`` / ``mark_dirty_subtree`` / ``mark_removed``) fill;
``refresh`` then re-scans only those and ORs into, or rebuilds, only the
filters they feed.  Four guarantees:

* **filters ≡ fresh build** — after any verb that can change what is
  resident where (insert incl. re-inserted keys, piles of equal keys and a
  batch that crosses a Bloom-geometry boundary; delete down to emptied
  chunks and a new root; both layer-transition directions; a forced
  re-chunk; migrate / clone / replica install; failover with promotion; a
  faulted insert that rolls back; snapshot decode + WAL replay) every
  filter, ``_meta_info`` and the counters equal a set built from scratch
  (``tree.check_invariants()`` → ``RouteFilterSet.check``);
* **charge ≡ legacy** — every ``refresh`` charges, to the last integer,
  what the parent commit's full residency walk + ``_try_incremental``
  charged; that code is kept verbatim below as the oracle and shadows
  every refresh (bits, ``_meta_info``, ``rebuilds`` / ``incremental`` /
  ``keys_indexed`` are compared as well);
* **the deterministic proxy** — a one-point insert re-scans only chunks on
  the key's root-to-leaf path, a migrate rebuilds one module's filter, a
  delete the holders of the touched chunks plus the global one;
* **no address dependence** — two identical trees built with different
  allocation histories keep their summaries in the same order.
"""

from __future__ import annotations

import contextlib
import tempfile
from collections import Counter

import numpy as np
import pytest
from conftest import brute_box_count, brute_knn
from exec_oracle import exec_engine
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_node_arena import N_MODULES, N_POINTS, _config
from test_node_arena import _World as _ArenaWorld

from repro.core import PIMZdTree
from repro.core.node import Layer
from repro.core.relocate import Move, relocate
from repro.core.residency import ResidencyFeed
from repro.eval import make_adapter
from repro.eval.harness import make_boxes
from repro.pim import PIMSystem
from repro.replicate import ReplicaSet, ReplicationConfig
from repro.route import RouteFilterSet
from repro.route import filters as route_filters
from repro.route.filters import (
    _REBUILD_OPS_PER_KEY,
    _REBUILD_OPS_PER_META,
    _bloom_params,
    _splitmix_array,
)
from repro.serve import AdmissionQueue, ServeLoop, make_requests
from repro.store import DurableStore, open_backend
from repro.tune import apply_serving_config, default_space
from repro.workloads import poisson_arrivals, varden_points


# ======================================================================
# The oracle: the parent commit's maintenance, verbatim.  `_ModuleFilter`
# hashes in k passes, `rebuild` walks every meta (in `tree.metas` set
# order — only order-free results are compared) and `_try_incremental`
# decides the charge.  The only edits: the class shell around them, and
# `self.tree` is a view of the real tree whose `system` is a ledger.
# ======================================================================
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

class _Ledger:
    """Stands in for ``tree.system``: records what the oracle charges."""

    def __init__(self) -> None:
        self.cpu_ops = 0
        self.dram_words = 0

    @contextlib.contextmanager
    def phase(self, label):
        assert label == "route"
        yield

    def charge_cpu(self, ops) -> None:
        self.cpu_ops += ops

    def dram_stream(self, words) -> None:
        self.dram_words += words


class _TreeView:
    """The real tree, with the ledger where the system would be."""

    def __init__(self, tree, system) -> None:
        self._tree = tree
        self.system = system

    def __getattr__(self, name):
        return getattr(self._tree, name)


class _LegacyFilters:
    def __init__(self, rf: RouteFilterSet) -> None:
        self.tree = _TreeView(rf.tree, _Ledger())
        self.fpr = rf.fpr
        self.seed = rf.seed
        self.rebuilds = 0
        self.incremental = 0
        self.keys_indexed = 0
        self._global: _ModuleFilter | None = None
        self._filters: dict[int, _ModuleFilter] = {}
        self._meta_info: dict[int, tuple] = {}
        self._staged: np.ndarray | None = None
        self._chunk_counts: dict[int, int] = {}
        self._reps_snapshot: dict[int, tuple[int, ...]] = {}

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


# ======================================================================
# shadowing: every RouteFilterSet.refresh is followed by the oracle's
# ======================================================================
def _filter_fields(f):
    return (f.m_bits, f.k, f.lo, f.hi, f.n_keys, f.words.tobytes())


@contextlib.contextmanager
def _shadowed():
    """Run the oracle's rebuild after every real refresh — same tree, same
    staged keys — and hold the two against each other."""
    real = RouteFilterSet.refresh

    def refresh(self) -> None:
        oracle = self.__dict__.get("_oracle")
        if oracle is None:
            oracle = self._oracle = _LegacyFilters(self)
        oracle._staged, oracle.fpr = self._staged, self.fpr
        stats, ledger = self.tree.system.stats, oracle.tree.system
        total = stats.total  # a copy of the ledger's total row
        before = (total.cpu_ops, total.dram_words,
                  ledger.cpu_ops, ledger.dram_words)
        real(self)
        oracle.rebuild()
        total = stats.total
        assert (total.cpu_ops - before[0], total.dram_words - before[1]) == (
            ledger.cpu_ops - before[2], ledger.dram_words - before[3]
        ), "refresh charged differently from the legacy walk"
        assert (self.rebuilds, self.incremental, self.keys_indexed) == (
            oracle.rebuilds, oracle.incremental, oracle.keys_indexed)
        assert self._meta_info == oracle._meta_info
        assert self._filters.keys() == oracle._filters.keys()
        assert _filter_fields(self._global) == _filter_fields(oracle._global)
        for mid, f in self._filters.items():
            assert _filter_fields(f) == _filter_fields(oracle._filters[mid]), mid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RouteFilterSet, "refresh", refresh)
        yield


# ======================================================================
# the world: test_node_arena's verbs, plus filters and what they add
# ======================================================================
VERBS = (
    "insert", "reinsert", "pile", "geometry", "cluster", "delete",
    "empty_chunk", "delete_half", "grow", "shrink", "rechunk", "migrate",
    "clone", "replicate", "fail_over", "fault_insert", "fault_delete",
    "recover", "retune",
)


def _leaves_of(meta):
    out, stack = [], [meta.root]
    while stack:
        nd = stack.pop()
        if nd.meta is meta:
            if nd.is_leaf:
                out.append(nd)
            else:
                stack += (nd.left, nd.right)
    return out


class _World(_ArenaWorld):
    """A filtered tree (optionally replicated) behind a journal."""

    def __init__(self, dims, variant, seed, tmp, *, k) -> None:
        self.rng = np.random.default_rng(seed)
        self.dims = dims
        cfg = _config(variant)
        self.tree = PIMZdTree(self.rng.random((N_POINTS, dims)), config=cfg,
                              system=PIMSystem(N_MODULES, seed=seed))
        if k:
            ReplicaSet(self.tree, ReplicationConfig(k=k)).replicate_all()
        RouteFilterSet(self.tree, fpr=0.01, seed=seed % 5)
        self.backend = open_backend("file", tmp)
        DurableStore(self.backend).attach(self.tree)

    def query(self) -> None:
        """Answers stay exact through the filters.  The offset differs per
        coordinate: with equal offsets a pile of >= k copies sits exactly
        on the fast-L2 anchor bound (ℓ1 = √d·ℓ2 up to rounding), a kNN tie
        case the parent commit already gets wrong and this file is not
        about."""
        tree, pts = self.tree, self.tree.all_points()
        step = 1e-4 * (1 + np.arange(self.dims)) / self.dims
        q = pts[self.rng.integers(0, len(pts), size=6)] + step
        for qi, (d, _) in zip(q, tree.knn(q, 5)):
            np.testing.assert_allclose(d, brute_knn(pts, qi, 5), atol=1e-12)
        boxes = make_boxes(pts, 0.3, 4, seed=int(self.rng.integers(1 << 30)))
        want = [brute_box_count(pts, b) for b in boxes]
        assert tree.box_count(boxes).tolist() == want

    def reinsert(self) -> None:
        """Keys that are already resident: the staged arithmetic breaks."""
        self.tree.insert(np.vstack([self._stored(3), self._fresh(2)]))

    def pile(self) -> None:
        """Copies of the leftmost stored point, enough per call to cross
        θ_L0: promotion is lazy, so the second call leaves an all-equal
        *L0 leaf*, whose keys only the global filter indexes."""
        leaf = self.tree.root
        while not leaf.is_leaf:
            leaf = leaf.left
        self.tree.insert(np.repeat(leaf.pts[:1],
                                   self.tree.config.theta_l0 + 8, axis=0))

    def geometry(self) -> None:
        """Just enough fresh keys to push the global filter over its
        Bloom-geometry boundary."""
        g = self.tree.route_filters._global
        n = g.n_keys
        while _bloom_params(n, self.tree.route_filters.fpr) == (g.m_bits, g.k):
            n += 1
        self.tree.insert(self._fresh(min(n - g.n_keys, 700)))

    def empty_chunk(self) -> None:
        """Delete every point one small chunk holds."""
        small = [lv for lv in map(_leaves_of, sorted(
            self.tree.metas, key=lambda m: m.root.nid))
            if 0 < sum(nd.count for nd in lv) <= 24]
        victim = small[int(self.rng.integers(len(small)))]
        self.tree.delete(np.vstack([nd.pts for nd in victim]))

    def retune(self) -> None:
        """What the online controller does when it moves ``route.fpr``."""
        rf = self.tree.route_filters
        rf.fpr = 0.05 if rf.fpr == 0.01 else 0.01
        rf.refresh()

    def clone(self) -> None:
        if self.tree.replicas is not None:
            super().clone()

    def replicate(self) -> None:
        """Replica install: every chunk short of k copies gets its clones."""
        reps = self.tree.replicas or ReplicaSet(self.tree,
                                                ReplicationConfig(k=2))
        reps.replicate_all()


@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    dims=st.sampled_from([2, 3, 5]),
    variant=st.sampled_from(["throughput", "skew"]),
    engine=st.sampled_from(["reference", "vectorized"]),
    k=st.sampled_from([0, 2]),
    seed=st.integers(0, 2**16 - 1),
    verbs=st.lists(st.sampled_from(VERBS), min_size=3, max_size=8),
)
@example(dims=3, variant="skew", engine="vectorized", k=2, seed=1,
         verbs=list(VERBS))
@example(dims=2, variant="throughput", engine="reference", k=0, seed=2,
         verbs=list(reversed(VERBS)))
@example(dims=5, variant="skew", engine="reference", k=2, seed=3,
         verbs=["shrink", "delete_half", "grow", "recover", "pile",
                "shrink", "fail_over", "geometry", "empty_chunk"])
@example(dims=3, variant="throughput", engine="vectorized", k=0, seed=4,
         verbs=["pile", "replicate", "insert", "fail_over", "reinsert",
                "migrate", "fault_insert", "insert", "recover", "insert"])
def test_filters_equal_fresh_build_and_legacy_charge_after_every_verb(
        dims, variant, engine, k, seed, verbs):
    with (tempfile.TemporaryDirectory() as tmp, _shadowed(),
          exec_engine(engine)):
        world = _World(dims, variant, seed, tmp, k=k)
        layers = Counter(m.layer for m in world.tree.metas)
        assert layers[Layer.L1] and layers[Layer.L2], layers
        assert world.tree.root.layer == Layer.L0
        world.tree.check_invariants()
        for verb in verbs:
            getattr(world, verb)()
            rf = world.tree.route_filters
            assert rf._oracle.rebuilds == rf.rebuilds >= 1
            world.tree.check_invariants()  # filters ≡ fresh build
            world.query()  # answers still exact through the filters
        world.backend.close()


def test_verbs_reach_the_cases_they_are_named_for():
    """The sequence test is only as good as its verbs: an L0 leaf holds
    keys, the delta charge and each fallback of it are taken, a chunk is
    emptied and a Bloom geometry is outgrown."""
    with tempfile.TemporaryDirectory() as tmp, _shadowed():
        world = _World(3, "skew", 1, tmp, k=2)
        tree = world.tree
        rf = tree.route_filters
        while rf.incremental == 0:
            tree.insert(world._fresh(2))
        taken = rf.incremental
        world.reinsert()
        assert rf.incremental == taken
        world.pile()
        world.pile()
        assert len(rf._l0_keys) > tree.config.theta_l0
        assert any(nd.is_leaf for nd in tree.l0_nodes())
        m_bits = rf._global.m_bits
        world.geometry()
        assert rf._global.m_bits > m_bits
        n_metas = len(tree.metas)
        world.empty_chunk()
        assert len(tree.metas) < n_metas
        tree.check_invariants()
        world.backend.close()


# ======================================================================
# every mark is needed; the comparison is live
# ======================================================================
def _small_tree(seed: int = 4) -> PIMZdTree:
    tree = PIMZdTree(np.random.default_rng(seed).random((N_POINTS, 3)),
                     config=_config("skew"),
                     system=PIMSystem(N_MODULES, seed=seed))
    RouteFilterSet(tree, fpr=0.01)
    return tree


@contextlib.contextmanager
def _muted(primitive: str):
    """The tree primitive still serves the arena but records nothing in
    the chunk-change feed — the mutation each mark must be killed by."""
    original = getattr(PIMZdTree, primitive)

    def deaf(self, node):
        feed, self.feed = self.feed, ResidencyFeed()
        try:
            original(self, node)
        finally:
            self.feed = feed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PIMZdTree, primitive, deaf)
        yield


@pytest.mark.parametrize("muted", [False, True])
@pytest.mark.parametrize("primitive",
                         ["mark_dirty", "mark_dirty_subtree", "mark_removed"])
def test_each_primitive_marks_the_chunk_it_changed(primitive, muted):
    """Drive the primitives one at a time, outside an update batch (where
    the search-path count changes mark the same chunks and hide a missing
    mark): a leaf of a multi-leaf chunk loses keys, one primitive reports
    it, and the next refresh must re-scan exactly that chunk."""
    tree = _small_tree()
    rf = tree.route_filters
    meta = next(m for m in sorted(tree.metas, key=lambda m: m.root.nid)
                if len(_leaves_of(m)) > 1)
    leaf = _leaves_of(meta)[0]
    leaf.keys, leaf.pts = leaf.keys[1:], leaf.pts[1:]
    with _muted(primitive) if muted else contextlib.nullcontext():
        getattr(tree, primitive)(
            meta.root if primitive == "mark_dirty_subtree" else leaf)
    assert (tree.feed.metas == {meta}) is not muted
    rf.refresh()
    if muted:
        with pytest.raises(AssertionError, match="stale chunk summary|differs"):
            rf.check()
    else:
        rf.check()


def test_l0_nodes_mark_the_l0_pseudo_chunk():
    """Keys held above the chunked layers live only in the global filter;
    a meta-less node marks ``None`` and the L0 leaves are re-read."""
    tree = _small_tree()
    rf = tree.route_filters
    pile = np.repeat(tree.all_points()[:1], tree.config.theta_l0 + 8, axis=0)
    tree.insert(pile)
    tree.insert(pile)  # promotion is lazy: the second batch reaches L0
    leaf = next(nd for nd in tree.l0_nodes() if nd.is_leaf)
    assert len(rf._l0_keys) == leaf.count
    leaf.keys, leaf.pts = leaf.keys[1:], leaf.pts[1:]
    tree.mark_dirty(leaf)
    assert tree.feed.metas == {None}
    rf.refresh()
    assert len(rf._l0_keys) == leaf.count - 1
    rf.check()


def _demote_and_rechunk(world) -> None:
    """An L1 subtree's counters collapse: it is re-layered to L2 and its
    region re-chunked.  The top chunk keeps its root — and so its nid and
    module — but not its members, and no search path marked it."""
    tree = world.tree
    sub = next(m.root for m in sorted(tree.metas, key=lambda m: m.root.nid)
               if m.layer == Layer.L1 and not m.root.is_leaf)
    stack = [sub]
    while stack:
        nd = stack.pop()
        nd.sc = 1  # all equal: the whole subtree becomes one L2 chunk
        if not nd.is_leaf:
            stack += (nd.left, nd.right)
    tree._assign_layers_subtree(sub, sub.parent.layer)
    assert sub.layer == Layer.L2
    tree.mark_stale(sub.meta)
    with tree.system.phase("insert"):
        tree.rechunk_stale()
    tree.refresh_residency()


@pytest.mark.parametrize("primitive, verb", [
    ("mark_dirty", _World.insert),
    ("mark_dirty_subtree", _demote_and_rechunk),
])
def test_a_muted_mark_fails_in_the_update_flow(primitive, verb):
    """The same mutation inside the real update code: an insert changes a
    chunk's keys, a re-chunk changes its members.  The feed each refresh
    reads then lacks a chunk it names unmuted, and the filters notice."""
    fed = {}
    for muted in (False, True):
        with tempfile.TemporaryDirectory() as tmp:
            world = _World(3, "skew", 1, tmp, k=2)
            tree = world.tree
            fed[muted] = marks = set()
            refresh = tree.refresh_residency

            def recorded() -> None:
                marks.update(m.root.nid for m in tree.feed.metas
                             if m is not None)
                refresh()

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tree, "refresh_residency", recorded)
                with _muted(primitive) if muted else contextlib.nullcontext():
                    verb(world)
            # (the demotion leaves counters outside Lemma 3.1 on purpose,
            # so the unmuted run checks the filters alone)
            if muted:
                with pytest.raises(AssertionError, match="stale chunk"):
                    tree.route_filters.check()
                with pytest.raises(AssertionError):
                    tree.check_invariants()
            else:
                tree.route_filters.check()
            world.backend.close()
    assert fed[False] - fed[True]


def test_check_invariants_notices_a_stale_filter():
    tree = _small_tree(5)
    tree.check_invariants()
    rf = tree.route_filters
    mid = min(rf._filters)
    rf._filters[mid].words[0] ^= np.uint64(1)
    with pytest.raises(AssertionError, match=f"route filter {mid} differs"):
        tree.check_invariants()
    rf._filters[mid].words[0] ^= np.uint64(1)
    nid = next(iter(rf._meta_info))
    module, lo, hi, closed = rf._meta_info[nid]
    rf._meta_info[nid] = (module, lo, hi, not closed)
    with pytest.raises(AssertionError, match="stale chunk summary"):
        tree.check_invariants()


# ======================================================================
# no address dependence
# ======================================================================
def test_allocation_history_does_not_order_the_summaries():
    """``tree.metas`` is an identity-hashed set: its iteration order is a
    function of where the allocator put each MetaNode.  Two identical
    builds with different garbage between their allocations must still
    keep ``_meta_info`` and ``_filters`` in the same (root-nid) order."""

    def build(garbage: int):
        rng = np.random.default_rng(8)
        litter = [[object() for _ in range(garbage)]]
        tree = PIMZdTree(rng.random((N_POINTS, 3)), config=_config("skew"),
                         system=PIMSystem(N_MODULES, seed=8))
        litter.append([bytearray(48) for _ in range(garbage)])
        del litter[0]
        ReplicaSet(tree, ReplicationConfig(k=2)).replicate_all()
        RouteFilterSet(tree, fpr=0.01)
        for _ in range(4):
            litter.append([object() for _ in range(garbage // 3)])
            tree.insert(rng.random((60, 3)))
            tree.delete(tree.all_points()[:25])
        meta = sorted(tree.metas, key=lambda m: m.root.nid)[3]
        relocate(tree, [Move(meta, (meta.module + 1) % N_MODULES, "migrate")],
                 phase="rebalance")
        tree.check_invariants()
        return tree

    a, b = build(0), build(30_000)
    # The premise: the two sets really do iterate differently.
    assert ([m.root.nid for m in a.metas] != [m.root.nid for m in b.metas])
    ra, rb = a.route_filters, b.route_filters
    assert list(ra._meta_info) == list(rb._meta_info)
    assert list(ra._filters) == list(rb._filters)
    assert ra._meta_info == rb._meta_info and ra.summary() == rb.summary()
    assert a.system.stats.to_dict() == b.system.stats.to_dict()


# ======================================================================
# the deterministic proxy: work follows the touched chunks
# ======================================================================
class _Probe:
    """Counts, per ``refresh``, what the upkeep looked at and hashed."""

    def __init__(self, mp, rf) -> None:
        self.rf = rf
        self.scanned, self.built, self.added, self.isin = [], [], {}, 0
        scan, isin = route_filters._scan, np.isin
        build = RouteFilterSet._new_filter
        or_into = route_filters._or_into

        def counted_scan(root, meta):
            self.scanned.append(meta)
            return scan(root, meta)

        def counted_build(rf_self, mid, n_keys):
            self.built.append(mid)
            return build(rf_self, mid, n_keys)

        def counted_or_into(jobs):
            for f, keys, _ in jobs:
                self.added[id(f)] = self.added.get(id(f), 0) + len(keys)
            or_into(jobs)

        def counted_isin(*a, **kw):
            self.isin += 1
            return isin(*a, **kw)

        mp.setattr(route_filters, "_scan", counted_scan)
        mp.setattr(RouteFilterSet, "_new_filter", counted_build)
        mp.setattr(route_filters, "_or_into", counted_or_into)
        mp.setattr(np, "isin", counted_isin)

    def reset(self) -> None:
        self.scanned, self.built, self.added, self.isin = [], [], {}, 0

    def ored_into(self) -> dict:
        """Keys OR-ed into filters that were *not* built from scratch."""
        rf = self.rf
        by_id = {id(f): mid for mid, f in rf._filters.items()}
        by_id[id(rf._global)] = None
        return {by_id[i]: n for i, n in self.added.items()
                if by_id[i] not in self.built}


def _path_metas(tree, point) -> list:
    key = int(tree.encode_keys(point[None])[0])
    out, node = [], tree.root
    while True:
        if node.meta is not None and node.meta not in out:
            out.append(node.meta)
        if node.is_leaf:
            return out
        bit = (key >> (tree.key_bits - node.depth - 1)) & 1
        node = node.right if bit else node.left


def test_upkeep_follows_the_touched_chunks(monkeypatch):
    data = varden_points(20_000, 3, seed=7)
    tree = make_adapter("pim", data, n_modules=64, seed=7).tree
    reps = ReplicaSet(tree, ReplicationConfig(k=2))
    reps.replicate_all()
    rf = RouteFilterSet(tree)
    probe = _Probe(monkeypatch, rf)
    n_metas = len(tree.metas)
    assert n_metas > 64  # more chunks than modules

    def holders(meta) -> set:
        return {meta.module, *reps.secondaries(meta)}

    # -- one inserted point -------------------------------------------------
    # into a leaf with room, so nothing splits or re-chunks
    leaf = next(nd for m in sorted(tree.metas, key=lambda m: m.root.nid)
                for nd in _leaves_of(m)
                if nd.count < tree.config.leaf_size - 1
                and int(nd.keys[0]) != int(nd.keys[-1]))
    point = leaf.pts[0] + (leaf.pts[-1] - leaf.pts[0]) * 0.5
    path = _path_metas(tree, point)
    assert path[-1] is leaf.meta and len(path) <= 4 < n_metas // 8
    tree.insert(point[None])
    assert len(tree.metas) == n_metas and rf.incremental == 1
    scanned = [m for m in probe.scanned if m is not None]
    assert set(scanned) <= set(path) and len(scanned) == len(set(scanned))
    assert probe.isin == 1  # one pass over the touched chunks
    assert probe.built == []
    assert probe.ored_into() == {mid: 1 for mid in (None, *holders(leaf.meta))}

    # -- one migrated chunk ---------------------------------------------------
    probe.reset()
    meta = leaf.meta
    src = meta.module
    assert sum(m.module == src for m in tree.metas) > 1
    n_keys = len(rf._chunks[meta.root.nid][0])
    # a destination whose Bloom geometry has room for the chunk
    dst = next(m for m in range(64)
               if m not in holders(meta) and rf._fits(m, n_keys))
    relocate(tree, [Move(meta, dst, "migrate")], phase="rebalance")
    assert probe.scanned == [] and probe.isin == 0  # no leaf was visited
    assert probe.built == [src]
    assert probe.ored_into() == {dst: n_keys}

    # -- three deleted points -------------------------------------------------
    probe.reset()
    victims, touched = [], []
    for m in sorted(tree.metas, key=lambda m: m.root.nid)[::n_metas // 3]:
        big = max(_leaves_of(m), key=lambda nd: nd.count, default=None)
        if big is not None and big.count > 2 and len(victims) < 3:
            victims.append(big.pts[0])
            touched.append(m)
    assert len(victims) == 3
    expect = set().union(*(holders(m) for m in touched))
    assert tree.delete(np.array(victims)) >= 3
    assert len(tree.metas) == n_metas
    assert set(probe.built) == {None, *expect} and len(expect) < 10
    assert len(probe.built) == len(set(probe.built))
    assert probe.isin == 0 and probe.ored_into() == {}
    assert len([m for m in probe.scanned if m is not None]) <= 3 * 4
    monkeypatch.undo()
    tree.check_invariants()


# ======================================================================
# filters-on serving: bits, summary() and PIMStats equal the oracle's
# ======================================================================
def serve_identity(n: int, n_modules: int, requests: int, rate: float,
                   tmp: str) -> dict:
    """Serve a mixed Varden stream with replicas k=2, filters, the
    rebalancer and a checkpointing store (the shape of the ledger's
    everything-on workload: 10-point boxes, 30 % inserts), every refresh
    shadowed by the oracle."""
    data = varden_points(n, 3, seed=7)
    adapter = make_adapter("pim", data, n_modules=n_modules, seed=7)
    config = default_space().validate({
        "replicate.k": 2, "route.enabled": True, "rebalance.enabled": True,
        "checkpoint.budget_fraction": 0.2})
    with _shadowed():
        parts = apply_serving_config(adapter, config)
        store = DurableStore(open_backend("file", tmp),
                             budget_fraction=config["checkpoint.budget_fraction"])
        store.attach(adapter.tree)
        stream = make_requests(
            data, poisson_arrivals(rate, requests, seed=71),
            mix={"knn": 50, "bc": 10, "bf": 10, "insert": 30}, k=10,
            box_side=0.0007, seed=72)
        result = ServeLoop(adapter, AdmissionQueue(1024), parts["policy"],
                           rebalancer=parts["rebalancer"],
                           store=store).run(stream)
        tree = adapter.tree
        rf = tree.route_filters
        assert rf._oracle.rebuilds == rf.rebuilds
        tree.check_invariants()
        store.backend.close()
    assert result.stats.n_done == requests
    return rf.summary()


@pytest.mark.parametrize("n, n_modules, requests, rate", [
    pytest.param(6000, 16, 300, 40_000.0, id="varden-p16-k2"),
    # Cross-module residency at the ledger's scale; CI's route-suite job
    # runs this case by name.
    pytest.param(60_000, 256, 600, 150_000.0, id="varden-p256-k2"),
])
def test_serve_identity(n, n_modules, requests, rate, tmp_path):
    s = serve_identity(n, n_modules, requests, rate, str(tmp_path))
    assert s["rebuilds"] > 10 and 0 < s["incremental"] < s["rebuilds"]
