"""The node arena (``repro.core.vexec.NodeArena``) under every verb.

The vectorized kernels read one tree-wide structure-of-arrays view that
the update path keeps current through a dirty set.  Three guarantees:

* **arena ≡ fresh build** — after any verb that can touch the tree
  (insert, delete down to spliced leaves and a new root, both layer
  transition directions, a forced re-chunk, chunk migration / cloning,
  module failover, a faulted update that rolls back, snapshot decode +
  WAL replay) the flushed arena, restricted to reachable rows, equals an
  arena built from scratch on the same tree (``check_arena``: every
  column, child links and meta handles by node identity);
* **bounded garbage** — a churn of 20× the tree size through
  insert/delete batches never leaves more than 2× the live rows behind;
* **the deterministic proxy** — a kNN or box batch enters the descent /
  range kernel exactly once per executor round and site (pushed groups,
  pulled groups) that runs anything, and
  a one-point insert between two kNN batches rewrites O(path) rows.
"""

from __future__ import annotations

import tempfile
from collections import Counter

import numpy as np
import pytest
from conftest import assert_same_points, brute_box_count, brute_knn
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_faults import _DropNth

from repro.core import PIMZdTree, vexec
from repro.core.config import skew_resistant, throughput_optimized
from repro.core.node import Layer, subtree_nodes
from repro.core.push_pull import PushPullExecutor
from repro.core.relocate import Move, relocate
from repro.eval import make_adapter
from repro.eval.harness import make_boxes
from repro.faults import FaultError
from repro.pim import PIMSystem
from repro.replicate import ReplicaSet, ReplicationConfig
from repro.store import DurableStore, open_backend, recover
from repro.workloads import uniform_points, varden_points

N_MODULES = 8
N_POINTS = 500

VERBS = (
    "insert", "cluster", "delete", "delete_half", "grow", "shrink",
    "rechunk", "migrate", "clone", "fail_over", "fault_insert",
    "fault_delete", "recover",
)


def _config(variant: str):
    """Small leaves and low θ so 500 points span L0, L1 *and* L2."""
    if variant == "skew":
        return skew_resistant(N_MODULES, leaf_size=4, chunk_factor=16, c0=8)
    return throughput_optimized(N_POINTS, N_MODULES, leaf_size=4,
                                theta_l1=6, chunk_factor=8)


class _World:
    """One tree with replicas and a journal, plus the verbs to poke it."""

    def __init__(self, dims: int, variant: str, seed: int, tmp: str) -> None:
        self.rng = np.random.default_rng(seed)
        self.dims = dims
        pts = self.rng.random((N_POINTS, dims))
        self.tree = PIMZdTree(pts, config=_config(variant),
                              system=PIMSystem(N_MODULES, seed=seed))
        ReplicaSet(self.tree, ReplicationConfig(k=2))
        self.backend = open_backend("file", tmp)
        DurableStore(self.backend).attach(self.tree)

    # -- reads (these flush and then *use* the arena) ---------------------
    def query(self) -> None:
        tree, pts = self.tree, self.tree.all_points()
        q = pts[self.rng.integers(0, len(pts), size=6)] + 1e-4
        for qi, (d, _) in zip(q, tree.knn(q, 5)):
            np.testing.assert_allclose(d, brute_knn(pts, qi, 5), atol=1e-12)
        boxes = make_boxes(pts, 0.3, 4, seed=int(self.rng.integers(1 << 30)))
        want = [brute_box_count(pts, b) for b in boxes]
        assert tree.box_count(boxes).tolist() == want
        for got, n in zip(tree.box_fetch(boxes), want):
            assert len(got) == n

    # -- helpers ------------------------------------------------------------
    def _fresh(self, n: int) -> np.ndarray:
        return self.rng.random((n, self.dims))

    def _stored(self, n: int) -> np.ndarray:
        pts = self.tree.all_points()
        n = min(n, len(pts) - 1)
        return pts[self.rng.choice(len(pts), size=n, replace=False)]

    def _meta(self):
        metas = sorted(self.tree.metas, key=lambda m: m.root.nid)
        return metas[int(self.rng.integers(len(metas)))]

    def _live_module(self, avoid: int) -> int:
        sys = self.tree.system
        live = [m for m in range(sys.n_modules)
                if m not in sys.dead_modules and m != avoid]
        return live[int(self.rng.integers(len(live)))]

    # -- verbs ----------------------------------------------------------------
    def insert(self) -> None:
        self.tree.insert(self._fresh(int(self.rng.integers(1, 30))))

    def cluster(self) -> None:
        """Leaf splits and edge splits: a burst inside one tiny cell."""
        anchor = self._stored(1)[0]
        burst = anchor + self.rng.random((40, self.dims)) * 1e-3
        self.tree.insert(np.clip(burst, 0.0, 1.0))

    def delete(self) -> None:
        """With 4-point leaves a random 30 empties and splices some."""
        self.tree.delete(self._stored(30))

    def delete_half(self) -> None:
        """Empty one whole side of the root: its sibling becomes the root."""
        root = self.tree.root
        if root.is_leaf:
            return
        side = root.left if root.left.count <= root.right.count else root.right
        chunks, stack = [], [side]
        while stack:
            nd = stack.pop()
            if nd.is_leaf:
                chunks.append(nd.pts)
            else:
                stack += (nd.left, nd.right)
        old_root = self.tree.root
        self.tree.delete(np.vstack(chunks))
        assert self.tree.root is not old_root

    def grow(self) -> None:
        """Counters cross θ upward: promotions into L1 / L0."""
        self.tree.insert(self._fresh(300))

    def shrink(self) -> None:
        """Counters cross θ downward: demotions out of L0 / L1."""
        self.tree.delete(self._stored(self.tree.size * 6 // 10))

    def rechunk(self) -> None:
        tree = self.tree
        tree.mark_stale(self._meta())
        with tree.system.phase("insert"):
            tree.rechunk_stale()
        tree.refresh_residency()

    def _relocate(self, kind: str) -> None:
        meta = self._meta()
        relocate(self.tree, [Move(meta, self._live_module(meta.module), kind)],
                 phase="rebalance")

    def migrate(self) -> None:
        self._relocate("migrate")

    def clone(self) -> None:
        self._relocate("clone")

    def fail_over(self) -> None:
        if len(self.tree.system.dead_modules) < 2:
            self.tree.fail_over(self._live_module(-1))

    def _faulted(self, op: str, batch: np.ndarray) -> None:
        """Lose one transfer of the update; the tree must roll back (or,
        if the update has fewer transfers, simply apply)."""
        tree, before = self.tree, self.tree.all_points()
        tree.system.attach_faults(_DropNth(int(self.rng.integers(1, 40))))
        try:
            getattr(tree, op)(batch)
        except FaultError:
            assert_same_points(tree.all_points(), before)
        finally:
            tree.system.attach_faults(None)

    def fault_insert(self) -> None:
        self._faulted("insert", self._fresh(60))

    def fault_delete(self) -> None:
        self._faulted("delete", self._stored(60))

    def recover(self) -> None:
        """Continue on the tree decoded from the snapshot + replayed WAL."""
        live = self.tree.all_points()
        self.tree = recover(self.backend).tree
        assert isinstance(self.tree._arena, vexec.NodeArena)
        assert_same_points(self.tree.all_points(), live)
        DurableStore(self.backend).attach(self.tree)


@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    dims=st.sampled_from([2, 3, 5]),
    variant=st.sampled_from(["throughput", "skew"]),
    seed=st.integers(0, 2**16 - 1),
    verbs=st.lists(st.sampled_from(VERBS), min_size=3, max_size=8),
)
@example(dims=3, variant="skew", seed=1, verbs=list(VERBS))
@example(dims=2, variant="throughput", seed=2, verbs=list(reversed(VERBS)))
@example(dims=5, variant="skew", seed=3,
         verbs=["shrink", "delete_half", "grow", "recover", "cluster",
                "shrink", "fail_over", "grow"])
def test_arena_equals_fresh_build_after_every_verb(dims, variant, seed, verbs):
    with tempfile.TemporaryDirectory() as tmp:
        world = _World(dims, variant, seed, tmp)
        layers = Counter(m.layer for m in world.tree.metas)
        assert layers[Layer.L1] and layers[Layer.L2], layers
        assert world.tree.root.layer == Layer.L0
        world.query()  # the first vectorized query builds the arena
        vexec.check_arena(world.tree)
        for verb in verbs:
            getattr(world, verb)()
            vexec.check_arena(world.tree)
            world.query()
            world.tree.check_invariants()  # runs check_arena again
        world.backend.close()


def _members(meta):
    out, stack = [], [meta.root]
    while stack:
        nd = stack.pop()
        out.append(nd)
        if not nd.is_leaf:
            stack += [c for c in (nd.left, nd.right) if c.meta is meta]
    return out


def test_each_primitive_marks_what_it_changes():
    """Drive the marking primitives one at a time, outside an update
    batch (where the search-path count changes would mark the same rows
    and hide a missing mark)."""
    from repro.core.update import _assign_mixed, _BatchState, _leave_meta

    tree = PIMZdTree(np.random.default_rng(4).random((N_POINTS, 3)),
                     config=_config("skew"),
                     system=PIMSystem(N_MODULES, seed=4))
    tree.knn(tree.all_points()[:4], 3)
    arena, cfg = tree._arena, tree.config

    # A chunk sitting exactly at the dense threshold: one member leaving
    # flips its per-visit cycles, one joining flips them back.
    dense_at = max(1, cfg.chunk_factor // 4)
    meta = next(m for m in sorted(tree.metas, key=lambda m: m.root.nid)
                if m.n_nodes == dense_at > 1)
    member = next(nd for nd in _members(meta) if nd is not meta.root)
    before = meta.cycles_per_node(cfg)
    _leave_meta(tree, member)
    assert meta.cycles_per_node(cfg) != before
    vexec.check_arena(tree)
    assert arena.meta_id[member.row] == -1
    assert arena.meta_cycles[meta.root.row] == meta.cycles_per_node(cfg)

    state = _BatchState()
    state.new_nodes.add(member.nid)
    _assign_mixed(tree, member, member.parent, state)
    assert member.meta is meta and meta.cycles_per_node(cfg) == before
    tree.mark_dirty(member)  # a really new node is found through its parent
    vexec.check_arena(tree)
    assert arena.meta_cycles[meta.root.row] == before

    # Re-layering a subtree on its own (no re-chunk riding along).
    sub = next(m.root for m in sorted(tree.metas, key=lambda m: m.root.nid)
               if m.layer == Layer.L1 and not m.root.is_leaf)
    stack = [sub]
    while stack:
        nd = stack.pop()
        nd.sc = 0
        if not nd.is_leaf:
            stack += (nd.left, nd.right)
    tree._assign_layers_subtree(sub, sub.parent.layer)
    assert sub.layer == Layer.L2
    vexec.check_arena(tree)
    assert arena.layer[sub.row] == Layer.L2


def test_check_invariants_notices_a_stale_arena():
    """The comparison is live: a missed mark fails ``check_invariants``."""
    tree = PIMZdTree(uniform_points(400, 3, seed=5),
                     system=PIMSystem(N_MODULES, seed=5))
    tree.knn(tree.all_points()[:4], 3)
    tree.check_invariants()
    leaf = tree.root
    while not leaf.is_leaf:
        leaf = leaf.left
    tree._arena.count[leaf.row] += 1
    with pytest.raises(AssertionError, match="arena column count"):
        tree.check_invariants()


def test_arena_rows_stay_within_twice_the_live_nodes():
    """Delete/insert churn of 20× the tree size: spliced leaves, collapsed
    parents and split leaves leave garbage rows, compaction bounds them."""
    rng = np.random.default_rng(9)
    n = 400
    pts = rng.random((n, 3))
    tree = PIMZdTree(pts, config=skew_resistant(N_MODULES, leaf_size=4),
                     system=PIMSystem(N_MODULES, seed=9))
    tree.knn(pts[:4], 3)
    arena = tree._arena
    stored = [pts[i:i + 100] for i in range(0, n, 100)]
    churned = appended = compactions = 0
    while churned < 20 * n:
        # Every batch's SEARCH reads the arena, so the insert and delete
        # flush too: count the rows of the whole round.
        rows_before = arena.n
        fresh = rng.random((100, 3))
        tree.insert(fresh)
        tree.delete(stored.pop(0))
        stored.append(fresh)
        churned += 200
        tree.knn(fresh[:4], 3)  # flushes
        live = tree.num_nodes()
        assert arena.n <= 2 * live, (arena.n, live)
        assert arena.n - arena.dead == live
        if arena.n < rows_before:
            compactions += 1
        else:
            appended += arena.n - rows_before
    # Without compaction the appended rows alone would have broken the bound.
    assert compactions >= 2
    assert appended + n > 4 * tree.num_nodes()
    tree.check_invariants()


def test_arena_footprint():
    """Capacity is the live rows plus an eighth, at build and on growth,
    and integer columns are as narrow as their ranges: under 100 bytes a
    row in 3-D (114 with int64 links, counts and depth)."""
    tree = PIMZdTree(varden_points(20_000, 3, seed=7),
                     system=PIMSystem(64, seed=7))
    tree.knn(tree.all_points()[:4], 3)
    arena = tree._arena
    for _ in range(2):
        cap = len(arena.count)
        assert arena.n <= cap <= arena.n + arena.n // 8 + 64
        per_row = sum(getattr(arena, name).nbytes
                      for name, _, _ in vexec._COLUMNS) / cap
        assert per_row < 100
        tree.insert(uniform_points(4000, 3, seed=8))  # outgrows the headroom
        tree.knn(tree.all_points()[:4], 3)
    vexec.check_arena(tree)


def test_allocation_history_does_not_order_the_flush(monkeypatch):
    """``NodeArena.dirty`` is an identity-hashed set: its iteration order
    is a function of where the allocator put each Node.  Two identical
    runs with different garbage between their allocations must still
    flush the same nodes in the same order into the same rows."""
    seen_sets: list[list[int]] = []
    written: list[list[int]] = []
    flush, write = vexec.NodeArena.flush, vexec.NodeArena._write

    def recording_flush(self):
        seen_sets.append([nd.nid for nd in self.dirty])
        flush(self)

    def recording_write(self, nodes):
        written.append([nd.nid for nd in nodes])
        write(self, nodes)

    monkeypatch.setattr(vexec.NodeArena, "flush", recording_flush)
    monkeypatch.setattr(vexec.NodeArena, "_write", recording_write)

    def run(garbage: int):
        seen_sets.clear()
        written.clear()
        rng = np.random.default_rng(8)
        litter = [[object() for _ in range(garbage)]]
        tree = PIMZdTree(rng.random((N_POINTS, 3)), config=_config("skew"),
                         system=PIMSystem(N_MODULES, seed=8))
        tree.knn(tree.all_points()[:8], 5)
        for _ in range(4):
            litter.append([bytearray(48) for _ in range(garbage // 3)])
            tree.insert(rng.random((60, 3)))
            tree.delete(tree.all_points()[:25])
            tree.knn(tree.all_points()[:8], 5)
        rows = [nd.row for nd in subtree_nodes(tree.root)]
        return list(seen_sets), list(written), rows, tree.system.stats

    sets_a, written_a, rows_a, stats_a = run(0)
    sets_b, written_b, rows_b, stats_b = run(30_000)
    # The premise: the dirty sets really do iterate differently.
    assert sets_a != sets_b
    assert [sorted(s) for s in sets_a] == [sorted(s) for s in sets_b]
    assert written_a == written_b
    assert rows_a == rows_b
    assert stats_a == stats_b


@pytest.mark.parametrize("dataset, n_modules", [
    (uniform_points, 64), (varden_points, 512),
])
def test_one_kernel_entry_per_pushed_round(monkeypatch, dataset, n_modules):
    """The deterministic proxy for "one kernel call per BSP round and
    site": a round enters its kernel once for its pushed groups and once
    for its pulled ones, and a batch's L0 seeding enters it once more, at
    the L0 site."""
    data = dataset(6000, 3, seed=7)
    tree = make_adapter("pim", data, n_modules=n_modules, seed=7).tree

    # Kernel entries by name, the L0 site's apart (as ``(name, "l0")``).
    entries: Counter = Counter()
    for name in ("_ball_descent", "_range_descent"):
        def counted(rnd, *args, _name=name, _fn=getattr(vexec, name), **kw):
            entries[(_name, "l0") if rnd.site is vexec.AT_L0 else _name] += 1
            return _fn(rnd, *args, **kw)
        monkeypatch.setattr(vexec, name, counted)

    # (round, site) pairs that run at least one group, by kernel factory.
    site_rounds: Counter = Counter()
    run, decide = PushPullExecutor.run, PushPullExecutor._decide_pulls

    def tagged_run(self, tasks, kernel, **kw):
        self.kind = kernel.__qualname__.split(".")[0]
        return run(self, tasks, kernel, **kw)

    def counting_decide(self, by_meta):
        pulled = decide(self, by_meta)
        site_rounds[self.kind] += (len(pulled) < len(by_meta)) + bool(pulled)
        return pulled

    monkeypatch.setattr(PushPullExecutor, "run", tagged_run)
    monkeypatch.setattr(PushPullExecutor, "_decide_pulls", counting_decide)

    rng = np.random.default_rng(7)
    queries = data[rng.integers(0, len(data), size=64)] + 1e-4
    tree.knn(queries, 10)
    knn_rounds = (site_rounds["make_candidate_kernel"]
                  + site_rounds["make_fetch_kernel"])
    assert knn_rounds >= 2
    assert entries["_ball_descent"] == knn_rounds
    assert entries["_ball_descent", "l0"] == 1   # step 4's seeding
    assert entries["_range_descent"] == entries["_range_descent", "l0"] == 0

    boxes = make_boxes(data, 0.1, 32, seed=7)
    tree.box_count(boxes)
    tree.box_fetch(boxes)
    assert site_rounds["make_range_kernel"] >= 1
    assert entries["_range_descent"] == site_rounds["make_range_kernel"]
    assert entries["_range_descent", "l0"] == 2  # one seeding per batch
    assert entries["_ball_descent"] == knn_rounds
    assert entries["_ball_descent", "l0"] == 1

    # One inserted point between two kNN batches: the flush rewrites the
    # search path (plus what a leaf split adds), never the whole arena.
    written: list[int] = []
    write = vexec.NodeArena._write
    monkeypatch.setattr(
        vexec.NodeArena, "_write",
        lambda self, nodes: (written.append(len(nodes)), write(self, nodes))[1],
    )
    monkeypatch.setattr(
        vexec.NodeArena, "_rebuild",
        lambda self: pytest.fail("a one-point insert rebuilt the arena"),
    )
    tree.insert(data[:1] + 1e-5)
    assert not written  # upkeep is lazy: nothing rewritten by the insert
    tree.knn(queries, 10)
    assert len(written) == 1
    assert written[0] <= 4 * tree.height() < tree._arena.n // 8
    monkeypatch.undo()
    tree.check_invariants()
