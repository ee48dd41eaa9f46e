"""Residency upkeep in proportion to the batch (``repro.core.residency``).

``refresh_residency`` re-books only the chunks the tree's chunk-change
feed names, and ``rechunk_stale`` looks only at them.  Four guarantees:

* **ledger ≡ full walk** — after any verb of ``tests/test_route_upkeep.py``
  (inserts, piles, deletes down to emptied chunks and a new root, both
  layer-transition directions, forced re-chunks, migrate / clone /
  replica install, failover with promotion, faulted updates, snapshot
  decode + WAL replay, an FPR change), with replicas k ∈ {0, 2}, filters
  on and off, on production and on the scalar execution engine
  (``tests/exec_oracle.py``), on the production simulator core and on
  its scalar oracle (``tests/sim_oracle.py``), the per-module master
  and cache words, the L0 words and the replica words equal the walk over
  every chunk and the whole L0 that ``refresh_residency`` used to be, and
  every stale chunk is one ``rechunk_stale`` will look at
  (``tree.check_invariants()``);
* **every mark is needed** — muting any one of the new marks (``relocate``,
  ``decommission``, a replica set dropping a dead module's copies, chunk
  add, chunk retire, L0-node touch) fails that comparison;
* **the work follows the batch** — a one-point insert on the bench's
  Varden P = 2048 tree walks no chunk subtree and no L0, tests no chunk
  for staleness beyond the few it touched and sizes O(height) chunks;
* **capacity pressure is an onset** — a module that stays over capacity
  is reported once, and the event stream does not depend on allocation
  history.
"""

from __future__ import annotations

import contextlib
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from exec_oracle import exec_engine
from hypothesis import strategies as st
from sim_oracle import ScalarPIMSystem
from test_node_arena import N_MODULES, N_POINTS, _config
from test_route_upkeep import VERBS, _leaves_of
from test_route_upkeep import _World as _RouteWorld

import repro.pim.model
from repro.core import PIMZdTree, residency
from repro.core.chunking import MetaNode
from repro.core.config import throughput_optimized
from repro.core.residency import ResidencyFeed
from repro.obs import TraceCollector
from repro.pim import PIMSystem
from repro.replicate import ReplicaSet, ReplicationConfig
from repro.route import RouteFilterSet
from repro.store import DurableStore, open_backend
from repro.workloads import varden_points


class _World(_RouteWorld):
    """The route-upkeep world, with the filters and the simulator chosen."""

    def __init__(self, dims, variant, seed, tmp, *, system, k,
                 filters) -> None:
        self.rng = np.random.default_rng(seed)
        self.dims = dims
        self.system_cls = system
        cfg = _config(variant)
        self.tree = PIMZdTree(
            self.rng.random((N_POINTS, dims)), config=cfg,
            system=system(N_MODULES, seed=seed))
        if k:
            ReplicaSet(self.tree, ReplicationConfig(k=k)).replicate_all()
        if filters:
            RouteFilterSet(self.tree, fpr=0.01, seed=seed % 5)
        self.backend = open_backend("file", tmp)
        DurableStore(self.backend).attach(self.tree)

    def geometry(self) -> None:
        if self.tree.route_filters is None:
            self.insert()
        else:
            super().geometry()

    def retune(self) -> None:
        if self.tree.route_filters is not None:
            super().retune()

    def recover(self) -> None:
        """Recover onto a system of the world's class."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(repro.pim.model, "PIMSystem", self.system_cls)
            super().recover()
        assert type(self.tree.system) is self.system_cls


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    dims=st.sampled_from([2, 3, 5]),
    variant=st.sampled_from(["throughput", "skew"]),
    engine=st.sampled_from(["reference", "vectorized"]),
    system=st.sampled_from([ScalarPIMSystem, PIMSystem]),
    k=st.sampled_from([0, 2]),
    filters=st.booleans(),
    seed=st.integers(0, 2**16 - 1),
    verbs=st.lists(st.sampled_from(VERBS), min_size=3, max_size=8),
)
@example(dims=3, variant="skew", engine="vectorized", system=PIMSystem,
         k=2, filters=True, seed=1, verbs=list(VERBS))
@example(dims=2, variant="throughput", engine="reference",
         system=ScalarPIMSystem, k=0, filters=False, seed=2,
         verbs=list(reversed(VERBS)))
@example(dims=5, variant="skew", engine="reference", system=ScalarPIMSystem,
         k=2, filters=False, seed=3,
         verbs=["shrink", "delete_half", "grow", "recover", "pile",
                "shrink", "fail_over", "fault_insert", "empty_chunk"])
@example(dims=3, variant="throughput", engine="vectorized",
         system=PIMSystem, k=0, filters=True, seed=4,
         verbs=["pile", "replicate", "insert", "fail_over", "reinsert",
                "migrate", "fault_delete", "insert", "recover", "insert"])
def test_ledger_equals_the_full_walk_after_every_verb(
        dims, variant, engine, system, k, filters, seed, verbs):
    with tempfile.TemporaryDirectory() as tmp, exec_engine(engine):
        world = _World(dims, variant, seed, tmp, system=system, k=k,
                       filters=filters)
        world.tree.check_invariants()
        for verb in verbs:
            getattr(world, verb)()
            world.tree.check_invariants()
        world.backend.close()


# ======================================================================
# every mark is needed
# ======================================================================
@contextlib.contextmanager
def _patched(owner, name, make):
    """Replace ``owner.name`` by ``make(original)`` for the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(owner, name, make(getattr(owner, name)))
        yield


def _mute_placed_in_relocate():
    return _patched(PIMZdTree, "mark_placed", lambda orig: lambda self, m: None)


def _mute_decommission():
    def make(orig):
        def decommission(self, mid):
            epoch = self.residency_epoch
            orig(self, mid)
            self.residency_epoch = epoch
        return decommission
    return _patched(PIMSystem, "decommission", make)


def _mute_replica_death():
    def make(orig):
        def on_module_dead(self, mid):
            tree = self.tree
            tree.mark_placed = lambda meta: None  # this call only
            try:
                return orig(self, mid)
            finally:
                del tree.mark_placed
        return on_module_dead
    return _patched(ReplicaSet, "on_module_dead", make)


def _mute_add():
    def make(orig):
        def add(self, meta, built_sc):
            orig(self, meta, built_sc)
            self.feed.added.discard(meta)
        return add
    return _patched(PIMZdTree, "_add_meta", make)


def _mute_retire():
    def make(orig):
        def retire(self, meta):
            orig(self, meta)
            self.feed.retired.discard(meta)
        return retire
    return _patched(PIMZdTree, "_retire_meta", make)


def _mute_l0_touch():
    return _patched(ResidencyFeed, "touch_l0",
                    lambda orig: lambda self, node: None)


@pytest.mark.parametrize("mute, verbs, k, filters", [
    pytest.param(_mute_placed_in_relocate, ["migrate"] * 3, 0, False,
                 id="relocate"),
    pytest.param(_mute_decommission, ["fail_over"], 0, False,
                 id="decommission"),
    pytest.param(_mute_replica_death, ["fail_over"], 2, True,
                 id="replica-death"),
    pytest.param(_mute_add, ["cluster", "grow", "cluster"], 0, False,
                 id="chunk-add"),
    pytest.param(_mute_retire, ["empty_chunk", "empty_chunk"], 0, True,
                 id="chunk-retire"),
    pytest.param(_mute_l0_touch, ["pile", "pile", "grow"], 0, False,
                 id="l0-touch"),
])
def test_a_muted_mark_fails_the_comparison(mute, verbs, k, filters):
    for muted in (False, True):
        with tempfile.TemporaryDirectory() as tmp:
            world = _World(3, "skew", 1, tmp, system=PIMSystem, k=k,
                           filters=filters)
            failed = False
            with mute() if muted else contextlib.nullcontext():
                try:
                    for verb in verbs:
                        getattr(world, verb)()
                        world.tree.check_invariants()
                except AssertionError:
                    failed = True
            world.backend.close()
        assert failed is muted


def test_a_stale_chunk_outlives_a_refresh_between_batches():
    """A chunk whose counter drifted in a batch that never reached
    ``rechunk_stale`` stays a candidate through an unrelated refresh."""
    tree = PIMZdTree(np.random.default_rng(4).random((N_POINTS, 3)),
                     config=_config("skew"), system=PIMSystem(N_MODULES, seed=4))
    meta = max(tree.metas, key=lambda m: (m.root.sc, m.root.nid))
    tree._meta_built_sc[meta] = 4 * max(1, meta.root.sc)
    tree.mark_dirty(meta.root)
    tree.refresh_residency()
    assert meta in tree.feed.metas
    tree.check_invariants()
    tree.rechunk_stale()
    assert meta not in tree.metas
    tree.refresh_residency()
    tree.check_invariants()


# ======================================================================
# the work follows the batch
# ======================================================================
def test_one_point_insert_walks_no_index(monkeypatch):
    data = varden_points(60_000, 3, seed=7)
    tree = PIMZdTree(data, config=throughput_optimized(len(data), 2048),
                     system=PIMSystem(2048, seed=7))
    assert len(tree.metas) > 1000 and len(tree.l0_nodes()) > 1000
    leaf = next(nd for m in sorted(tree.metas, key=lambda m: m.root.nid)
                for nd in _leaves_of(m)
                if nd.count < tree.config.leaf_size - 1
                and int(nd.keys[0]) != int(nd.keys[-1]))
    point = leaf.pts[0] + (leaf.pts[-1] - leaf.pts[0]) * 0.5

    def banned(*_a, **_k):
        raise AssertionError("a one-point insert walked the whole index")

    calls = {"size_words": 0, "meta_is_stale": 0}
    size_words, is_stale = MetaNode.size_words, PIMZdTree.meta_is_stale

    def counted_size(self, cfg):
        calls["size_words"] += 1
        return size_words(self, cfg)

    def counted_stale(self, meta):
        calls["meta_is_stale"] += 1
        return is_stale(self, meta)

    monkeypatch.setattr(residency, "iter_meta_subtree", banned)
    monkeypatch.setattr(PIMZdTree, "l0_nodes", banned)
    monkeypatch.setattr(MetaNode, "size_words", counted_size)
    monkeypatch.setattr(PIMZdTree, "meta_is_stale", counted_stale)
    n_metas = len(tree.metas)
    tree.insert(point[None])
    height = tree.height()
    assert len(tree.metas) == n_metas
    assert 0 < calls["size_words"] <= 4 * height < n_metas // 8
    assert calls["meta_is_stale"] <= 4 * height
    monkeypatch.undo()
    tree.check_invariants()


# ======================================================================
# capacity pressure is an onset
# ======================================================================
def _pressured_tree(garbage: int = 0):
    rng = np.random.default_rng(8)
    litter = [[object() for _ in range(garbage)]]
    tracer = TraceCollector()
    pts = rng.random((N_POINTS, 3))
    sizing = PIMZdTree(pts, config=_config("skew"),
                       system=PIMSystem(N_MODULES, seed=8))
    cap = float(np.median(sizing.system.residency()))
    tree = PIMZdTree(pts, config=_config("skew"),
                     system=PIMSystem(N_MODULES, seed=8, tracer=tracer,
                                      module_capacity_words=cap))
    litter.append([bytearray(48) for _ in range(garbage)])
    return tree, tracer, rng


def test_a_module_staying_over_capacity_is_reported_once():
    tree, tracer, _ = _pressured_tree()
    over = tree.system.over_capacity_modules()
    assert over
    events = [e["mid"] for e in tracer.capacity_events]
    assert sorted(events) == events == over  # one onset each, in mid order
    tree.refresh_residency()
    tree.refresh_residency()
    assert [e["mid"] for e in tracer.capacity_events] == events


def test_allocation_history_does_not_change_the_event_stream():
    def run(garbage: int):
        tree, tracer, rng = _pressured_tree(garbage)
        litter = []
        for _ in range(4):
            litter.append([object() for _ in range(garbage // 3)])
            tree.insert(rng.random((60, 3)))
            tree.delete(tree.all_points()[:40])
        return tracer.capacity_events, [m.root.nid for m in tree.metas]

    events_a, order_a = run(0)
    events_b, order_b = run(30_000)
    assert order_a != order_b  # the premise: set order differs
    assert events_a and events_a == events_b
