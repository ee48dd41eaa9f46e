"""Tests for K-way chunk replication (``repro.replicate``).

Covers the registry end to end: deterministic secondary placement that
composes with placement overrides, the charged ``replicate_all`` install,
read-any routing (least-loaded live copy, read-your-writes under
``primary-async``), both write policies and the staleness accounting,
failover promotion (pointer swap, no re-upload), the planner's ``clone``
move and its charged executor, durability (manifest round-trip + WAL
``REPLICATE`` replay), serve-loop integration, and the inert guarantees:
``k=1`` replication and replication-off runs stay byte-identical, and
scalar/vector simulator cores agree with replication on.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from sim_oracle import ScalarPIMSystem

import repro.eval.harness
from repro.balance import (
    BalanceConfig,
    HotnessTracker,
    MigrationPlanner,
    execute_plan,
)
from repro.core import PIMZdTree
from repro.eval.harness import PIMZdTreeAdapter
from repro.pim import PIMSystem
from repro.replicate import ReplicaSet, ReplicationConfig, WRITE_POLICIES
from repro.serve import AdaptiveBatchPolicy, AdmissionQueue, ServeLoop, make_requests
from repro.store import DurableStore, encode_tree, open_backend
from repro.workloads import poisson_arrivals, uniform_points

P = 8
SEED = 3


def make_tree(n=600, p=P, seed=SEED, capacity=None):
    data = uniform_points(n, 3, seed=seed)
    system = PIMSystem(p, seed=seed, module_capacity_words=capacity)
    return PIMZdTree(data, system=system)


def registry_of(tree) -> dict[int, tuple[int, ...]]:
    return dict(tree.replicas._secondaries)


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
class TestReplicationConfig:
    def test_defaults(self):
        cfg = ReplicationConfig()
        assert cfg.k == 2 and cfg.write_policy == "write-all"
        assert cfg.staleness_bound_s == 1e-3
        assert cfg.write_policy in WRITE_POLICIES

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicationConfig(k=0)
        with pytest.raises(ValueError):
            ReplicationConfig(write_policy="quorum")
        with pytest.raises(ValueError):
            ReplicationConfig(staleness_bound_s=-1.0)


# ----------------------------------------------------------------------
# placement + charged install
# ----------------------------------------------------------------------
class TestPlacementAndInstall:
    def test_replicate_all_reaches_k_copies(self):
        tree = make_tree()
        reps = ReplicaSet(tree, ReplicationConfig(k=3))
        out = reps.replicate_all()
        assert out["installed"] == 2 * len(tree.metas)
        assert out["words"] > 0
        for meta in tree.metas:
            secs = reps.secondaries(meta)
            assert len(secs) == 2
            assert reps.copy_count(meta) == 3
            # A secondary is never the primary, never duplicated.
            assert meta.module not in secs
            assert len(set(secs)) == len(secs)
            assert secs == tuple(sorted(secs))

    def test_placement_is_deterministic(self):
        regs = []
        for _ in range(2):
            tree = make_tree()
            ReplicaSet(tree, ReplicationConfig(k=2)).replicate_all()
            regs.append(registry_of(tree))
        assert regs[0] == regs[1] and regs[0]

    def test_placement_composes_with_overrides(self):
        tree = make_tree()
        reps = ReplicaSet(tree, ReplicationConfig(k=2))
        meta = min(tree.metas, key=lambda m: m.root.nid)
        nid = meta.root.nid
        natural = reps.place_secondary(meta, 0)
        # Re-route the first replica key; place_secondary must follow the
        # override exactly like any other placement key.
        target = next(m for m in range(tree.system.n_modules)
                      if m not in (meta.module, natural))
        tree.system.set_placement_override(("replica", nid, 0, 0), target)
        assert reps.place_secondary(meta, 0) == target

    def test_placement_skips_dead_modules(self):
        tree = make_tree()
        dead = 2
        tree.fail_over(dead)  # decommission + re-place its primaries
        reps = ReplicaSet(tree, ReplicationConfig(k=2))
        reps.replicate_all()
        for secs in registry_of(tree).values():
            assert dead not in secs

    def test_install_is_charged_under_replicate_phase(self):
        tree = make_tree()
        before = tree.system.stats.snapshot()
        ReplicaSet(tree, ReplicationConfig(k=2)).replicate_all()
        d = tree.system.stats.diff(before)
        assert "replicate" in d.phases
        ph = d.phases["replicate"]
        assert ph.comm_words > 0 and ph.pim_cycles > 0 and ph.rounds >= 1

    def test_k1_is_a_noop_shell(self):
        tree = make_tree()
        before = tree.system.stats.snapshot()
        reps = ReplicaSet(tree, ReplicationConfig(k=1))
        out = reps.replicate_all()
        assert out == {"installed": 0, "words": 0.0}
        assert registry_of(tree) == {}
        d = tree.system.stats.diff(before)
        assert d.total.to_dict() == before.diff(before).total.to_dict()

    def test_k_capped_by_live_modules(self):
        tree = make_tree(n=60, p=2)
        reps = ReplicaSet(tree, ReplicationConfig(k=5))
        reps.replicate_all()
        for meta in tree.metas:
            # Only 2 live modules exist: one primary + one secondary.
            assert reps.copy_count(meta) == 2

    def test_summary_counts(self):
        tree = make_tree()
        reps = ReplicaSet(tree, ReplicationConfig(k=2))
        reps.replicate_all()
        s = reps.summary()
        assert s["k"] == 2
        assert s["chunks_replicated"] == len(tree.metas)
        assert s["total_copies"] == len(tree.metas)
        assert s["promotions"] == 0 and s["flushes"] == 0


# ----------------------------------------------------------------------
# read routing
# ----------------------------------------------------------------------
class TestReadRouting:
    def _one_chunk(self, tree):
        return min(tree.metas, key=lambda m: m.root.nid)

    def test_read_any_balances_over_copies(self):
        tree = make_tree()
        reps = ReplicaSet(tree, ReplicationConfig(k=2))
        reps.replicate_all()
        meta = self._one_chunk(tree)
        copies = {meta.module, *reps.secondaries(meta)}
        picks = [reps.read_module(meta) for _ in range(6)]
        assert set(picks) == copies
        # Equal weights alternate: no copy is ever 2 ahead of another.
        for i in range(2, 7, 2):
            counts = [picks[:i].count(m) for m in copies]
            assert max(counts) - min(counts) == 0

    def test_routing_respects_weight(self):
        tree = make_tree()
        reps = ReplicaSet(tree, ReplicationConfig(k=2))
        reps.replicate_all()
        meta = self._one_chunk(tree)
        first = reps.read_module(meta, weight=100.0)
        # The heavy read parks 100 units on ``first``; the next several
        # unit reads all land on the other copy.
        others = {reps.read_module(meta, weight=1.0) for _ in range(3)}
        assert first not in others and len(others) == 1

    def test_dead_secondary_not_routed(self):
        tree = make_tree()
        reps = ReplicaSet(tree, ReplicationConfig(k=2))
        reps.replicate_all()
        meta = self._one_chunk(tree)
        (sec,) = reps.secondaries(meta)
        tree.system.decommission(sec)
        assert reps.live_secondaries(meta) == ()
        assert all(reps.read_module(meta) == meta.module for _ in range(4))

    def test_primary_async_pins_reads_while_pending(self):
        tree = make_tree()
        reps = ReplicaSet(tree, ReplicationConfig(
            k=2, write_policy="primary-async", staleness_bound_s=1e-3))
        reps.replicate_all()
        meta = self._one_chunk(tree)
        reps.on_write(meta, 64.0)
        # Read-your-writes: unflushed chunk reads from the primary only.
        assert all(reps.read_module(meta) == meta.module for _ in range(4))
        reps.flush(now=1.0)
        reps._routed.clear()
        assert {reps.read_module(meta) for _ in range(2)} \
            == {meta.module, *reps.secondaries(meta)}


# ----------------------------------------------------------------------
# write policies
# ----------------------------------------------------------------------
class TestWritePolicies:
    def test_write_all_fans_out_inside_callers_round(self):
        tree = make_tree()
        reps = ReplicaSet(tree, ReplicationConfig(k=3))
        reps.replicate_all()
        meta = min(tree.metas, key=lambda m: m.root.nid)
        sys = tree.system
        before = sys.stats.snapshot()
        with sys.round():
            reps.on_write(meta, 50.0)
        d = sys.stats.diff(before)
        assert d.total.comm_words == 2 * 50.0  # one send per secondary
        assert reps.writes_fanned == 1 and reps.words_fanned == 100.0

    def test_write_all_insert_costs_more_than_unreplicated(self):
        def run(k):
            tree = make_tree()
            if k > 1:
                ReplicaSet(tree, ReplicationConfig(k=k)).replicate_all()
            before = tree.system.stats.snapshot()
            tree.insert(uniform_points(40, 3, seed=SEED + 9))
            return tree.system.stats.diff(before).total.comm_words

        assert run(2) > run(1)

    def test_primary_async_accumulates_then_flushes(self):
        tree = make_tree()
        reps = ReplicaSet(tree, ReplicationConfig(
            k=2, write_policy="primary-async", staleness_bound_s=0.5))
        reps.replicate_all()
        meta = min(tree.metas, key=lambda m: m.root.nid)
        sys = tree.system
        before = sys.stats.snapshot()
        reps.clock = 1.0
        reps.on_write(meta, 30.0)
        reps.on_write(meta, 20.0)  # coalesces into the same pending entry
        # Nothing shipped yet, and nothing charged.
        d = sys.stats.diff(before)
        assert d.total.comm_words == 0.0
        assert reps._pending[meta.root.nid][0] == 50.0
        assert not reps.flush_due(1.2)          # age 0.2 < bound 0.5
        assert reps.flush_due(1.6)              # age 0.6 >= bound
        assert reps.oldest_pending_s(1.6) == pytest.approx(0.6)
        out = reps.flush(now=1.6)
        assert out["flushed"] == 1 and out["words"] == 50.0
        assert reps._pending == {} and reps.flushes == 1
        assert reps.staleness_samples == [pytest.approx(0.6)]
        d = sys.stats.diff(before)
        assert "replicate" in d.phases and d.total.comm_words == 50.0
        s = reps.summary()["staleness"]
        assert s["n"] == 1 and s["max_s"] == pytest.approx(0.6)

    def test_no_secondaries_means_no_fanout(self):
        tree = make_tree()
        reps = ReplicaSet(tree, ReplicationConfig(k=2))
        # No replicate_all: registry empty, both policies are no-ops.
        meta = min(tree.metas, key=lambda m: m.root.nid)
        before = tree.system.stats.snapshot()
        reps.on_write(meta, 10.0)
        assert reps.writes_fanned == 0 and reps._pending == {}
        d = tree.system.stats.diff(before)
        assert d.total.to_dict() == before.diff(before).total.to_dict()


# ----------------------------------------------------------------------
# failover promotion
# ----------------------------------------------------------------------
class TestFailoverPromotion:
    def test_promotion_avoids_reupload(self):
        tree = make_tree()
        reps = ReplicaSet(tree, ReplicationConfig(k=2))
        reps.replicate_all()
        dead = max(set(m.module for m in tree.metas),
                   key=lambda mid: sum(1 for m in tree.metas
                                       if m.module == mid))
        expected = {
            m.root.nid: reps.live_secondaries(m)[0]
            for m in tree.metas if m.module == dead
        }
        assert expected, "the busiest module must master at least one chunk"
        out = tree.fail_over(dead)
        # Every chunk had a live secondary: all promoted, zero words moved.
        assert out["promoted"] == out["metas_moved"] == len(expected)
        assert out["words_moved"] == 0.0
        for nid, new_mid in expected.items():
            meta = next(m for m in tree.metas if m.root.nid == nid)
            assert meta.module == new_mid
            # The override makes later place() calls agree.
            assert tree.system.place(("meta", nid)) == new_mid
            # The promoted copy is no longer listed as a secondary.
            assert new_mid not in reps.secondaries(meta)
        # The dead module is gone from the registry everywhere.
        assert all(dead not in secs for secs in registry_of(tree).values())
        assert reps.promotions == len(expected)
        assert reps.summary()["promotions"] == len(expected)

    def test_promoted_tree_answers_match_unreplicated_failover(self):
        data = uniform_points(500, 3, seed=SEED)
        queries = data[:24] + 1e-5

        def run(with_reps):
            tree = PIMZdTree(data, system=PIMSystem(P, seed=SEED))
            if with_reps:
                ReplicaSet(tree, ReplicationConfig(k=2)).replicate_all()
            tree.fail_over(1)
            tree.check_invariants()
            return tree.knn(queries, 5)

        for (d1, p1), (d2, p2) in zip(run(True), run(False)):
            assert np.array_equal(d1, d2) and np.array_equal(p1, p2)

    def test_promotion_cheaper_than_rebuild(self):
        def failover_words(with_reps):
            tree = make_tree()
            if with_reps:
                ReplicaSet(tree, ReplicationConfig(k=2)).replicate_all()
            return tree.fail_over(1)["words_moved"]

        assert failover_words(True) < failover_words(False)


# ----------------------------------------------------------------------
# planner clone moves + charged executor
# ----------------------------------------------------------------------
class TestCloneMoves:
    def _hot_setup(self, *, with_reps=True):
        tree = make_tree()
        reps = None
        if with_reps:
            reps = ReplicaSet(tree, ReplicationConfig(k=2))
        tracker = HotnessTracker(tree.system)
        # Concentrate all heat on one module, all of it on one chunk.
        src = min(tree.metas, key=lambda m: m.root.nid).module
        hot = max((m for m in tree.metas if m.module == src),
                  key=lambda m: m.root.nid)
        for m in tree.metas:
            m.hot_hits = 0
        hot.hot_hits = 1000
        tracker.hotness[:] = 0.0
        tracker.hotness[src] = 1e6
        return tree, reps, tracker, src, hot

    def test_planner_emits_clone_for_pinned_hot_chunk(self):
        tree, reps, tracker, src, hot = self._hot_setup()
        planner = MigrationPlanner(tree, BalanceConfig(max_moves=1))
        plan = planner.plan(tracker)
        assert len(plan.moves) == 1
        mv = plan.moves[0]
        assert mv.kind == "clone"
        assert mv.meta is hot and mv.src == src
        assert mv.dst not in {hot.module, *reps.secondaries(hot)}
        # Read-any splits heat over copies+1: half moves on the first clone.
        assert mv.heat == pytest.approx(1e6 / 2)
        assert mv.to_dict()["kind"] == "clone"

    def test_without_replicas_planner_never_clones(self):
        tree, _, tracker, _, _ = self._hot_setup(with_reps=False)
        plan = MigrationPlanner(tree, BalanceConfig(max_moves=4)).plan(tracker)
        assert all(mv.kind == "migrate" for mv in plan.moves)

    def test_clone_respects_k_budget(self):
        tree, reps, tracker, src, hot = self._hot_setup()
        reps.replicate_all()  # already at k=2 everywhere
        plan = MigrationPlanner(tree, BalanceConfig(max_moves=1)).plan(tracker)
        assert all(mv.kind != "clone" for mv in plan.moves)

    def test_executor_installs_clone_charged(self):
        tree, reps, tracker, src, hot = self._hot_setup()
        plan = MigrationPlanner(tree, BalanceConfig(max_moves=1)).plan(tracker)
        before = tree.system.stats.snapshot()
        out = execute_plan(tree, plan)
        assert out["clones"] == 1 and out["moves"] == 1
        d = tree.system.stats.diff(before)
        assert "rebalance" in d.phases
        assert d.phases["rebalance"].comm_words > 0
        # Mastership did not move; a secondary now exists on dst.
        assert hot.module == src
        assert plan.moves[0].dst in reps.secondaries(hot)
        # No placement override: the master copy never moved.
        assert not tree.system._place_overrides


# ----------------------------------------------------------------------
# durability: manifest round-trip + WAL REPLICATE replay
# ----------------------------------------------------------------------
class TestDurability:
    def test_manifest_absent_without_replicas(self):
        tree = make_tree(n=80, p=4)
        assert "replicas" not in encode_tree(tree, wal_seq=0).manifest

    def test_manifest_roundtrip_via_checkpoint(self):
        data = uniform_points(200, 3, seed=SEED)
        queries = data[:16] + 1e-5
        with tempfile.TemporaryDirectory() as tmp:
            backend = open_backend("file", Path(tmp) / "s")
            try:
                tree = PIMZdTree(data, system=PIMSystem(4, seed=SEED))
                store = DurableStore(backend)
                store.attach(tree)
                reps = ReplicaSet(tree, ReplicationConfig(
                    k=2, write_policy="primary-async",
                    staleness_bound_s=0.25))
                reps.replicate_all()
                store.checkpoint(tree)
                want = registry_of(tree)
                want_knn = tree.knn(queries, 5)

                res = store.recover()
                got = res.tree.replicas
                assert got is not None
                assert registry_of(res.tree) == want and want
                assert got.config == reps.config
                for (d1, p1), (d2, p2) in zip(want_knn,
                                              res.tree.knn(queries, 5)):
                    assert np.array_equal(d1, d2)
                    assert np.array_equal(p1, p2)
            finally:
                backend.close()

    def test_wal_replicate_replay_before_first_checkpoint(self):
        """Clones journaled after the attach-time checkpoint replay into
        an implicit registry even though no manifest recorded one."""
        data = uniform_points(200, 3, seed=SEED)
        with tempfile.TemporaryDirectory() as tmp:
            backend = open_backend("file", Path(tmp) / "s")
            try:
                tree = PIMZdTree(data, system=PIMSystem(4, seed=SEED))
                store = DurableStore(backend)
                store.attach(tree)  # checkpoint has no "replicas" key
                reps = ReplicaSet(tree, ReplicationConfig(k=2))
                reps.replicate_all()  # journaled as REPLICATE records
                want = registry_of(tree)

                res = store.recover()
                assert res.replayed >= 1
                assert res.tree.replicas is not None
                assert registry_of(res.tree) == want and want
            finally:
                backend.close()

    def test_recovery_drops_secondaries_on_dead_modules(self):
        data = uniform_points(200, 3, seed=SEED)
        with tempfile.TemporaryDirectory() as tmp:
            backend = open_backend("file", Path(tmp) / "s")
            try:
                tree = PIMZdTree(data, system=PIMSystem(4, seed=SEED))
                store = DurableStore(backend)
                store.attach(tree)
                reps = ReplicaSet(tree, ReplicationConfig(k=2))
                reps.replicate_all()
                # Kill a module that holds at least one secondary, then
                # checkpoint the post-failover state.
                dead = registry_of(tree)[min(registry_of(tree))][0]
                tree.fail_over(dead)
                store.checkpoint(tree)

                res = store.recover()
                for secs in registry_of(res.tree).values():
                    assert dead not in secs
                res.tree.check_invariants()
            finally:
                backend.close()


# ----------------------------------------------------------------------
# serve-loop integration
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def rep_data():
    return uniform_points(1200, 3, seed=11)


def _serve(data, *, replication=None, tenants=None, req_tenants=None):
    adapter = PIMZdTreeAdapter(data, n_modules=P, seed=SEED)
    arrivals = poisson_arrivals(40_000.0, 120, seed=21)
    reqs = make_requests(
        data, arrivals,
        mix={"knn": 0.7, "bc": 0.15, "insert": 0.15},
        k=5, seed=22, tenants=req_tenants,
    )
    if replication is not None:
        ReplicaSet(adapter.tree, replication).replicate_all()
    loop = ServeLoop(adapter, AdmissionQueue(64, tenants=tenants),
                     AdaptiveBatchPolicy())
    return loop.run(reqs)


class TestServeIntegration:
    def test_replication_summary_in_stats(self, rep_data):
        res = _serve(rep_data, replication=ReplicationConfig(k=2))
        rep = res.stats.replication
        assert rep is not None and rep["k"] == 2
        assert rep["chunks_replicated"] > 0
        assert rep["writes_fanned"] > 0  # the insert mix fanned out
        assert "replication" in res.stats.to_dict()
        assert res.stats.n_done == 120

    def test_stats_omit_replication_when_off(self, rep_data):
        res = _serve(rep_data)
        assert res.stats.replication is None
        assert "replication" not in res.stats.to_dict()
        assert "by_tenant" not in res.stats.to_dict()

    def test_primary_async_flushes_during_serve(self, rep_data):
        res = _serve(rep_data, replication=ReplicationConfig(
            k=2, write_policy="primary-async", staleness_bound_s=1e-4))
        rep = res.stats.replication
        assert rep["flushes"] >= 1
        assert rep["staleness"]["n"] >= 1
        assert rep["staleness"]["max_s"] >= 0.0

    def test_per_tenant_breakdown(self, rep_data):
        weights = {"gold": 4.0, "bronze": 1.0}
        res = _serve(rep_data, req_tenants=weights, tenants=weights)
        bt = res.stats.by_tenant
        assert set(bt) == {"gold", "bronze"}
        assert sum(t["n_offered"] for t in bt.values()) \
            == res.stats.n_offered
        assert sum(t["n_done"] for t in bt.values()) == res.stats.n_done
        assert "by_tenant" in res.stats.to_dict()

    def test_tenant_tagging_keeps_payloads_identical(self, rep_data):
        arrivals = poisson_arrivals(40_000.0, 50, seed=21)
        plain = make_requests(rep_data, arrivals, mix={"knn": 1.0},
                              k=5, seed=22)
        tagged = make_requests(rep_data, arrivals, mix={"knn": 1.0},
                               k=5, seed=22, tenants={"a": 1.0, "b": 1.0})
        assert {r.tenant for r in tagged} == {"a", "b"}
        for a, b in zip(plain, tagged):
            assert np.array_equal(a.payload, b.payload)
            assert a.kind == b.kind and a.arrival_s == b.arrival_s


# ----------------------------------------------------------------------
# inert guarantees + oracle-core identity
# ----------------------------------------------------------------------
class TestByteIdentity:
    def _workload(self, tree, data):
        tree.knn(data[:32] + 1e-5, 5)
        tree.insert(uniform_points(30, 3, seed=SEED + 5))
        tree.knn(data[32:64] + 1e-5, 5)

    def test_k1_replicaset_is_byte_identical_to_none(self):
        data = uniform_points(500, 3, seed=SEED)

        def run(attach):
            tree = PIMZdTree(data, system=PIMSystem(P, seed=SEED))
            if attach:
                ReplicaSet(tree, ReplicationConfig(k=1)).replicate_all()
            self._workload(tree, data)
            return tree.system.stats.to_dict()

        assert run(False) == run(True)

    def test_scalar_vector_identical_with_replication_on(self, monkeypatch):
        data = uniform_points(500, 3, seed=SEED)

        def run():
            ad = PIMZdTreeAdapter(data, n_modules=P, seed=SEED)
            ReplicaSet(ad.tree, ReplicationConfig(k=2)).replicate_all()
            self._workload(ad.tree, data)
            ad.tree.fail_over(1)
            return ad.system.stats.to_dict(), registry_of(ad.tree)

        v_stats, v_reg = run()
        monkeypatch.setattr(repro.eval.harness, "PIMSystem", ScalarPIMSystem)
        s_stats, s_reg = run()
        assert s_stats == v_stats
        assert s_reg == v_reg
