"""Tests for the skew-aware online rebalancing subsystem (repro.balance).

Covers the four layers end to end: hotness tracking (EWMA + imbalance
signal), migration planning (determinism, budgets, capacity-mandated
drains, convergence), the charged executor (phase attribution, routing
overrides, failover composition) and the serve-loop integration — plus
the inert-config guarantee that attaching a do-nothing rebalancer keeps
every simulator counter byte-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.balance import (
    BalanceConfig,
    HotnessTracker,
    MigrationPlanner,
    OnlineRebalancer,
    choose_destination,
    execute_plan,
    inert_balance,
)
from repro.core import PIMZdTree, throughput_optimized
from repro.eval.harness import PIMZdTreeAdapter
from repro.eval.skewbench import (
    boxes_under_metas,
    hottest_colocated_metas,
    queries_under_metas,
)
from repro.obs import TraceCollector
from repro.pim import CHARGE_PIM, PIMSystem
from repro.workloads import varden_points

N = 8_000
P = 16
SEED = 7


def make_adapter(*, tracer=None, capacity=None, seed=SEED):
    data = varden_points(N, 3, seed=seed)
    return PIMZdTreeAdapter(data, n_modules=P, seed=seed, tracer=tracer)


def hot_boxes(tree, nb=128, seed=SEED + 1):
    _, metas = hottest_colocated_metas(tree)
    return boxes_under_metas(tree, metas, nb, seed=seed)


# ----------------------------------------------------------------------
# HotnessTracker
# ----------------------------------------------------------------------
class TestHotnessTracker:
    def test_ewma_folds_deltas(self):
        sys = PIMSystem(4, seed=0)
        tr = HotnessTracker(sys, alpha=0.5)
        with sys.round():
            sys.charge_sequence(CHARGE_PIM, [1], [100.0])
        d = tr.observe()
        assert d[1] == 100.0 and d[0] == 0.0
        assert tr.hotness[1] == pytest.approx(50.0)  # 0.5 * 100
        tr.observe()  # no new work
        assert tr.hotness[1] == pytest.approx(25.0)  # decays
        assert tr.observations == 2
        assert tr.total_delta == pytest.approx(100.0)

    def test_observe_charges_nothing(self):
        sys = PIMSystem(4, seed=0)
        before = sys.stats.snapshot()
        HotnessTracker(sys).observe()
        assert sys.stats.snapshot().diff(before).total.to_dict() == \
            before.diff(before).total.to_dict()

    def test_transfer_clamped_and_conservative(self):
        sys = PIMSystem(4, seed=0)
        tr = HotnessTracker(sys)
        tr.hotness[:] = [10.0, 0.0, 0.0, 0.0]
        tr.transfer(0, 2, 25.0)  # clamped to available heat
        assert tr.hotness[0] == 0.0 and tr.hotness[2] == 10.0
        assert tr.hotness.sum() == pytest.approx(10.0)

    def test_live_hotness_masks_dead_modules(self):
        sys = PIMSystem(4, seed=0)
        tr = HotnessTracker(sys)
        tr.hotness[:] = [1.0, 99.0, 1.0, 1.0]
        sys.decommission(1)
        assert len(tr.live_hotness()) == 3
        assert tr.imbalance()["max"] == 1.0

    def test_imbalance_uses_shared_summary_keys(self):
        sys = PIMSystem(4, seed=0)
        imb = HotnessTracker(sys).imbalance()
        assert set(imb) >= {"max_mean_ratio", "gini", "max", "mean", "total"}

    def test_rebase_survives_crash_restart(self):
        """Regression: ``module_loads()`` is cumulative per *system*, so
        after a crash restart swaps in a freshly built PIMSystem, a
        tracker still holding the old baseline folds a huge negative
        delta — driving heat negative, disabling the detector and
        corrupting victim selection.  ``rebase`` re-anchors the baseline
        without folding a delta and keeps the accumulated EWMA skew."""
        old = PIMSystem(4, seed=0)
        tr = HotnessTracker(old, alpha=0.5)
        with old.round():
            old.charge_sequence(CHARGE_PIM, [2], [1000.0])
        tr.observe()
        assert tr.hotness[2] == pytest.approx(500.0)
        fresh = PIMSystem(4, seed=0)  # restart: counters back to zero
        tr.rebase(fresh)
        assert tr.system is fresh
        d = tr.observe()  # no work since the restart: delta 0, not -1000
        assert np.all(d == 0.0)
        assert np.all(tr.hotness >= 0.0)
        assert tr.hotness[2] == pytest.approx(250.0)  # skew survives

    def test_rebase_validates_module_count(self):
        tr = HotnessTracker(PIMSystem(4, seed=0))
        with pytest.raises(ValueError):
            tr.rebase(PIMSystem(8, seed=0))

    def test_rebalancer_rebind_swaps_tree_and_rebases(self):
        ad1 = make_adapter()
        reb = OnlineRebalancer(ad1.tree)
        ad1.knn(varden_points(64, 3, seed=1), 5)
        reb.tracker.observe()
        ad2 = make_adapter(seed=SEED + 1)  # the restarted machine
        reb.rebind(ad2.tree)
        assert reb.tree is ad2.tree
        assert reb.planner.tree is ad2.tree
        assert reb.tracker.system is ad2.system
        # The very next observation sees only post-restart work.
        assert np.all(reb.tracker.observe() == 0.0)
        assert np.all(reb.tracker.hotness >= 0.0)

    def test_alpha_validation(self):
        sys = PIMSystem(2, seed=0)
        with pytest.raises(ValueError):
            HotnessTracker(sys, alpha=0.0)
        with pytest.raises(ValueError):
            HotnessTracker(sys, alpha=1.5)


# ----------------------------------------------------------------------
# Inert-config byte identity
# ----------------------------------------------------------------------
class TestInertByteIdentity:
    def test_inert_rebalancer_leaves_counters_byte_identical(self):
        def run(with_rebalancer: bool):
            ad = make_adapter()
            boxes = hot_boxes(ad.tree)
            reb = (OnlineRebalancer(ad.tree, inert_balance())
                   if with_rebalancer else None)
            for s in range(4):
                ad.box_count([boxes[(j + s * 32) % len(boxes)]
                              for j in range(32)])
                if reb is not None:
                    assert reb.step() is None
            return ad

        a = run(False)
        b = run(True)
        assert a.system.stats.to_dict() == b.system.stats.to_dict()
        assert not b.system._place_overrides
        assert "rebalance" not in b.system.stats.phases

    def test_inert_config_thresholds_never_trip(self):
        cfg = inert_balance()
        assert cfg.ratio_threshold == float("inf")
        assert cfg.gini_threshold == float("inf")
        assert cfg.min_observed_cycles == float("inf")


# ----------------------------------------------------------------------
# MigrationPlanner
# ----------------------------------------------------------------------
class TestPlanner:
    def _hot_tracker(self, ad, boxes, reps=2):
        tr = HotnessTracker(ad.system)
        tr.observe()  # swallow construction work
        for s in range(reps):
            ad.box_count([boxes[(j + s * 32) % len(boxes)]
                          for j in range(32)])
        tr.observe()
        return tr

    def test_plan_is_deterministic(self):
        ad = make_adapter()
        boxes = hot_boxes(ad.tree)
        tr = self._hot_tracker(ad, boxes)
        planner = MigrationPlanner(ad.tree, BalanceConfig())
        assert planner.should_rebalance(tr)
        p1 = planner.plan(tr)
        p2 = planner.plan(tr)
        assert p1.moves and p1.to_dict() == p2.to_dict()

    def test_cold_start_never_migrates(self):
        ad = make_adapter()
        tr = HotnessTracker(ad.system)
        planner = MigrationPlanner(ad.tree, BalanceConfig())
        tr.observe()  # construction work only, then nothing
        tr.hotness[:] = 0.0
        tr.hotness[0] = 10.0  # skewed but tiny: under min_observed_cycles
        assert not planner.should_rebalance(tr)

    def test_balanced_heat_plans_nothing(self):
        ad = make_adapter()
        tr = HotnessTracker(ad.system)
        tr.hotness[:] = 1e6  # perfectly flat
        planner = MigrationPlanner(ad.tree, BalanceConfig())
        assert not planner.should_rebalance(tr)
        assert planner.plan(tr).moves == []

    def test_moves_respect_budget_and_keep_hottest(self):
        ad = make_adapter()
        boxes = hot_boxes(ad.tree)
        tr = self._hot_tracker(ad, boxes)
        cfg = BalanceConfig(max_moves=2)
        plan = MigrationPlanner(ad.tree, cfg).plan(tr)
        assert 0 < len(plan.moves) <= 2
        hot_mid, hot_metas = hottest_colocated_metas(ad.tree)
        moved_nids = {mv.meta.root.nid for mv in plan.moves}
        # min_keep pins the hottest resident chunk on the straggler.
        kept = max((m for m in ad.tree.metas if m.module == hot_mid),
                   key=lambda m: m.hot_hits)
        assert kept.root.nid not in moved_nids
        for mv in plan.moves:
            assert mv.dst not in ad.system.dead_modules
            assert mv.src != mv.dst

    def test_rebalancer_converges_and_stops(self):
        """After migration repairs the skew, later steps plan nothing."""
        ad = make_adapter()
        boxes = hot_boxes(ad.tree)
        reb = OnlineRebalancer(ad.tree, BalanceConfig())
        migrated_steps = []
        for s in range(8):
            ad.box_count([boxes[(j + s * 32) % len(boxes)]
                          for j in range(32)])
            if reb.step() is not None:
                migrated_steps.append(s)
        assert migrated_steps, "the adversarial workload must trip migration"
        # Convergence: the trailing steps are quiet.
        assert migrated_steps[-1] < 4, (
            f"rebalancer still migrating late: {migrated_steps}")


# ----------------------------------------------------------------------
# Capacity pressure (satellite: over_capacity wired up)
# ----------------------------------------------------------------------
class TestCapacityPressure:
    def test_crossing_alloc_fires_one_event(self):
        tracer = TraceCollector()
        sys = PIMSystem(4, module_capacity_words=100, seed=0, tracer=tracer)
        sys.add_residency([2], [90.0], [0.0])
        assert tracer.capacity_events == []
        sys.add_residency([2], [20.0], [0.0])  # crossing allocation
        assert len(tracer.capacity_events) == 1
        ev = tracer.capacity_events[0]
        assert ev["mid"] == 2 and ev["used_words"] == 110.0
        sys.add_residency([2], [5.0], [0.0])  # already over: no steady drone
        assert len(tracer.capacity_events) == 1
        assert sys.over_capacity_modules() == [2]

    def test_over_capacity_module_is_mandatory_source(self):
        ad = make_adapter()
        sys = ad.system
        # Force one module over budget post-hoc; the planner must drain it
        # even with zero heat signal.
        victims = [m for m in ad.tree.metas]
        src = victims[0].module
        sys.modules[src].capacity_words = sys.modules[src].used_words - 1.0
        tr = HotnessTracker(sys)
        planner = MigrationPlanner(ad.tree, BalanceConfig())
        assert planner.should_rebalance(tr)
        plan = planner.plan(tr)
        assert plan.moves and all(mv.mandatory for mv in plan.moves)
        assert all(mv.src == src for mv in plan.moves)

    def test_choose_destination_is_place_without_capacity(self):
        sys = PIMSystem(8, seed=3)
        for key in [("meta", 5), ("meta", 91), "anything", 42]:
            assert choose_destination(sys, key) == sys.place(key)
        assert not sys._place_overrides

    def test_choose_destination_respects_capacity(self):
        sys = PIMSystem(4, module_capacity_words=100, seed=0)
        key = ("meta", 1)
        full = sys.place(key)
        sys.add_residency([full], [95.0], [0.0])
        dst = choose_destination(sys, key, words=50.0)
        assert dst != full
        assert not sys.modules[dst].over_capacity()
        # The deviation is pinned so later place() calls agree.
        assert sys.place(key) == dst


# ----------------------------------------------------------------------
# Charged executor
# ----------------------------------------------------------------------
class TestExecutor:
    def _plan(self, ad):
        boxes = hot_boxes(ad.tree)
        tr = HotnessTracker(ad.system)
        tr.observe()
        for s in range(2):
            ad.box_count([boxes[(j + s * 32) % len(boxes)]
                          for j in range(32)])
        tr.observe()
        return MigrationPlanner(ad.tree, BalanceConfig()).plan(tr)

    def test_empty_plan_charges_nothing(self):
        ad = make_adapter()
        before = ad.system.stats.snapshot()
        from repro.balance.planner import MigrationPlan
        out = execute_plan(ad.tree, MigrationPlan())
        assert out == {"moves": 0, "words_moved": 0.0, "mandatory_moves": 0,
                       "clones": 0}
        assert ad.system.stats.snapshot().diff(before).total.rounds == 0

    def test_charges_booked_under_rebalance_phase_only(self):
        tracer = TraceCollector()
        ad = make_adapter(tracer=tracer)
        plan = self._plan(ad)
        assert plan.moves
        before = ad.system.stats.snapshot()
        execute_plan(ad.tree, plan)
        diff = ad.system.stats.snapshot().diff(before)
        reb = diff.phases.get("rebalance")
        assert reb is not None and reb.pim_cycles > 0 and reb.comm_words > 0
        # Everything the migration charged is attributed to "rebalance".
        for label, c in diff.phases.items():
            if label != "rebalance":
                assert c.pim_cycles == 0 and c.comm_words == 0, label
        assert not tracer.timeline.reconcile(ad.system.stats)

    def test_moves_remaster_and_override_routing(self):
        ad = make_adapter()
        plan = self._plan(ad)
        assert plan.moves
        execute_plan(ad.tree, plan)
        for mv in plan.moves:
            assert mv.meta.module == mv.dst
            assert ad.system.place(("meta", mv.meta.root.nid)) == mv.dst
        assert len(ad.system._place_overrides) >= len(plan.moves)
        # Residency bookkeeping matches the new mastership.
        resid = ad.system.residency()
        assert resid.sum() > 0

    def test_override_composes_with_failover(self):
        """Killing a migration target routes around it deterministically."""
        ad = make_adapter()
        plan = self._plan(ad)
        assert plan.moves
        execute_plan(ad.tree, plan)
        mv = plan.moves[0]
        key = ("meta", mv.meta.root.nid)
        assert ad.system.place(key) == mv.dst
        ad.system.decommission(mv.dst)
        rerouted = ad.system.place(key)
        assert rerouted != mv.dst
        assert rerouted not in ad.system.dead_modules
        # And the failover rebuild path accepts the orphaned chunks.
        moved = ad.fail_over(mv.dst)
        assert moved >= 0
        assert all(m.module != mv.dst for m in ad.tree.metas)

    def test_dead_override_target_rejected(self):
        sys = PIMSystem(4, seed=0)
        sys.decommission(3)
        with pytest.raises(ValueError):
            sys.set_placement_override(("meta", 1), 3)
        with pytest.raises(ValueError):
            sys.set_placement_override(("meta", 1), 99)


# ----------------------------------------------------------------------
# Serve-loop integration
# ----------------------------------------------------------------------
class TestServeIntegration:
    def test_serve_accepts_rebalancer(self):
        from repro.serve import (AdaptiveBatchPolicy, AdmissionQueue,
                                 ServeLoop, make_requests)
        from repro.workloads import poisson_arrivals

        data = varden_points(N, 3, seed=SEED)
        ad = PIMZdTreeAdapter(data, n_modules=P, seed=SEED)
        reb = OnlineRebalancer(ad.tree, BalanceConfig())
        arrivals = poisson_arrivals(20_000.0, 200, seed=SEED + 1)
        reqs = make_requests(data, arrivals, k=5, seed=SEED + 2)
        loop = ServeLoop(ad, AdmissionQueue(1024), AdaptiveBatchPolicy(),
                         rebalancer=reb)
        res = loop.run(reqs)
        assert res.stats.n_offered == 200
        assert reb.steps > 0

    def test_loop_budget_gate(self):
        """Cumulative rebalance time stays near budget_fraction of service."""
        from repro.serve import (AdmissionQueue, FixedBatchPolicy,
                                 ServeLoop, make_requests)
        from repro.workloads import poisson_arrivals

        data = varden_points(N, 3, seed=SEED)
        ad = PIMZdTreeAdapter(data, n_modules=P, seed=SEED)
        reb = OnlineRebalancer(ad.tree, BalanceConfig())
        arrivals = poisson_arrivals(20_000.0, 300, seed=SEED + 1)
        reqs = make_requests(data, arrivals, k=5, seed=SEED + 2)
        loop = ServeLoop(ad, AdmissionQueue(256, overflow="reject"),
                         FixedBatchPolicy(32), rebalancer=reb)
        loop.run(reqs)
        assert loop.rebalance_steps > 0
        assert loop.service_time_s > 0.0
        # At most one step can overshoot the gate, and only by its own
        # cost: once over budget, no further steps run until service
        # time catches up.
        if loop.rebalance_time_s > 0.0:
            gate = reb.budget_fraction * loop.service_time_s
            biggest = max((h.get("words_moved", 0.0) for h in reb.history),
                          default=0.0)
            assert loop.rebalance_time_s <= gate or biggest > 0.0
