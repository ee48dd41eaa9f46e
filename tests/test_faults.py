"""Tests for the fault-injection & reliability subsystem (``repro.faults``).

Covers: :class:`FaultPlan` argument validation and RNG determinism,
byte-identity of no-fault runs with and without an attached (all-zero)
plan, fault-aware placement (attempt-0 hash unchanged, dead modules
excluded), crash/drop/slowdown injection at the charging sites, the
kill-1-of-P failover scenario with post-recovery query results checked
byte-identically against a fault-free oracle, recovery-cost phase
attribution, exact trace reconciliation under faults, serving-layer
terminal-state accounting and run-to-run determinism, and the satellite
fixes (NaN→null JSON, ``head_group`` on an empty queue, queue expiry).
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from conftest import assert_same_points, brute_knn, brute_range_query
from sim_oracle import should_drop, slow_factor

from repro.core.geometry import Box
from repro.eval import make_adapter
from repro.faults import FaultError, FaultEvent, FaultPlan, MessageLoss, ModuleFailure
from repro.obs import EventKind, TraceCollector, timeline_json
from repro.pim import CHARGE_PIM, CHARGE_RECV, CHARGE_SEND, PhaseCounters, PIMSystem
from repro.route import RouteFilterSet
from repro.serve import (AdaptiveBatchPolicy, AdmissionQueue, LatencyStats, Request,
                         ServeLoop, make_requests)
from repro.store import DurableStore, open_backend
from repro.workloads import poisson_arrivals, uniform_points

TERMINAL = {"done", "rejected", "shed", "failed", "timed_out", "degraded"}


# ----------------------------------------------------------------------
# FaultPlan: validation and determinism
# ----------------------------------------------------------------------
class TestFaultPlan:
    @pytest.mark.parametrize("kw", [
        {"crash_rate": 1.0},
        {"crash_rate": -0.1},
        {"drop_rate": 1.5},
        {"storm_rate": -0.01},
        {"storm_factor": 0.5},
        {"storm_rounds": 0},
        {"slow_factors": {0: 0.25}},
    ])
    def test_bad_arguments_rejected(self, kw):
        with pytest.raises(ValueError):
            FaultPlan(**kw)

    def _drive(self, plan, rounds=200):
        """Consume the plan's hooks in a fixed order; return event dicts."""
        live = list(range(8))
        for r in range(rounds):
            for mid in live:
                should_drop(plan, "send", mid, 100.0, r)
            for ev in plan.on_round_close(r, live):
                if ev.kind == "crash":
                    live = [m for m in live if m != ev.mid]
        return [ev.to_dict() for ev in plan.events]

    def test_identical_plans_inject_identical_events(self):
        kw = dict(seed=13, drop_rate=0.03, crash_rate=0.002, max_crashes=2,
                  storm_rate=0.05, storm_factor=4.0, storm_rounds=3)
        a = self._drive(FaultPlan(**kw))
        b = self._drive(FaultPlan(**kw))
        assert a == b
        assert len(a) > 0  # the schedule actually fired

    def test_different_seeds_diverge(self):
        kw = dict(drop_rate=0.05)
        a = self._drive(FaultPlan(seed=1, **kw))
        b = self._drive(FaultPlan(seed=2, **kw))
        assert a != b

    def test_paused_plan_is_inert_and_preserves_the_stream(self):
        # While paused no events fire AND no RNG is consumed, so a
        # pause/resume cycle leaves the future schedule unchanged.
        a = FaultPlan(seed=5, drop_rate=0.2)
        b = FaultPlan(seed=5, drop_rate=0.2)
        b.paused = True
        for _ in range(50):
            assert should_drop(b, "send", 0, 10.0, 0) is None
        assert b.on_round_close(0, [0, 1]) == []
        assert b.events == []
        b.paused = False
        rolls_a = [should_drop(a, "send", 0, 10.0, 0) is None
                   for _ in range(100)]
        rolls_b = [should_drop(b, "send", 0, 10.0, 0) is None
                   for _ in range(100)]
        assert rolls_a == rolls_b

    def test_max_crashes_bounds_random_crashes(self):
        plan = FaultPlan(seed=3, crash_rate=0.5, max_crashes=2)
        self._drive(plan, rounds=50)
        assert len(plan.crashed) == 2

    def test_storm_inflates_then_decays(self):
        plan = FaultPlan(seed=0, storm_rate=0.999, storm_factor=6.0,
                         storm_rounds=2)
        live = [0, 1, 2, 3]
        events = plan.on_round_close(0, live)
        storms = [ev for ev in events if ev.kind == "storm"]
        assert len(storms) == 1
        mid = storms[0].mid
        assert slow_factor(plan, mid) == 6.0
        # Static slow factors compose multiplicatively with storms.
        plan.slow_factors[mid] = 2.0
        assert slow_factor(plan, mid) == 12.0
        del plan.slow_factors[mid]
        # Decay after storm_rounds closes (further storms may start; the
        # original one must be gone once its rounds are spent).
        plan.storm_rate = 0.0
        plan.on_round_close(1, live)
        plan.on_round_close(2, live)
        assert slow_factor(plan, mid) == 1.0


# ----------------------------------------------------------------------
# PIMSystem: injection sites, placement, decommissioning
# ----------------------------------------------------------------------
class TestSystemFaults:
    def test_attach_detach(self):
        sys = PIMSystem(4)
        assert sys.fault_plan is None
        plan = FaultPlan(seed=0)
        sys.attach_faults(plan)
        assert sys.fault_plan is plan
        sys.attach_faults(None)
        assert sys.fault_plan is None

    def test_placement_attempt0_unchanged_and_dead_excluded(self):
        keys = [("meta", i) for i in range(256)]
        ref = PIMSystem(8, seed=0)
        before = {k: ref.place(k) for k in keys}

        sys = PIMSystem(8, seed=0)
        sys.decommission(3)
        assert sys.dead_modules == frozenset({3})
        assert sys.n_live == 7
        for k in keys:
            after = sys.place(k)
            assert after != 3
            if before[k] != 3:
                # Keys not mapped to the dead module keep the attempt-0
                # hash — the fault-free layout is undisturbed.
                assert after == before[k]

    def test_cannot_kill_last_live_module(self):
        sys = PIMSystem(3)
        sys.decommission(0)
        sys.decommission(1)
        with pytest.raises(RuntimeError):
            sys.decommission(2)
        assert sys.n_live == 1

    def test_charge_to_dead_module_raises_module_failure(self):
        sys = PIMSystem(4)
        sys.decommission(2)
        with pytest.raises(ModuleFailure) as ei:
            with sys.round():
                sys.charge_sequence(CHARGE_SEND, [2], [100.0])
        assert ei.value.mid == 2
        # Live modules still work.
        with sys.round():
            sys.charge_sequence(CHARGE_SEND, [1], [100.0])

    def test_drop_raises_message_loss_before_charging(self):
        sys = PIMSystem(4)
        sys.attach_faults(FaultPlan(seed=1, drop_rate=0.999999))
        with pytest.raises(MessageLoss) as ei:
            with sys.round():
                sys.charge_sequence(CHARGE_SEND, [0], [50.0])
        assert ei.value.words == 50.0
        assert ei.value.direction == "send"
        ev = sys.fault_plan.events[-1]
        assert (ev.kind, ev.mid, ev.value) == ("drop", 0, 50.0)
        # The loss was raised *before* the words were charged.
        assert sys.stats.total.comm_words == 0.0

    def test_slowdown_inflates_pim_cycles(self):
        base = PIMSystem(2)
        with base.round():
            base.charge_sequence(CHARGE_PIM, [0], [1000.0])
        slow = PIMSystem(2)
        slow.attach_faults(FaultPlan(seed=0, slow_factors={0: 3.0}))
        with slow.round():
            slow.charge_sequence(CHARGE_PIM, [0], [1000.0])
        assert slow.stats.total.pim_cycles == 3.0 * base.stats.total.pim_cycles

    def test_scheduled_crash_lands_at_round_close(self):
        sys = PIMSystem(4)
        sys.attach_faults(FaultPlan(crash_at={1: 2}))
        for _ in range(3):
            with sys.round():
                sys.charge_sequence(CHARGE_PIM, [0], [10.0])
        assert sys.dead_modules == frozenset({1})
        kinds = [ev.kind for ev in sys.fault_plan.events]
        assert kinds == ["crash"]

    def test_no_fault_run_is_byte_identical_with_inert_plan(self):
        def workload(sys):
            for r in range(10):
                with sys.round():
                    for mid in range(sys.n_modules):
                        sys.charge_sequence(
                            [CHARGE_PIM, CHARGE_SEND, CHARGE_RECV],
                            [mid] * 3, [100.0 + mid, 64.0, 32.0])
                sys.charge_cpu(50.0)
                sys.charge_comm_flat(128.0)
            return sys.stats.to_dict()

        bare = workload(PIMSystem(8, seed=0))
        inert = PIMSystem(8, seed=0)
        inert.attach_faults(FaultPlan(seed=99))  # all rates zero
        assert workload(inert) == bare
        assert inert.fault_plan.events == []


# ----------------------------------------------------------------------
# Failover: kill 1 of P, recover, match the fault-free oracle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fo_data():
    return uniform_points(2000, 3, seed=42)


class TestFailover:
    DEAD = 3

    def _queries(self, data, n=96, seed=7):
        rng = np.random.default_rng(seed)
        q = data[rng.integers(0, len(data), size=n)]
        return q + rng.normal(scale=1e-4, size=q.shape)

    def test_kill_one_of_p_recovers_byte_identical(self, fo_data):
        q = self._queries(fo_data)
        oracle = make_adapter("pim", fo_data, n_modules=8, seed=3)
        want = oracle.tree.knn(q, 10)

        adapter = make_adapter("pim", fo_data, n_modules=8, seed=3,
                               fault_plan=FaultPlan(seed=0))
        adapter.tree.knn(q, 10)          # healthy warm-up
        adapter.system.decommission(self.DEAD)
        # Detection: the next dispatch touching the dead module faults.
        with pytest.raises(ModuleFailure) as ei:
            adapter.measure(lambda: adapter.knn(q, 10))
        assert ei.value.mid == self.DEAD
        assert ei.value.measurement is not None  # wasted work is billed

        moved = adapter.fail_over(self.DEAD)
        assert moved > 0
        assert all(m.module != self.DEAD for m in adapter.tree.metas)
        assert adapter.system.n_live == 7

        got = adapter.tree.knn(q, 10)
        assert len(got) == len(want)
        for (dg, ig), (dw, iw) in zip(got, want):
            np.testing.assert_array_equal(dg, dw)
            np.testing.assert_array_equal(ig, iw)

    def test_recovery_cost_charged_under_recovery_phase(self, fo_data):
        adapter = make_adapter("pim", fo_data, n_modules=8, seed=3,
                               fault_plan=FaultPlan(seed=0))
        assert "recovery" not in adapter.system.stats.phases
        adapter.system.decommission(self.DEAD)
        m = adapter.measure(lambda: adapter.fail_over(self.DEAD))
        rec = adapter.system.stats.phases["recovery"]
        assert rec.cpu_ops > 0 and rec.comm_words > 0
        assert m.sim_time_s > 0
        assert "recovery" in m.phases  # visible in the Fig. 6 breakdown
        # Phase attribution invariant survives the failover.
        summed = PhaseCounters()
        for c in adapter.system.stats.phases.values():
            summed.add(c)
        assert summed.to_dict() == adapter.system.stats.total.to_dict()

    def test_fail_over_is_idempotent(self, fo_data):
        adapter = make_adapter("pim", fo_data, n_modules=8, seed=3)
        adapter.system.decommission(self.DEAD)
        assert adapter.fail_over(self.DEAD) > 0
        assert adapter.fail_over(self.DEAD) == 0  # nothing left to move

    def test_repeat_fail_over_charges_and_journals_nothing(self, fo_data,
                                                           tmp_path):
        """The second failover of a module is a true no-op: with route
        filters attached a residency refresh is a full charged rebuild,
        and a second FAILOVER record would dirty the store."""
        adapter = make_adapter("pim", fo_data, n_modules=8, seed=3)
        tree = adapter.tree
        RouteFilterSet(tree)
        store = DurableStore(open_backend("file", tmp_path / "s"))
        store.attach(tree)
        adapter.system.decommission(self.DEAD)
        assert tree.fail_over(self.DEAD)["metas_moved"] > 0
        assert store.dirty_records == 1

        before = adapter.system.stats.snapshot()
        again = tree.fail_over(self.DEAD)
        assert again == {"module": self.DEAD, "metas_moved": 0,
                         "words_moved": 0.0, "promoted": 0}
        assert adapter.system.stats.to_dict() == before.to_dict()
        assert store.dirty_records == 1
        store.backend.close()

    def test_trace_reconciles_exactly_under_kill_and_failover(self, fo_data):
        tracer = TraceCollector()
        plan = FaultPlan(seed=0)
        adapter = make_adapter("pim", fo_data, n_modules=8, seed=3,
                               tracer=tracer, fault_plan=plan)
        q = self._queries(fo_data, n=48)
        adapter.tree.knn(q, 8)
        # Crash DEAD at the close of the next round: a round on a live
        # module (charged and traced like any other) lands it.
        sys = adapter.system
        plan.crash_at[self.DEAD] = 0
        with sys.round():
            sys.charge_sequence(CHARGE_PIM, [self.DEAD + 1], [1.0])
        assert sys.dead_modules == frozenset({self.DEAD})
        adapter.fail_over(self.DEAD)
        adapter.tree.knn(q, 8)
        # Fault events are recorded but never booked: the timeline still
        # reconciles bit-exactly with the PIMStats totals.
        assert tracer.timeline.reconcile(adapter.system.stats) == []
        crashes = [ev for ev in tracer.fault_events if ev.kind == "crash"]
        assert [ev.mid for ev in crashes] == [self.DEAD]
        fault_trace = [e for e in tracer.events() if e.kind == EventKind.FAULT]
        assert len(fault_trace) == len(tracer.fault_events)
        doc = timeline_json(tracer, stats=adapter.system.stats)
        assert doc["faults"] == [ev.to_dict() for ev in tracer.fault_events]


# ----------------------------------------------------------------------
# A faulted update leaves no trace in the tree
# ----------------------------------------------------------------------
class _DropNth(FaultPlan):
    """Armed drop plan that loses exactly the ``nth`` transfer it is asked
    about — a seeded rate cannot be aimed at one round of one call."""

    def __init__(self, nth: int) -> None:
        super().__init__(drop_rate=0.5)
        self.nth = nth
        self.asked = 0

    def first_drop(self, n):
        if self.paused:
            return n
        j = self.nth - self.asked - 1
        if 0 <= j < n:
            self.asked += j + 1
            return j
        self.asked += n
        return n


@pytest.mark.parametrize("engine", ["reference", "vectorized"], indirect=True)
@pytest.mark.parametrize("op", ["insert", "delete"])
def test_faulted_update_leaves_no_trace(fo_data, op, engine):
    rng = np.random.default_rng(11)
    if op == "insert":
        batch = rng.random((200, 3))
        want_after = np.vstack([fo_data, batch])
    else:
        gone = rng.choice(len(fo_data), 200, replace=False)
        batch = fo_data[gone]
        want_after = np.delete(fo_data, gone, axis=0)
    queries = fo_data[:24] + 1e-4
    boxes = [Box(q - 0.08, q + 0.08) for q in queries[:8]]

    def build(nth):
        plan = _DropNth(nth)
        adapter = make_adapter("pim", fo_data, n_modules=16, seed=3,
                               fault_plan=plan)
        return adapter.tree, plan

    tree, plan = build(0)  # never drops: count the transfers of the call
    getattr(tree, op)(batch)
    total = plan.asked
    assert total > 100
    # Early, middle and late transfers; the last ones are the apply round.
    for nth in sorted({1, total // 3, total // 2, total - 40, total - 1,
                       total}):
        tree, _ = build(nth)
        with pytest.raises(FaultError):
            getattr(tree, op)(batch)
        tree.system.attach_faults(None)
        assert_same_points(tree.all_points(), fo_data)
        tree.check_invariants()
        for q, (d, _) in zip(queries, tree.knn(queries, 6)):
            np.testing.assert_allclose(d, brute_knn(fo_data, q, 6),
                                       atol=1e-12)
        for box, got in zip(boxes, tree.box_fetch(boxes)):
            assert_same_points(got, brute_range_query(fo_data, box))
        getattr(tree, op)(batch)  # the retry applies fully
        assert_same_points(tree.all_points(), want_after)
        tree.check_invariants()


# ----------------------------------------------------------------------
# Serving layer under faults
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serve_data():
    return uniform_points(1500, 3, seed=11)


def _faulty_serve(data, *, drop_rate=0.0, crash_at=None, timeout_s=None,
                  overflow="reject", n_req=120, rate=30_000.0,
                  failover=True, mix=None):
    plan = FaultPlan(seed=17, drop_rate=drop_rate, crash_at=crash_at)
    adapter = make_adapter("pim", data, n_modules=8, seed=3, fault_plan=plan)
    arrivals = poisson_arrivals(rate, n_req, seed=21)
    reqs = make_requests(data, arrivals, k=10, deadline_s=5e-3, seed=9,
                         mix=mix)
    loop = ServeLoop(adapter, AdmissionQueue(64, overflow=overflow),
                     AdaptiveBatchPolicy(), backoff_s=1e-5,
                     timeout_s=timeout_s, failover=failover)
    res = loop.run(reqs)
    return res, adapter, plan


class TestServeUnderFaults:
    def test_every_request_in_exactly_one_terminal_state(self, serve_data):
        res, _, plan = _faulty_serve(serve_data, drop_rate=0.05,
                                     crash_at={2: 20}, timeout_s=4e-3)
        assert len(plan.events) > 0
        s = res.stats
        for r in res.requests:
            assert r.status in TERMINAL
        assert (s.n_done + s.n_rejected + s.n_shed + s.n_failed
                + s.n_timed_out + s.n_degraded) == s.n_offered
        assert 0.0 <= s.availability <= 1.0
        # Exhausted batches surface in the batch log too.
        statuses = {b.status for b in res.batches}
        assert statuses <= {"done", "failed", "degraded"}
        assert any(b.retries > 0 for b in res.batches)

    def test_fault_run_is_byte_identical_across_repeats(self, serve_data):
        kw = dict(drop_rate=0.04, crash_at={5: 15}, timeout_s=5e-3)
        res1, a1, p1 = _faulty_serve(serve_data, **kw)
        res2, a2, p2 = _faulty_serve(serve_data, **kw)
        assert res1.stats.to_json() == res2.stats.to_json()
        assert a1.system.stats.to_dict() == a2.system.stats.to_dict()
        assert ([e.to_dict() for e in p1.events]
                == [e.to_dict() for e in p2.events])

    def test_no_fault_serve_unchanged_by_inert_plan(self, serve_data):
        res_plain, a_plain, _ = _faulty_serve(serve_data)
        res_inert, a_inert, plan = _faulty_serve(serve_data, drop_rate=0.0)
        assert plan.events == []
        assert res_plain.stats.to_json() == res_inert.stats.to_json()
        assert (a_plain.system.stats.to_dict()
                == a_inert.system.stats.to_dict())
        s = res_plain.stats
        assert s.n_failed == s.n_timed_out == s.n_degraded == 0
        assert s.availability == 1.0

    def test_failed_inserts_are_rolled_back(self, serve_data):
        # Insert-only workload under heavy drops: whatever ends DONE is
        # in the index, whatever ends FAILED was compensated away — the
        # logical point set must equal base + successfully-inserted.
        res, adapter, _ = _faulty_serve(serve_data, drop_rate=0.10,
                                        mix={"insert": 1.0}, n_req=60)
        done_pts = [r.payload for r in res.requests if r.status == "done"]
        expect = len(serve_data) + len(done_pts)
        assert adapter.tree.size == expect
        failed = [r for r in res.requests if r.status == "failed"]
        if failed:  # inserts never end DEGRADED
            assert all(r.kind == "insert" for r in failed)
        assert not any(r.status == "degraded" for r in res.requests)

    def test_failover_restores_query_oracle_mid_serve(self, serve_data):
        res, adapter, plan = _faulty_serve(serve_data, crash_at={4: 10},
                                           mix={"knn": 1.0})
        assert 4 in plan.crashed
        assert adapter.system.dead_modules == frozenset({4})
        # After the in-loop failover the surviving index answers queries
        # byte-identically to a never-faulted oracle.
        oracle = make_adapter("pim", serve_data, n_modules=8, seed=3)
        rng = np.random.default_rng(3)
        q = serve_data[rng.integers(0, len(serve_data), size=64)]
        for (dg, ig), (dw, iw) in zip(adapter.tree.knn(q, 10),
                                      oracle.tree.knn(q, 10)):
            np.testing.assert_array_equal(dg, dw)
            np.testing.assert_array_equal(ig, iw)


# ----------------------------------------------------------------------
# Satellites: JSON NaN handling, queue guards, expiry
# ----------------------------------------------------------------------
class TestSatelliteFixes:
    def test_empty_stats_serialise_to_strict_json(self):
        s = LatencyStats.compute([], [])
        assert math.isnan(s.latency["p50"])
        text = s.to_json()
        assert "NaN" not in text and "Infinity" not in text
        doc = json.loads(text, parse_constant=lambda c: pytest.fail(
            f"non-strict JSON constant {c!r} leaked into to_json()"))
        assert doc["latency_s"]["p50"] is None

    def test_head_group_on_empty_queue_raises(self):
        q = AdmissionQueue(8)
        with pytest.raises(LookupError):
            q.head_group()

    def test_expire_stamps_timed_out(self):
        q = AdmissionQueue(8)
        reqs = [Request(rid=i, kind="knn", payload=None, arrival_s=0.1 * i,
                        k=10) for i in range(4)]
        for r in reqs:
            q.offer(r, r.arrival_s)
        expired = q.expire(now=0.35, timeout_s=0.2)
        assert [r.rid for r in expired] == [0, 1]
        for r in expired:
            assert r.status == "timed_out"
            assert r.complete_s == pytest.approx(r.arrival_s + 0.2)
        assert len(q) == 2
        with pytest.raises(ValueError):
            q.expire(0.0, timeout_s=0.0)

    def test_fault_event_round_trips_to_dict(self):
        ev = FaultEvent("drop", 3, 17, 128.0, "send")
        assert ev.to_dict() == {"kind": "drop", "mid": 3, "round": 17,
                                "value": 128.0, "note": "send"}

    def test_fault_error_types(self):
        assert issubclass(ModuleFailure, FaultError)
        assert issubclass(MessageLoss, FaultError)
        assert FaultError("x").measurement is None
