"""One charging call per BSP round: the executor against per-group charging.

``PushPullExecutor`` books each round's groups with one
``PIMSystem.charge_sequence`` call.  The reference is the executor that
charged group by group (``exec_oracle.run_per_group``): same kernels,
same pull decisions, one scalar call per charge.  Covered here:

* a replicated Varden tree served under drops, straggler factors, storms
  and a scheduled crash, with and without a tracer, books what the
  reference books — exceptions, PIMStats, fault and trace events,
  ``hot_hits``, executor counters and replica routed loads — and a fault
  at group ``j`` leaves the groups after ``j`` untouched;
* the batched drop rolls consume exactly the sequential draws;
* the early exit in ``_decide_pulls`` decides what the full rule does;
* a pushed round at P = 2048 makes no scalar charge from the executor;
* the other rounds (insert and delete, relocation, replica flush,
  broadcast) book one call per group of fault sites: a seeded faulty
  serve matches what it booked when each charge was a call of its own,
  a faulted insert records the replica writes it sent, and a relocation
  to a dead module applies no move.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest
from exec_oracle import run_per_group
from hypothesis import given, settings
from hypothesis import strategies as st
from sim_oracle import should_drop

from repro.core import PIMZdTree, skew_resistant, throughput_optimized
from repro.core.geometry import Box
from repro.core.node import Layer
from repro.core.push_pull import PushPullExecutor
from repro.faults import FaultError, FaultPlan, MessageLoss, ModuleFailure
from repro.obs import TraceCollector
from repro.pim import PIMSystem
from repro.replicate import WRITE_POLICIES, ReplicaSet, ReplicationConfig
from repro.workloads import uniform_points, varden_points

P = 16
SEED = 5


# ----------------------------------------------------------------------
# the executor under faults, against per-group charging
# ----------------------------------------------------------------------
def _plan(crash_mid: int) -> FaultPlan:
    return FaultPlan(seed=SEED, drop_rate=0.001, slow_factors={3: 2.0, 7: 3.0},
                     storm_rate=0.2, storm_factor=4.0, storm_rounds=2,
                     crash_at={crash_mid: 12})


def _build(data, policy: str, traced: bool):
    system = PIMSystem(P, seed=SEED)
    tree = PIMZdTree(data, config=skew_resistant(P), system=system)
    ReplicaSet(tree, ReplicationConfig(k=2, write_policy=policy)).replicate_all()
    if traced:
        system.attach_tracer(TraceCollector())
    # Crash the module that masters the most chunks: batches reach it.
    load = np.bincount([m.module for m in tree.metas], minlength=P)
    system.attach_faults(_plan(int(np.argmax(load))))
    return tree


def _ops(data):
    """A fixed serving script: kNN, box counts and fetches, inserts and
    searches, with hot spots that pull groups to the host."""
    rng = np.random.default_rng(SEED)
    hot = data[rng.integers(0, len(data), 3)]
    ops = []
    for step in range(14):
        q = data[rng.integers(0, len(data), 96)] + 1e-4
        q[:40] = hot[step % 3] + rng.normal(scale=1e-6, size=(40, 3))
        kind = step % 5
        if kind == 0:
            ops.append(("knn", q, 8))
        elif kind == 1:
            ops.append(("box_count", [Box(p - 0.02, p + 0.02) for p in q[::4]]))
        elif kind == 2:
            ops.append(("box_fetch", [Box(p - 0.01, p + 0.01) for p in q[::6]]))
        elif kind == 3:
            ops.append(("insert", q[:48] + 1e-3))
        else:
            ops.append(("search", q))
    return ops


def _serve(tree, ops, executors):
    """Run ``ops`` and record everything the two bookings must agree on."""
    system = tree.system
    log = []
    for name, *args in ops:
        n_exec = len(executors)
        try:
            getattr(tree, name)(*args)
            outcome = None
        except FaultError as e:
            outcome = (type(e).__name__, e.args)
            if isinstance(e, ModuleFailure):
                with system.faults_suppressed():
                    tree.fail_over(e.mid)
        log.append({
            "op": name,
            "outcome": outcome,
            "stats": system.stats.to_dict(),
            "faults": [ev.to_dict() for ev in system.fault_plan.events],
            "executors": [(e.pushed_tasks, e.pulled_tasks, e.pulled_metas,
                           e.rounds_executed) for e in executors[n_exec:]],
            "hot_hits": sorted((m.root.nid, m.hot_hits) for m in tree.metas),
            "routed": tree.replicas.routing_state(),
        })
    trace = system.tracer
    events = ([] if trace is None else
              [ev.to_dict() for ev in trace.events()]
              + [ev.to_dict() for ev in trace.fault_events])
    return log, events, system.stats


def _recording(run, executors):
    def recorded(self, *args, **kw):
        executors.append(self)
        return run(self, *args, **kw)
    return recorded


@pytest.fixture(scope="module")
def varden():
    return varden_points(8000, 3, seed=SEED)


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("policy", WRITE_POLICIES)
def test_executor_matches_per_group_charging_under_faults(
        monkeypatch, varden, policy, traced):
    ops = _ops(varden)
    runs = {}
    raised_mid_round = []
    for name, run in (("per_group", run_per_group),
                      ("one_call", PushPullExecutor.run)):
        executors: list = []
        with monkeypatch.context() as mp:
            mp.setattr(PushPullExecutor, "run", _recording(run, executors))
            if name == "one_call":
                charge_round = PushPullExecutor._charge_round

                def watched(self, groups, *args):
                    try:
                        charge_round(self, groups, *args)
                    except FaultError as e:
                        raised_mid_round.append(
                            e.charge_index // 4 < len(groups) - 1)
                        raise
                mp.setattr(PushPullExecutor, "_charge_round", watched)
            runs[name] = _serve(_build(varden, policy, traced), ops, executors)

    (ref_log, ref_events, ref_stats), (log, events, stats) = (
        runs["per_group"], runs["one_call"])
    for step, (want, got) in enumerate(zip(ref_log, log)):
        assert got == want, f"step {step} ({want['op']}) diverges"
    assert stats == ref_stats
    assert events == ref_events
    assert bool(events) == traced
    # The script exercised what it is for.
    outcomes = [s["outcome"][0] for s in log if s["outcome"] is not None]
    assert "MessageLoss" in outcomes and "ModuleFailure" in outcomes
    assert any(raised_mid_round)
    assert any(pulled for s in log for _, pulled, _, _ in s["executors"])


def test_batched_drop_rolls_match_sequential_rolls():
    """``first_drop(n)`` returns where the one-by-one rolls of the scalar
    oracle first drop and leaves the generator where they leave it."""
    for seed in range(40):
        for n in (0, 1, 7, 60):
            seq = FaultPlan(seed=seed, drop_rate=0.05)
            batch = FaultPlan(seed=seed, drop_rate=0.05)
            want = next((i for i in range(n)
                         if should_drop(seq, "send", 0, 1.0, 0) is not None), n)
            assert batch.first_drop(n) == want
            assert (batch._rng.bit_generator.state
                    == seq._rng.bit_generator.state)
            assert batch._rng.random() == seq._rng.random()
    paused = FaultPlan(seed=1, drop_rate=0.5)
    paused.paused = True
    before = paused._rng.bit_generator.state
    assert paused.first_drop(10) == 10
    assert paused._rng.bit_generator.state == before


# ----------------------------------------------------------------------
# pull decisions: the early exit against the full rule
# ----------------------------------------------------------------------
def _full_pull_rule(ex, by_meta):
    """``_decide_pulls`` without its early exit."""
    cfg = ex.config
    if not cfg.push_pull:
        return set()
    pulled = set()
    l1_counts = {m: len(ts) for m, ts in by_meta.items() if m.layer == Layer.L1}
    while l1_counts:
        loads = defaultdict(int)
        for m, c in l1_counts.items():
            loads[m.module] += c
        mean = sum(loads.values()) / ex.sys.n_modules
        if max(loads.values()) <= cfg.pull_imbalance_factor * max(mean, 1e-12):
            break
        hot = [m for m, c in l1_counts.items() if c > cfg.pull_threshold_l1]
        if not hot:
            break
        for m in hot:
            pulled.add(m)
            del l1_counts[m]
    for m, ts in by_meta.items():
        if m.layer == Layer.L2 and len(ts) > cfg.pull_threshold_l2:
            pulled.add(m)
    return pulled


class _Meta:
    def __init__(self, layer, module):
        self.layer = layer
        self.module = module


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    groups=st.lists(st.tuples(st.sampled_from([Layer.L1, Layer.L2]),
                              st.integers(0, 7), st.integers(1, 40)),
                    min_size=1, max_size=12),
    k1=st.integers(0, 40), k2=st.integers(0, 40),
    factor=st.sampled_from([1.0, 1.5, 4.0, float("inf")]),
    push_pull=st.booleans(),
)
def test_early_exit_decides_what_the_full_rule_does(groups, k1, k2, factor,
                                                    push_pull):
    cfg = SimpleNamespace(push_pull=push_pull, pull_threshold_l1=k1,
                          pull_threshold_l2=k2, pull_imbalance_factor=factor)
    ex = PushPullExecutor(SimpleNamespace(system=PIMSystem(8), config=cfg))
    by_meta = {_Meta(layer, mod): [None] * size for layer, mod, size in groups}
    assert ex._decide_pulls(by_meta) == _full_pull_rule(ex, by_meta)


# ----------------------------------------------------------------------
# call ban: a pushed round books with one call
# ----------------------------------------------------------------------
def test_a_pushed_round_makes_no_scalar_charge_from_the_executor():
    data = varden_points(20_000, 3, seed=7)
    n = 2048
    tree = PIMZdTree(data, config=throughput_optimized(len(data), n),
                     system=PIMSystem(n, seed=7))
    rng = np.random.default_rng(7)
    queries = data[rng.integers(0, len(data), 256)] + 1e-4

    calls: list[tuple[str, str]] = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_back is not None:
            calls.append((frame.f_back.f_code.co_filename,
                          frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        tree.knn(queries, 8)
    finally:
        sys.setprofile(None)
    from_executor = [name for file, name in calls
                     if file.endswith("push_pull.py")]
    assert tree.last_executor.pushed_tasks > 0
    assert "charge_sequence" in from_executor
    assert not {"charge_pim", "send", "recv"} & set(from_executor)


# ----------------------------------------------------------------------
# the fault path of a whole serve, pinned
# ----------------------------------------------------------------------
def _pinned_serve(policy: str) -> dict:
    """A seeded Varden serve at P = 16 under replicas k = 2, a rebalancer,
    a drop-prone plan with stragglers, storms and one crash (on a module
    that masters chunks, so failover runs and a faulted insert batch is
    compensated) and a tracer."""
    from repro.serve import ServeSpec, build_session

    spec = ServeSpec(
        dataset="varden", n=4000, n_modules=P, seed=3, requests=300,
        rate=40_000.0, mix={"knn": 0.4, "bc": 0.1, "bf": 0.1, "insert": 0.4},
        config={"replicate.k": 2, "replicate.write_policy": policy,
                "rebalance.enabled": True, "rebalance.ratio": 1.1,
                "rebalance.budget_fraction": 0.3})
    plan = FaultPlan(seed=11, drop_rate=0.005, slow_factors={2: 2.0, 9: 3.0},
                     storm_rate=0.02, storm_factor=4.0, storm_rounds=2,
                     crash_at={14: 40})
    tracer = TraceCollector()
    session = build_session(spec, fault_plan=plan, tracer=tracer)
    result = session.run()
    stats = session.adapter.system.stats
    digest = hashlib.sha256(
        json.dumps(stats.to_dict(), sort_keys=True).encode()).hexdigest()[:16]
    return {
        "stats": digest,
        "faults": [(e.kind, e.mid, e.round_index, e.value, e.note)
                   for e in plan.events],
        "batches": len(result.batches),
        "not_clean": [(i, b.kind, b.status, b.retries)
                      for i, b in enumerate(result.batches)
                      if (b.status, b.retries) != ("done", 0)],
        "reconciles": tracer.timeline.reconcile(stats) == [],
        "phases": sorted(stats.phases),
        "migrations": session.parts["rebalancer"].migrations,
    }


# Recorded when those rounds booked one element per call.
PINNED_SERVES = {
    "write-all": {
        "stats": "9f1a46cfb5356bd8",
        "faults": [("crash", 14, 40, 0.0, "scheduled"),
                   ("storm", 15, 72, 4.0, "2 rounds"),
                   ("drop", 13, 75, 6.0, "send"),
                   ("storm", 0, 77, 4.0, "2 rounds"),
                   ("storm", 6, 125, 4.0, "2 rounds"),
                   ("drop", 0, 136, 5.0, "recv"),
                   ("drop", 2, 137, 5.0, "recv"),
                   ("drop", 15, 190, 4.0, "send"),
                   ("storm", 6, 195, 4.0, "2 rounds"),
                   ("storm", 13, 198, 4.0, "2 rounds"),
                   ("drop", 10, 226, 1118.0, "recv"),
                   ("drop", 6, 240, 6.0, "send")],
        "batches": 134,
        "not_clean": [(29, "insert", "done", 1), (33, "knn", "done", 1),
                      (66, "knn", "done", 2), (91, "insert", "done", 1),
                      (113, "bf", "done", 1), (124, "knn", "done", 1)],
        "reconciles": True,
    },
    "primary-async": {
        "stats": "28d73e108f74d416",
        "faults": [("storm", 5, 21, 4.0, "2 rounds"),
                   ("crash", 14, 40, 0.0, "scheduled"),
                   ("storm", 4, 55, 4.0, "2 rounds"),
                   ("drop", 10, 71, 8.0, "send"),
                   ("drop", 3, 122, 15.0, "recv"),
                   ("drop", 13, 127, 2.0, "send"),
                   ("drop", 12, 165, 10.0, "recv"),
                   ("drop", 13, 172, 8.0, "send"),
                   ("storm", 5, 198, 4.0, "2 rounds"),
                   ("drop", 10, 206, 521.0, "recv"),
                   ("drop", 15, 222, 338.0, "recv")],
        "batches": 113,
        "not_clean": [(27, "insert", "done", 1), (30, "bf", "done", 1),
                      (57, "insert", "done", 1), (58, "knn", "done", 1),
                      (75, "insert", "done", 1), (77, "bf", "done", 1),
                      (98, "bf", "done", 1), (106, "bf", "done", 1)],
        "reconciles": True,
    },
}


@pytest.mark.parametrize("policy", WRITE_POLICIES)
def test_fault_path_serve_is_pinned(policy):
    """Every round of the serve books what it booked when insert, delete,
    relocate, replica flush and broadcast still charged element by
    element: PIMStats, fault events, batch outcomes and reconciliation."""
    got = _pinned_serve(policy)
    assert {"recovery", "delete", "rebalance", "replicate"} <= set(
        got.pop("phases"))
    assert got.pop("migrations") > 0
    assert got == PINNED_SERVES[policy]


def test_relocate_to_a_dead_module_applies_no_move(varden):
    """``relocate`` charges every move before it applies any: a dead
    destination raises ``ModuleFailure`` with the moves before it in the
    list still unapplied."""
    from repro.core.relocate import Move, relocate

    system = PIMSystem(P, seed=SEED)
    tree = PIMZdTree(varden, config=skew_resistant(P), system=system)
    ReplicaSet(tree, ReplicationConfig(k=2)).replicate_all()
    metas = sorted(tree.metas, key=lambda m: m.root.nid)
    dead = (metas[2].module + 1) % P
    system.decommission(dead)  # nothing moved off it: no failover ran
    live = [m for m in range(P) if m != dead]
    a, b, c = [m for m in metas if m.module != dead][:3]
    moves = [Move(a, next(m for m in live if m != a.module), "migrate"),
             Move(b, next(m for m in live if m != b.module
                          and m not in tree.replicas.secondaries(b)), "clone"),
             Move(c, dead, "migrate")]

    def state():
        return ({m.root.nid: m.module for m in tree.metas},
                dict(system._place_overrides),
                dict(tree.replicas._secondaries),
                system.residency().tolist())

    before = state()
    with pytest.raises(ModuleFailure) as err:
        relocate(tree, moves, phase="rebalance")
    assert err.value.mid == dead
    assert state() == before


# Recorded when each update send was a call of its own: the ReplicaSet's
# (writes_fanned, words_fanned, pending words) after an insert whose
# apply round drops its last, second-to-last or third-to-last send.  With
# k = 3 under write-all those are the last write's primary and its two
# secondaries; under primary-async, the last three primaries.
PINNED_WRITES = {
    "write-all": {444: (137, 1592.0, 0.0), 445: (138, 1592.0, 0.0),
                  446: (138, 1596.0, 0.0)},
    "primary-async": {168: (135, 0.0, 788.0), 169: (136, 0.0, 792.0),
                      170: (137, 0.0, 796.0)},
}


@pytest.mark.parametrize("policy", WRITE_POLICIES)
def test_a_faulted_update_round_records_only_the_sends_made(policy):
    """The apply round's sends are one call; the ReplicaSet still records
    a write only when its primary send went through and, under write-all,
    counts only the fan-out sends made before the drop."""
    from test_faults import _DropNth

    data = uniform_points(3000, 3, seed=1)
    batch = uniform_points(200, 3, seed=2)
    for nth, want in PINNED_WRITES[policy].items():
        tree = PIMZdTree(data, system=PIMSystem(P, seed=1))
        reps = ReplicaSet(tree, ReplicationConfig(k=3, write_policy=policy))
        reps.replicate_all()
        tree.system.attach_faults(_DropNth(nth))
        with pytest.raises(MessageLoss):
            tree.insert(batch)
        pending = sum(words for words, _ in reps._pending.values())
        assert (reps.writes_fanned, reps.words_fanned, pending) == want
