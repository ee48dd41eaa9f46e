"""Differential oracle for the simulator core: production vs. scalar.

``PIMSystem``'s array core (``repro.pim.vector``) must be a byte-exact
drop-in for the per-module scalar oracle (``tests/sim_oracle.py``): for
any charging script — one-element and many-element ``charge_sequence``
calls, one kind or mixed, phases, zero amounts, faults — both must
produce byte-identical :class:`repro.pim.stats.PIMStats`.

Also locks down:

* zero-charge unification — a zero amount is a complete no-op, in the
  oracle's scalar calls as in ``charge_sequence``;
* one charge path — a one-kind ``charge_sequence`` writes the arrays
  with no helper calls beyond the phase lookup;
* broadcast fan-out atomicity — a drop mid-broadcast no longer leaves
  later modules silently unsent;
* ``HotnessTracker.transfer`` guards (self-transfer, dead destination).
"""

from __future__ import annotations

from sys import setprofile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sim_oracle import ScalarPIMSystem

from repro.balance import HotnessTracker
from repro.faults import FaultPlan, MessageLoss
from repro.obs import TraceCollector
from repro.pim import CHARGE_PIM, CHARGE_RECV, CHARGE_SEND, PIMSystem

pytestmark = []


def both_systems(n=4, **kw):
    return ScalarPIMSystem(n, **kw), PIMSystem(n, **kw)


def assert_stats_identical(scalar: PIMSystem, vector: PIMSystem) -> None:
    a, b = scalar.stats, vector.stats
    if a == b:
        assert a.to_dict() == b.to_dict()
        return
    lines = [f"total:\n  scalar={a.total}\n  vector={b.total}"]
    for lab in sorted(set(a.phases) | set(b.phases)):
        pa, pb = a.phases.get(lab), b.phases.get(lab)
        if pa != pb:
            lines.append(f"phase {lab}:\n  scalar={pa}\n  vector={pb}")
    raise AssertionError("sim modes diverge:\n" + "\n".join(lines))


# ======================================================================
# zero-charge unification (bugfix)
# ======================================================================
class TestZeroChargeSemantics:
    def test_zero_scalar_charges_book_nothing(self):
        for mode, sys in zip(("scalar", "vector"), both_systems(4)):
            before = sys.snapshot()
            with sys.round():
                sys.charge_sequence(CHARGE_PIM, [0], [0])
                sys.charge_sequence(CHARGE_SEND, [1], [0.0])
                sys.charge_sequence(CHARGE_RECV, [2], [0])
            d = sys.stats.diff(before).total
            assert d.rounds == 0, mode
            assert sys.stats.mux_switches == 0, mode
            assert d.pim_cycles == 0 and d.comm_words == 0, mode

    def test_scalar_vs_bulk_identical_with_zeros(self):
        """Zeros through the oracle's scalar calls book exactly what
        ``charge_sequence`` books for them."""
        script = [(0, 10.0), (1, 0.0), (2, 7.0), (3, 0.0), (0, 0.0), (2, 3.0)]
        a = ScalarPIMSystem(4)
        b = PIMSystem(4)
        with a.round():
            for mid, amt in script:
                a.charge_pim(mid, amt)
                a.send(mid, amt)
                a.recv(mid, amt * 2)
        with b.round():
            for mid, amt in script:
                b.charge_sequence([CHARGE_PIM, CHARGE_SEND, CHARGE_RECV],
                                  [mid] * 3, [amt, amt, amt * 2])
        assert a.stats == b.stats
        assert a.stats.to_dict() == b.stats.to_dict()

    def test_zero_only_round_is_empty(self):
        sys = PIMSystem(2)
        with sys.round():
            sys.charge_sequence(CHARGE_SEND, [0], [0.0])
        assert sys.stats.total.rounds == 0
        assert sys.stats.mux_switches == 0

    def test_zero_send_consumes_no_drop_rng(self):
        """A zero-word send must not roll the drop RNG."""
        plan_a = FaultPlan(seed=5, drop_rate=0.5)
        plan_b = FaultPlan(seed=5, drop_rate=0.5)
        a = PIMSystem(2, fault_plan=plan_a)
        b = PIMSystem(2, fault_plan=plan_b)

        def run(sys, with_zero):
            outcomes = []
            for _ in range(20):
                with sys.round():
                    if with_zero:
                        sys.charge_sequence(CHARGE_SEND, [1], [0.0])
                    try:
                        sys.charge_sequence(CHARGE_SEND, [0], [4])
                        outcomes.append("ok")
                    except MessageLoss:
                        outcomes.append("drop")
            return outcomes

        assert run(a, with_zero=True) == run(b, with_zero=False)


# ======================================================================
# one charge path
# ======================================================================
def _nested_calls(fn, *args) -> list[tuple[str, str]]:
    """(name, file) of the Python functions ``fn(*args)`` calls, at any
    depth."""
    calls: list[tuple[str, str]] = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append((frame.f_code.co_name, frame.f_code.co_filename))

    setprofile(profile)
    try:
        fn(*args)
    finally:
        setprofile(None)
    assert calls[0][0] == fn.__name__
    return calls[1:]


class TestOneChargePath:
    """A one-kind charge reads the phase and its phase array, and writes
    the module's slots inline: no per-module object, no view method, no
    per-element kind array."""

    @pytest.mark.parametrize("verb, lookup", [
        ("charge_pim", "phase_cycles"),
        ("send", "phase_words"),
        ("recv", "phase_words"),
    ])
    def test_a_charge_makes_at_most_two_nested_calls(self, verb, lookup):
        kind = {"charge_pim": CHARGE_PIM, "send": CHARGE_SEND,
                "recv": CHARGE_RECV}[verb]
        sys = PIMSystem(4)
        with sys.round():
            nested = _nested_calls(sys.charge_sequence, kind, [2], [7.0])
        assert [name for name, file in nested if "repro" in file] == [
            "current_phase", lookup]
        assert sys.modules[2].total_cycles == (7.0 if verb == "charge_pim"
                                               else 0.0)
        assert sys.stats.total.rounds == 1

    def test_one_kind_forms_book_what_charge_sequence_books(self):
        """``charge_pim_array`` / ``send_array`` / ``recv_array`` (kept for
        the benchmark harness) are ``charge_sequence`` with the kind
        bound."""
        a, b = PIMSystem(4), PIMSystem(4)
        mids, amounts = [0, 2, 2], [3.0, 0.0, 5.0]
        with a.round():
            a.charge_pim_array(mids, amounts)
            a.send_array(mids, amounts)
            a.recv_array(mids, amounts)
        with b.round():
            for kind in (CHARGE_PIM, CHARGE_SEND, CHARGE_RECV):
                b.charge_sequence(kind, mids, amounts)
        assert a.stats.to_dict() == b.stats.to_dict()


# ======================================================================
# broadcast fan-out atomicity (bugfix)
# ======================================================================
class TestBroadcastAtomicity:
    def _run(self, seed: int):
        plan = FaultPlan(seed=seed, drop_rate=0.4)
        sys = PIMSystem(8, fault_plan=plan)
        err = None
        with sys.round():
            try:
                sys.broadcast(5)
            except MessageLoss as e:
                err = e
        return sys, err

    def test_partial_delivery_recorded_and_charged(self):
        # Seed chosen so the 8 drop rolls produce at least one loss and
        # at least one delivery (asserted, not assumed).
        sys, err = self._run(seed=1)
        delivered, dropped = sys.last_broadcast
        assert dropped and delivered
        assert err is not None
        assert err.delivered_mids == delivered
        assert err.dropped_mids == dropped
        assert sorted(delivered + dropped) == list(range(8))
        # Every delivered module was charged; no dropped module was.
        assert sys.stats.total.comm_words == 5 * len(delivered)
        assert sys.stats.total.module_rounds == len(delivered)

    def test_fanout_is_deterministic(self):
        a, _ = self._run(seed=3)
        b, _ = self._run(seed=3)
        assert a.last_broadcast == b.last_broadcast
        assert a.stats == b.stats

    def test_fault_free_broadcast_reaches_all_live(self):
        sys = PIMSystem(6)
        sys.decommission(4)
        with sys.round():
            sys.broadcast(3)
        delivered, dropped = sys.last_broadcast
        assert delivered == (0, 1, 2, 3, 5)
        assert dropped == ()
        assert sys.stats.total.comm_words == 3 * 5


# ======================================================================
# HotnessTracker.transfer guards (bugfix)
# ======================================================================
class TestTransferGuards:
    def _tracker(self, n=4):
        sys = PIMSystem(n)
        tr = HotnessTracker(sys, alpha=1.0)
        with sys.round():
            sys.charge_sequence(CHARGE_PIM, [0, 1], [100, 50])
        tr.observe()
        return sys, tr

    def test_self_transfer_is_noop(self):
        _, tr = self._tracker()
        before = tr.hotness.copy()
        tr.transfer(0, 0, 40.0)
        assert np.array_equal(tr.hotness, before)

    def test_dead_destination_is_noop(self):
        sys, tr = self._tracker()
        sys.decommission(2)
        before = tr.hotness.copy()
        tr.transfer(0, 2, 40.0)
        assert np.array_equal(tr.hotness, before)

    def test_out_of_range_raises(self):
        _, tr = self._tracker()
        with pytest.raises(ValueError):
            tr.transfer(0, 99, 1.0)
        with pytest.raises(ValueError):
            tr.transfer(-5, 1, 1.0)

    def test_migration_then_failover_composes(self):
        """A stale plan executed after the destination crashed must not
        park heat on the dead module (it would never decay back out)."""
        sys, tr = self._tracker()
        # Planner decides to move heat 0 -> 2; module 2 crashes first.
        sys.decommission(2)
        tr.transfer(0, 2, 60.0)
        assert tr.hotness[2] == 0.0
        # Heat stays where observations can still decay it.
        assert tr.hotness[0] == 100.0
        # A live re-plan still works.
        tr.transfer(0, 3, 60.0)
        assert tr.hotness[3] == 60.0 and tr.hotness[0] == 40.0
        assert np.all(tr.live_hotness() >= 0.0)


# ======================================================================
# ModuleView proxy surface (direct unit coverage)
# ======================================================================
class TestModuleViewSurface:
    """``PIMSystem.modules`` are read views over the one VectorState.

    What the system charges or books is visible through every view
    handle; ``failed`` and per-module capacity read per slot; capacity
    pressure is an onset judged on each ``add_residency`` call, exactly
    as the scalar oracle judges it.
    """

    def _view(self, n=4, mid=1, **kw):
        sys = PIMSystem(n, **kw)
        return sys, sys.modules[mid]

    def test_values_round_trip_as_python_floats(self):
        sys, m = self._view()
        with sys.round():
            sys.charge_sequence(CHARGE_PIM, [1], [np.float64(8.0)])
        sys.add_residency([1], np.array([3.0]), np.array([2.0]))
        assert type(m.total_cycles) is float and m.total_cycles == 8.0
        assert type(m.master_words) is float
        assert type(m.used_words) is float and m.used_words == 5.0

    def test_failed_setter_coerces_to_bool(self):
        """``decommission`` is the one writer of ``failed``; the view
        reads it as a Python bool."""
        sys, m = self._view()
        assert m.failed is False
        sys.decommission(1)
        assert m.failed is True
        assert sys.modules[1].failed is True
        assert sys.modules[0].failed is False

    def test_capacity_is_per_module(self):
        sys, m = self._view(module_capacity_words=100)
        assert m.capacity_words == 100
        m.capacity_words = 40
        assert sys.modules[1].capacity_words == 40
        assert sys.modules[0].capacity_words == 100  # others keep theirs

    def test_over_capacity_with_and_without_limit(self):
        sys, m = self._view(module_capacity_words=None)
        sys.add_residency([1], [1e9], [0.0])
        assert not m.over_capacity()  # None = unlimited
        m.capacity_words = 10
        assert m.over_capacity()
        m.capacity_words = None
        assert not m.over_capacity()

    @pytest.mark.parametrize("alloc", ["alloc_master", "alloc_cache"])
    def test_pressure_fires_only_on_the_crossing_alloc(self, alloc):
        tracer = TraceCollector()
        sys = PIMSystem(4, module_capacity_words=10, tracer=tracer)
        fired = tracer.capacity_events

        def add(words):
            col = [words, 0.0] if alloc == "alloc_master" else [0.0, words]
            sys.add_residency([1], [col[0]], [col[1]])

        add(8.0)
        assert fired == []          # under capacity: silent
        add(5.0)
        assert [e["mid"] for e in fired] == [1]  # the crossing add fires
        add(3.0)
        assert len(fired) == 1      # further adds while over: no drone
        # Dropping back under and crossing again fires a fresh onset.
        add(-8.0)
        add(4.0)
        assert [e["mid"] for e in fired] == [1, 1]

    def test_pressure_parity_with_scalar(self):
        """The same residency script fires the same onsets in both cores."""
        script = [([0], [6], [0]), ([0, 1], [0, 4], [3, 0]), ([0], [0], [4]),
                  ([0], [-6], [0]), ([0, 0], [2, 9], [0, 0]),
                  ([1, 0], [9, 1], [0, -1])]
        onsets = {}
        for mode, sys in zip(("scalar", "vector"), both_systems(
                2, module_capacity_words=12)):
            sys.attach_tracer(TraceCollector())
            for mids, master, cache in script:
                sys.add_residency(mids, master, cache)
            onsets[mode] = [(e["mid"], e["used_words"])
                            for e in sys.tracer.capacity_events]
        assert onsets["scalar"] == onsets["vector"]
        # Module 0 crosses, recedes and crosses again; then module 1.
        assert [mid for mid, _ in onsets["scalar"]] == [0, 0, 1]

    def test_charge_and_comm_hit_shared_arrays(self):
        sys, m = self._view()
        with sys.phase("build"), sys.round():
            sys.charge_sequence([CHARGE_PIM, CHARGE_RECV, CHARGE_SEND],
                                [1, 1, 1], [9.0, 2.0, 3.0])
            _labels, charges = sys._vec.round_charges([1])
            cycles, sent, received = np.add.reduce(charges)[:, 0]
            assert cycles == 9.0 and sent + received == 5.0
        assert m.total_cycles == 9.0 and sys.modules[1].total_cycles == 9.0
        assert sys.stats.phases["build"].comm_words == 5.0


# ======================================================================
# scalar vs vector differential
# ======================================================================
VERBS = st.sampled_from(["pim", "send", "recv", "bulk_pim", "bulk_send",
                         "bulk_recv", "arr_pim", "arr_send", "arr_recv",
                         "flat", "seq"])
KINDS = st.sampled_from([CHARGE_PIM, CHARGE_SEND, CHARGE_RECV])
PHASES = st.sampled_from(["build", "query", "update", "other"])
ONE_KIND = {"pim": CHARGE_PIM, "send": CHARGE_SEND, "recv": CHARGE_RECV}
AMOUNTS = st.integers(0, 40)  # zeros included on purpose


@st.composite
def charge_scripts(draw):
    n_rounds = draw(st.integers(1, 5))
    script = []
    for _ in range(n_rounds):
        n_ops = draw(st.integers(0, 6))
        ops = []
        for _ in range(n_ops):
            verb = draw(VERBS)
            phase = draw(PHASES)
            if verb == "seq":
                # Mixed kinds, zeros and repeated mids in one sequence.
                ops.append((verb, phase, draw(st.lists(
                    st.tuples(KINDS, st.integers(0, 3), AMOUNTS),
                    min_size=0, max_size=12))))
            elif verb.startswith(("bulk", "arr")):
                pairs = draw(st.lists(
                    st.tuples(st.integers(0, 3), AMOUNTS),
                    min_size=0, max_size=5))
                ops.append((verb, phase, pairs))
            else:
                ops.append((verb, phase, draw(st.integers(0, 3)),
                            draw(AMOUNTS)))
        script.append(ops)
    return script


def _apply_script(sys: PIMSystem, script) -> None:
    for round_ops in script:
        with sys.round():
            for op in round_ops:
                verb, phase = op[0], op[1]
                with sys.phase(phase):
                    if verb in ONE_KIND:
                        sys.charge_sequence(ONE_KIND[verb], [op[2]], [op[3]])
                    elif verb == "flat":
                        sys.charge_comm_flat(op[3])
                    elif verb == "seq":
                        sys.charge_sequence([k for k, _, _ in op[2]],
                                            [m for _, m, _ in op[2]],
                                            [a for _, _, a in op[2]])
                    elif verb == "bulk_pim":
                        d = {}
                        for mid, amt in op[2]:
                            d[mid] = d.get(mid, 0) + amt
                        sys.charge_sequence(CHARGE_PIM, list(d),
                                            list(d.values()))
                    elif verb == "bulk_send":
                        d = {}
                        for mid, amt in op[2]:
                            d[mid] = d.get(mid, 0) + amt
                        sys.charge_sequence(CHARGE_SEND, list(d),
                                            list(d.values()))
                    elif verb == "bulk_recv":
                        d = {}
                        for mid, amt in op[2]:
                            d[mid] = d.get(mid, 0) + amt
                        sys.charge_sequence(CHARGE_RECV, list(d),
                                            list(d.values()))
                    elif op[2]:
                        mids = np.array([m for m, _ in op[2]], dtype=np.intp)
                        amts = np.array([a for _, a in op[2]],
                                        dtype=np.float64)
                        sys.charge_sequence(ONE_KIND[verb[4:]], mids, amts)


class TestSimModeDifferential:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(script=charge_scripts())
    def test_any_charging_script_is_identical(self, script):
        scalar, vector = both_systems(4)
        _apply_script(scalar, script)
        _apply_script(vector, script)
        assert_stats_identical(scalar, vector)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(script=charge_scripts(), seed=st.integers(0, 100),
           traced=st.booleans())
    def test_identical_under_faults(self, script, seed, traced):
        plan_kw = dict(seed=seed, drop_rate=0.15, slow_factors={1: 3.0},
                       storm_rate=0.3, storm_factor=4.0, storm_rounds=2,
                       crash_rate=0.05, max_crashes=2)
        scalar, vector = both_systems(
            4, fault_plan=FaultPlan(**plan_kw))
        # Re-create the plan per system: each consumes its own RNG stream.
        vector._faults = FaultPlan(**plan_kw)
        if traced:
            for sys in (scalar, vector):
                sys.attach_tracer(TraceCollector())

        def run(sys):
            try:
                _apply_script(sys, script)
            except Exception as e:  # noqa: BLE001 - faults are the point
                return (type(e).__name__, str(e),
                        getattr(e, "charge_index", None))
            return None

        ra, rb = run(scalar), run(vector)
        assert ra == rb
        assert_stats_identical(scalar, vector)
        assert ([e.to_dict() for e in scalar.fault_plan.events]
                == [e.to_dict() for e in vector.fault_plan.events])
        if traced:
            assert ([e.to_dict() for e in scalar.tracer.events()]
                    == [e.to_dict() for e in vector.tracer.events()])
            assert scalar.tracer.fault_events == vector.tracer.fault_events

    def test_straggler_tiebreak_matches(self):
        """Equal round cycles: both modes pick the lowest dirty mid."""
        scalar, vector = both_systems(4)
        for sys in (scalar, vector):
            with sys.round():
                with sys.phase("a"):
                    sys.charge_sequence(CHARGE_PIM, [2], [10])
                with sys.phase("b"):
                    # Tie: mid 1 wins (sorted order).
                    sys.charge_sequence(CHARGE_PIM, [1], [10])
        assert_stats_identical(scalar, vector)
        assert scalar.stats.phases["b"].pim_cycles == 10
        assert "a" not in {
            ph for ph, c in scalar.stats.phases.items() if c.pim_cycles
        }

    def test_decommission_and_views(self):
        scalar, vector = both_systems(4)
        for sys in (scalar, vector):
            sys.add_residency([1, 2], [50, 30], [20, 0])
            sys.decommission(1)
        for sys in (scalar, vector):
            assert sys.modules[1].failed
            assert sys.modules[1].used_words == 0.0
            assert sys.master_words() == 30.0
            assert sys.used_words() == 30.0
            assert list(sys.residency()) == [0.0, 0.0, 30.0, 0.0]
        with pytest.raises(Exception):
            with vector.round():
                vector.charge_sequence(CHARGE_PIM, [1], [5])

    def test_module_loads_shapes(self):
        scalar, vector = both_systems(3)
        for sys in (scalar, vector):
            with sys.round():
                sys.charge_sequence(CHARGE_PIM, np.array([0, 2]),
                                    np.array([7.0, 9.0]))
        assert np.array_equal(scalar.module_loads(), vector.module_loads())
        # module_loads returns a copy, not a live view of the core.
        loads = vector.module_loads()
        loads[0] = 999.0
        assert vector.module_loads()[0] == 7.0

    def test_traced_runs_agree(self):
        """With a tracer attached the vector core emits one event per
        element; stats must stay identical and rounds reconcile."""
        ta, tb = TraceCollector(), TraceCollector()
        scalar = ScalarPIMSystem(4, tracer=ta)
        vector = PIMSystem(4, tracer=tb)
        script = [[("pim", "q", 0, 5), ("send", "q", 1, 3),
                   ("recv", "u", 0, 2)],
                  [("bulk_pim", "q", [(0, 4), (3, 9)])]]
        _apply_script(scalar, script)
        _apply_script(vector, script)
        assert_stats_identical(scalar, vector)
        ra = ta.rounds()
        rb = tb.rounds()
        assert len(ra) == len(rb) == 2
        for x, y in zip(ra, rb):
            assert x.cycles_by_module == y.cycles_by_module
            assert x.words_by_module == y.words_by_module
            assert x.straggler_mid == y.straggler_mid

    def test_invalid_sim_mode_rejected(self):
        """There is one core, so no ``sim_mode`` is accepted anywhere."""
        from repro.core.config import throughput_optimized
        from repro.eval.harness import PIMZdTreeAdapter

        with pytest.raises(TypeError):
            PIMSystem(2, sim_mode="vector")
        with pytest.raises(TypeError):
            throughput_optimized(100, 4, sim_mode="vector")
        with pytest.raises(TypeError):
            PIMZdTreeAdapter(np.zeros((8, 2)), n_modules=2, sim_mode="vector")
