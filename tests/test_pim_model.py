"""Unit tests for the PIM Model simulator substrate."""

import numpy as np
import pytest

from repro.pim import (
    CHARGE_PIM,
    CHARGE_RECV,
    CHARGE_SEND,
    LRUCache,
    PIMCostModel,
    PIMSystem,
    UPMEM_2048,
    upmem_scaled,
)

KINDS = {"pim": CHARGE_PIM, "send": CHARGE_SEND, "recv": CHARGE_RECV}


class TestLRUCache:
    def test_miss_then_hit(self):
        c = LRUCache(4)
        assert not c.touch("a")
        assert c.touch("a")
        assert c.misses == 1 and c.hits == 1

    def test_eviction_order_is_lru(self):
        c = LRUCache(2)
        c.touch("a")
        c.touch("b")
        c.touch("a")  # refresh a; b is now LRU
        c.touch("c")  # evicts b
        assert c.touch("a")
        assert not c.touch("b")

    def test_dram_words_counts_misses_and_streams(self):
        c = LRUCache(8, words_per_block=8)
        c.touch("x")
        c.stream(100)
        assert c.dram_words == 8 + 100

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestBSPRounds:
    def test_pim_time_is_max_over_modules(self):
        sys = PIMSystem(4)
        with sys.round():
            sys.charge_sequence(CHARGE_PIM, [0, 1, 2], [10, 50, 20])
        assert sys.stats.total.pim_cycles == 50

    def test_rounds_accumulate(self):
        sys = PIMSystem(2)
        for _ in range(3):
            with sys.round():
                sys.charge_sequence(CHARGE_PIM, [0], [1])
        assert sys.stats.total.rounds == 3
        assert sys.stats.mux_switches == 6
        assert sys.stats.total.pim_cycles == 3

    def test_comm_totals_and_max(self):
        sys = PIMSystem(4)
        with sys.round():
            sys.charge_sequence([CHARGE_SEND, CHARGE_SEND, CHARGE_RECV],
                                [0, 1, 1], [10, 4, 2])
        assert sys.stats.total.comm_words == 16
        assert sys.stats.total.comm_max_words == 10
        assert sys.stats.total.module_rounds == 2

    def test_empty_round_charges_nothing(self):
        """Regression: a round that touched no module must be a no-op —
        no round, no mux switches, no PIM time (seed code charged
        rounds += 1 and mux_switches += 2 for no-op rounds)."""
        sys = PIMSystem(4)
        with sys.round():
            pass
        assert sys.stats.total.rounds == 0
        assert sys.stats.mux_switches == 0
        assert sys.stats.total.pim_cycles == 0
        assert sys.stats.total.comm_words == 0
        assert sys.stats.total.module_rounds == 0
        # A real round afterwards still charges normally.
        with sys.round():
            sys.charge_sequence(CHARGE_PIM, [0], [5])
        assert sys.stats.total.rounds == 1
        assert sys.stats.mux_switches == 2

    def test_pim_activity_outside_round_raises(self):
        sys = PIMSystem(2)
        with pytest.raises(RuntimeError):
            sys.charge_sequence(CHARGE_PIM, [0], [1])
        with pytest.raises(RuntimeError):
            sys.charge_sequence(CHARGE_SEND, [0], [1])

    def test_rounds_do_not_nest(self):
        sys = PIMSystem(2)
        with pytest.raises(RuntimeError):
            with sys.round():
                with sys.round():
                    pass

    def test_broadcast_charges_every_module(self):
        sys = PIMSystem(8)
        with sys.round():
            sys.broadcast(5)
        assert sys.stats.total.comm_words == 40
        assert sys.stats.total.comm_max_words == 5

    def test_comm_flat_spreads_max(self):
        sys = PIMSystem(10)
        sys.charge_comm_flat(100)
        assert sys.stats.total.comm_words == 100
        assert sys.stats.total.comm_max_words == pytest.approx(10)


class TestPhases:
    def test_phase_attribution(self):
        sys = PIMSystem(2)
        with sys.phase("alpha"):
            sys.charge_cpu(10)
            with sys.phase("beta"):
                sys.charge_cpu(5)
        assert sys.stats.phases["alpha"].cpu_ops == 10
        assert sys.stats.phases["beta"].cpu_ops == 5
        assert sys.stats.total.cpu_ops == 15

    def test_charge_pim_books_to_phase_at_charge_time(self):
        """Regression: a phase entered *inside* a round owns the PIM cycles
        and words charged under it.  Seed code attributed everything at
        round close to whatever phase was active then (often the round's
        outer phase, or "other")."""
        sys = PIMSystem(2)
        with sys.phase("outer"):
            with sys.round():
                with sys.phase("inner"):
                    sys.charge_sequence([CHARGE_PIM, CHARGE_SEND], [0, 0],
                                        [100, 7])
        inner = sys.stats.phases["inner"]
        assert inner.pim_cycles == 100
        assert inner.comm_words == 7
        assert inner.comm_max_words == 7
        # Round-level scalars go to the phase active at round entry.
        outer = sys.stats.phases["outer"]
        assert outer.rounds == 1
        assert outer.module_rounds == 1
        assert outer.pim_cycles == 0
        assert outer.comm_words == 0

    def test_straggler_cycles_split_across_phases(self):
        """The straggler's max-cycle charge is split by the phases under
        which the straggler itself accumulated work."""
        sys = PIMSystem(2)
        with sys.round():
            with sys.phase("a"):
                sys.charge_sequence(CHARGE_PIM, [0], [30])
            with sys.phase("b"):
                # Module 1 is not the straggler.
                sys.charge_sequence(CHARGE_PIM, [0, 1], [70, 10])
        assert sys.stats.total.pim_cycles == 100
        assert sys.stats.phases["a"].pim_cycles == 30
        assert sys.stats.phases["b"].pim_cycles == 70

    def test_snapshot_diff_isolates_window(self):
        sys = PIMSystem(2)
        sys.charge_cpu(100)
        snap = sys.snapshot()
        sys.charge_cpu(7)
        with sys.round():
            sys.charge_sequence(CHARGE_SEND, [0], [3])
        d = sys.stats.diff(snap)
        assert d.total.cpu_ops == 7
        assert d.total.comm_words == 3
        assert d.total.rounds == 1


class TestCPUSide:
    def test_llc_miss_charges_dram(self):
        sys = PIMSystem(2, llc_bytes=64 * 100)
        sys.touch_cpu_blocks(["n1", "n1"])
        assert sys.stats.total.dram_words == 8  # one miss

    def test_dram_stream(self):
        sys = PIMSystem(2)
        sys.dram_stream(1000)
        assert sys.stats.total.dram_words == 1000


class TestPlacement:
    def test_deterministic(self):
        a = PIMSystem(16, seed=7)
        b = PIMSystem(16, seed=7)
        keys = [("meta", i) for i in range(100)]
        assert [a.place(k) for k in keys] == [b.place(k) for k in keys]

    def test_seed_changes_layout(self):
        a = PIMSystem(16, seed=1)
        b = PIMSystem(16, seed=2)
        keys = [("meta", i) for i in range(200)]
        assert [a.place(k) for k in keys] != [b.place(k) for k in keys]

    def test_roughly_uniform(self):
        sys = PIMSystem(8, seed=3)
        counts = np.bincount(
            [sys.place(("x", i)) for i in range(4000)], minlength=8
        )
        assert counts.min() > 350  # expectation 500 per module

    def test_module_count_validation(self):
        with pytest.raises(ValueError):
            PIMSystem(0)


class TestResidency:
    def test_alloc_free_master_cache(self):
        sys = PIMSystem(2)
        sys.add_residency([0], [100], [30])
        assert sys.master_words() == 100
        assert sys.cache_words() == 30
        assert sys.used_words() == 130
        assert sys.modules[0].used_words == 130
        sys.add_residency([0], [-100], [-30])
        assert sys.used_words() == 0

    def test_capacity_flag(self):
        sys = PIMSystem(1, module_capacity_words=10)
        sys.add_residency([0], [11], [0])
        assert sys.modules[0].over_capacity()


class TestCostModel:
    def test_components_sum(self):
        from repro.pim.stats import PhaseCounters

        cm = UPMEM_2048
        c = PhaseCounters(cpu_ops=2.1e9 * 32, pim_cycles=350e6, comm_words=1e9 / 8,
                          comm_max_words=0, rounds=1)
        t = cm.time(c)
        assert t.cpu_s == pytest.approx(1.0)
        assert t.pim_s == pytest.approx(1.0)
        assert t.total_s == t.cpu_s + t.pim_s + t.comm_s

    def test_cpu_roofline_max(self):
        from repro.pim.stats import PhaseCounters

        cm = UPMEM_2048
        heavy_mem = PhaseCounters(cpu_ops=1, dram_words=cm.dram_bw_bytes_s / 8)
        t = cm.time(heavy_mem)
        assert t.cpu_s == pytest.approx(1.0)

    def test_direct_api_is_faster(self):
        from repro.pim.stats import PhaseCounters

        c = PhaseCounters(comm_words=1e6, rounds=100, module_rounds=1000)
        fast = UPMEM_2048.with_direct_api(True).time(c).comm_s
        slow = UPMEM_2048.with_direct_api(False).time(c).comm_s
        assert slow > fast

    def test_scaled_preserves_per_op_comm_time(self):
        from repro.pim.stats import PhaseCounters

        # Same per-module communication at 2048 and 64 modules should take
        # the same time once bandwidth and overheads scale jointly.
        big = UPMEM_2048
        small = upmem_scaled(64)
        c_big = PhaseCounters(comm_words=2048 * 100)
        c_small = PhaseCounters(comm_words=64 * 100)
        assert small.time(c_small).comm_s == pytest.approx(big.time(c_big).comm_s)
        # Per-round fixed overheads scale down with the machine.
        assert small.round_overhead_s == pytest.approx(big.round_overhead_s / 32)

    def test_traffic_bytes(self):
        from repro.pim.stats import PhaseCounters

        c = PhaseCounters(comm_words=10, dram_words=5)
        assert UPMEM_2048.traffic_bytes(c) == 15 * 8

    def test_straggler_dominates_round(self):
        """Skewed per-module work must cost more than balanced work."""
        balanced = PIMSystem(4)
        skewed = PIMSystem(4)
        with balanced.round():
            balanced.charge_sequence(CHARGE_PIM, range(4), 25)
        with skewed.round():
            skewed.charge_sequence(CHARGE_PIM, [0], [100])
        assert skewed.stats.total.pim_cycles > balanced.stats.total.pim_cycles


class TestPhaseSumInvariant:
    """Property: after any workload, ``stats.total`` equals the sum over
    ``stats.phases`` for every counter (charge-time attribution never loses
    or double-books work)."""

    COUNTERS = (
        "cpu_ops",
        "cpu_span",
        "pim_cycles",
        "comm_words",
        "comm_max_words",
        "rounds",
        "module_rounds",
        "dram_words",
    )

    @staticmethod
    def _check(sys):
        from repro.pim.stats import PhaseCounters

        summed = PhaseCounters()
        for c in sys.stats.phases.values():
            summed.add(c)
        for f in TestPhaseSumInvariant.COUNTERS:
            assert getattr(sys.stats.total, f) == getattr(summed, f), f

    def test_mixed_workload_hypothesis(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        # Integer-valued charges keep float sums exact, so the invariant
        # can be asserted with ``==`` rather than approx.
        action = st.one_of(
            st.tuples(st.just("cpu"), st.integers(1, 50)),
            st.tuples(st.just("dram"), st.integers(1, 50)),
            st.tuples(st.just("flat"), st.integers(1, 50)),
            st.tuples(
                st.just("round"),
                st.lists(
                    st.tuples(
                        st.sampled_from(["pim", "send", "recv"]),
                        st.integers(0, 3),  # module id
                        st.integers(1, 40),  # amount
                        st.sampled_from(["p0", "p1", "p2"]),  # inner phase
                    ),
                    max_size=6,
                ),
            ),
        )

        @settings(max_examples=60, deadline=None)
        @given(
            script=st.lists(
                st.tuples(st.sampled_from(["p0", "p1", "p2"]), action),
                max_size=12,
            )
        )
        def run(script):
            sys = PIMSystem(4)
            for outer_phase, (kind, arg) in script:
                with sys.phase(outer_phase):
                    if kind == "cpu":
                        sys.charge_cpu(arg)
                    elif kind == "dram":
                        sys.dram_stream(arg)
                    elif kind == "flat":
                        sys.charge_comm_flat(arg)
                    else:  # round
                        with sys.round():
                            for verb, mid, amount, inner in arg:
                                with sys.phase(inner):
                                    sys.charge_sequence(KINDS[verb], [mid],
                                                        [amount])
            self._check(sys)

        run()

    def test_llc_misses_respect_invariant(self):
        sys = PIMSystem(2, llc_bytes=64 * 4)
        with sys.phase("scan"):
            sys.touch_cpu_blocks([("blk", i) for i in range(16)])
        with sys.phase("rescan"):
            sys.touch_cpu_blocks([("blk", i) for i in range(16)])
        self._check(sys)
