"""The scalar simulator core and ledger: the differential oracle for
``PIMSystem``.

``PIMSystem`` keeps every per-module counter in NumPy arrays
(``repro.pim.vector``), books every module charge through one call,
``charge_sequence``, and closes a BSP round with a few array reductions.
This module keeps the plainest form of the same machine, and the only
per-element booking code: one :class:`PIMModule` object per module,
charged one element at a time through ``charge_pim`` / ``send`` /
``recv`` — each with its own dead-module refusal, straggler lookup
(:func:`slow_factor`) and sequential drop roll (:func:`should_drop`) —
with the round booked by a Python scan over the touched modules.
:class:`ScalarPIMSystem` swaps that core into ``PIMSystem`` and inherits
everything else (phases, placement, fault schedule, tracing, broadcast),
so the two differ in the core alone.  Every charge is an integer, so both
must book byte-identical PIMStats — the property
``tests/test_sim_modes.py``, ``tests/test_differential_exec.py`` and the
other differential suites hold production to.

It books into :class:`OracleLedger`, the plainest form of the
``PIMStats`` ledger: one :class:`PhaseCounters` per phase label in a
dict, each counter a Python attribute added to one charge at a time, the
LLC touched one block at a time (``LRUCache.touch``).  Production's
``PIMStats`` is one float64 matrix booked by row; the two must agree on
``to_dict()``, ``diff()``, ``==`` and the harness's per-phase prices
(``tests/test_ledger.py``).  :func:`oracle_time` keeps the cost model's
scalar formula that ``PIMCostModel.price`` evaluates as arrays.

Inject it where the system is built, e.g.
``PIMZdTree(points, system=ScalarPIMSystem(P, seed=s))``; for adapters
and serving sessions, ``monkeypatch.setattr(repro.eval.harness,
"PIMSystem", ScalarPIMSystem)``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.faults.errors import FaultError, MachineKill, MessageLoss, ModuleFailure
from repro.pim import CHARGE_PIM, CHARGE_RECV, CHARGE_SEND, PIMSystem
from repro.pim.cost_model import WORD_BYTES, SimTime
from repro.pim.stats import PhaseCounters

__all__ = ["OracleLedger", "PIMModule", "ScalarPIMSystem", "oracle_phase_prices",
           "oracle_time", "oracle_traffic_bytes", "should_drop", "slow_factor"]

_WORDS_PER_BLOCK = 8


@dataclass(eq=False)
class OracleLedger:
    """The ``PIMStats`` ledger as one ``PhaseCounters`` per phase label.

    ``phases`` is in first-booking order (dict insertion order); a label
    gets its entry from :meth:`phase` on its first booking.
    """

    total: PhaseCounters = field(default_factory=PhaseCounters)
    phases: dict[str, PhaseCounters] = field(default_factory=dict)
    mux_switches: int = 0

    def phase(self, label: str) -> PhaseCounters:
        if label not in self.phases:
            self.phases[label] = PhaseCounters()
        return self.phases[label]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.phases)

    @property
    def matrix(self) -> np.ndarray:
        """The counters as production's ledger matrix (row 0 the total)."""
        return np.array([c.as_row() for c in (self.total,
                                              *self.phases.values())],
                        dtype=np.float64)

    def snapshot(self) -> "OracleLedger":
        snap = OracleLedger(total=self.total.copy(),
                            mux_switches=self.mux_switches)
        snap.phases = {k: v.copy() for k, v in self.phases.items()}
        return snap

    def diff(self, earlier: "OracleLedger") -> "OracleLedger":
        """Phases in this ledger's order, then labels only ``earlier`` has."""
        out = OracleLedger(
            total=self.total.diff(earlier.total),
            mux_switches=self.mux_switches - earlier.mux_switches,
        )
        labels = list(self.phases)
        labels += [k for k in earlier.phases if k not in self.phases]
        for label in labels:
            a = self.phases.get(label, PhaseCounters())
            b = earlier.phases.get(label, PhaseCounters())
            out.phases[label] = a.diff(b)
        return out

    def to_dict(self) -> dict:
        return {
            "total": self.total.to_dict(),
            "phases": {k: self.phases[k].to_dict() for k in sorted(self.phases)},
            "mux_switches": self.mux_switches,
        }

    def __eq__(self, other) -> bool:
        if not hasattr(other, "to_dict") or not hasattr(other, "phases"):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    __hash__ = None


def oracle_time(cm, c: PhaseCounters) -> SimTime:
    """``PIMCostModel``'s time formula, one phase at a time in Python."""
    compute_s = c.cpu_ops / (cm.cpu_freq_hz * cm.cpu_threads * cm.cpu_ipc)
    dram_s = c.dram_words * WORD_BYTES / cm.dram_bw_bytes_s
    cpu_s = max(compute_s, dram_s)

    pim_s = c.pim_cycles / cm.pim_freq_hz

    words = c.comm_words * cm.word_multiplier
    max_words = c.comm_max_words * cm.word_multiplier
    bus_s = words * WORD_BYTES / cm.pim_bus_bw_bytes_s
    link_s = max_words * WORD_BYTES / cm.pim_module_link_bw_bytes_s
    dma = cm.dma_setup_direct_s if cm.direct_api else cm.dma_setup_sdk_s
    comm_s = (
        max(bus_s, link_s)
        + c.rounds * cm.round_overhead_s
        + c.module_rounds * dma
    )
    return SimTime(cpu_s, pim_s, comm_s)


def oracle_traffic_bytes(cm, c: PhaseCounters) -> float:
    return (c.comm_words * cm.word_multiplier + c.dram_words) * WORD_BYTES


def oracle_phase_prices(delta, cm) -> dict:
    """The harness's ``OpMeasurement.phases`` for a delta ledger: each
    phase priced on its own, kept if its time is positive."""
    out = {}
    for label, c in delta.phases.items():
        pt = oracle_time(cm, c)
        if pt.total_s > 0:
            out[label] = {"cpu_s": pt.cpu_s, "pim_s": pt.pim_s,
                          "comm_s": pt.comm_s}
    return out


def slow_factor(plan, mid: int) -> float:
    """Cycle multiplier ``plan`` puts on module ``mid``: its static
    factor, times ``storm_factor`` while a storm is on it."""
    f = plan.slow_factors.get(mid, 1.0)
    if plan._storms and mid in plan._storms:
        f *= plan.storm_factor
    return f


def should_drop(plan, direction: str, mid: int, words: float,
                round_index: int):
    """Roll one transfer for loss: one ``random()`` draw unless ``plan``
    is paused or drop-free; records and returns the event, or ``None``."""
    if plan.paused or plan.drop_rate <= 0.0:
        return None
    if plan._rng.random() >= plan.drop_rate:
        return None
    return plan.record_drop(direction, mid, words, round_index)


class PIMModule:
    """Accounting state of one PIM module."""

    __slots__ = (
        "mid",
        "capacity_words",
        "total_cycles",
        "round_cycles",
        "round_send_words",
        "round_recv_words",
        "round_phase_cycles",
        "round_phase_words",
        "master_words",
        "cache_words",
        "failed",
    )

    def __init__(self, mid: int, capacity_words: int | None = None) -> None:
        self.mid = mid
        self.capacity_words = capacity_words
        self.failed = False
        self.total_cycles = 0.0
        self.round_cycles = 0.0
        self.round_send_words = 0.0
        self.round_recv_words = 0.0
        # Charge-time phase attribution within the current round:
        # sum(round_phase_cycles.values()) == round_cycles and
        # sum(round_phase_words.values()) == round_words.
        self.round_phase_cycles: dict[str, float] = {}
        self.round_phase_words: dict[str, float] = {}
        self.master_words = 0.0
        self.cache_words = 0.0

    def charge(self, cycles: float, phase: str) -> None:
        self.round_cycles += cycles
        self.total_cycles += cycles
        d = self.round_phase_cycles
        d[phase] = d.get(phase, 0.0) + cycles

    def add_recv(self, words: float, phase: str) -> None:
        """Words arriving CPU → module in the current round."""
        self.round_recv_words += words
        d = self.round_phase_words
        d[phase] = d.get(phase, 0.0) + words

    def add_send(self, words: float, phase: str) -> None:
        """Words leaving module → CPU in the current round."""
        self.round_send_words += words
        d = self.round_phase_words
        d[phase] = d.get(phase, 0.0) + words

    def begin_round(self) -> None:
        self.round_cycles = 0.0
        self.round_send_words = 0.0
        self.round_recv_words = 0.0
        self.round_phase_cycles = {}
        self.round_phase_words = {}

    @property
    def round_words(self) -> float:
        return self.round_send_words + self.round_recv_words

    @property
    def used_words(self) -> float:
        return self.master_words + self.cache_words

    def over_capacity(self) -> bool:
        return (self.capacity_words is not None
                and self.used_words > self.capacity_words)


class ScalarPIMSystem(PIMSystem):
    """``PIMSystem`` over per-module objects, charged element by element,
    booking into an :class:`OracleLedger`."""

    def __init__(self, n_modules: int, *, module_capacity_words=None,
                 **kw) -> None:
        super().__init__(n_modules, module_capacity_words=module_capacity_words,
                         **kw)
        self._vec = None
        self.stats = OracleLedger()
        self.modules = [PIMModule(mid, module_capacity_words)
                        for mid in range(self.n_modules)]
        self._round_dirty: set[int] = set()
        # The round's labels in the order of their first PIM charge and
        # of their first transfer (dicts as ordered sets).
        self._round_cycle_labels: dict[str, None] = {}
        self._round_word_labels: dict[str, None] = {}

    # -- phases ----------------------------------------------------------
    @contextmanager
    def phase(self, label: str, *, pin: bool = False):
        if self._pin_depth and not pin:
            yield
            return
        outer = self._phase
        self._phase = label
        if pin:
            self._pin_depth += 1
        try:
            yield
        finally:
            self._phase = outer
            if pin:
                self._pin_depth -= 1

    # -- CPU side --------------------------------------------------------
    def charge_cpu(self, ops: float, span: float = 0.0) -> None:
        phase = self.current_phase
        t = self.stats.total
        t.cpu_ops += ops
        t.cpu_span += span
        p = self.stats.phase(phase)
        p.cpu_ops += ops
        p.cpu_span += span
        if self._trace is not None:
            self._trace.on_cpu(phase, ops, span)

    def touch_cpu_blocks(self, block_ids) -> None:
        touch = self.llc.touch
        misses = 0
        for b in block_ids:
            if not touch(b):
                misses += 1
        if misses:
            words = misses * _WORDS_PER_BLOCK
            phase = self.current_phase
            self.stats.total.dram_words += words
            self.stats.phase(phase).dram_words += words
            if self._trace is not None:
                self._trace.on_dram(phase, words, streamed=False)

    def dram_stream(self, words: float) -> None:
        phase = self.current_phase
        self.llc.streamed_words += int(words)
        self.stats.total.dram_words += words
        self.stats.phase(phase).dram_words += words
        if self._trace is not None:
            self._trace.on_dram(phase, words, streamed=True)

    def charge_comm_flat(self, words: float) -> None:
        if words <= 0:
            return
        phase = self.current_phase
        max_words = words / self.n_live
        for counters in (self.stats.total, self.stats.phase(phase)):
            counters.comm_words += words
            counters.comm_max_words += max_words
        if self._trace is not None:
            self._trace.on_comm_flat(phase, words, max_words)

    # -- rounds ----------------------------------------------------------
    @contextmanager
    def round(self):
        if self._in_round:
            raise RuntimeError("BSP rounds cannot nest")
        if self._machine_dead:
            raise MachineKill(self._rounds_charged)
        self._in_round = True
        self._round_dirty.clear()
        self._round_cycle_labels = {}
        self._round_word_labels = {}
        self._round_entry_phase = self.current_phase
        try:
            yield
        finally:
            self._in_round = False
            if self._round_dirty:
                self._close_round(sorted(self._round_dirty))

    def _book_round(self, mids) -> None:
        dirty = [self.modules[mid] for mid in mids]
        straggler = dirty[0]
        max_words_module = None
        max_cycles = 0.0
        max_words = 0.0
        total_words = 0.0
        module_rounds = 0
        for m in dirty:
            if m.round_cycles > max_cycles:
                max_cycles = m.round_cycles
                straggler = m
            w = m.round_words
            total_words += w
            if w > 0:
                module_rounds += 1
            if w > max_words:
                max_words = w
                max_words_module = m

        t = self.stats.total
        t.pim_cycles += max_cycles
        t.comm_words += total_words
        t.comm_max_words += max_words
        t.rounds += 1
        t.module_rounds += module_rounds
        # The straggler's cycles split by the phases it was charged under;
        # comm by each word's phase; the bottleneck-link max by the
        # bottleneck module's phases; round scalars go to the entry phase.
        # Labels are visited in the order of their first PIM charge (for
        # cycles) or first transfer (for words) in the round, so labels
        # first booked at this close get their buckets in that order.
        for ph in self._round_cycle_labels:
            cyc = straggler.round_phase_cycles.get(ph)
            if cyc:
                self.stats.phase(ph).pim_cycles += cyc
        for ph in self._round_word_labels:
            for m in dirty:
                w = m.round_phase_words.get(ph)
                if w:
                    self.stats.phase(ph).comm_words += w
        if max_words_module is not None:
            for ph in self._round_word_labels:
                w = max_words_module.round_phase_words.get(ph)
                if w:
                    self.stats.phase(ph).comm_max_words += w
        entry = self.stats.phase(self._round_entry_phase)
        entry.rounds += 1
        entry.module_rounds += module_rounds
        self.stats.mux_switches += 2

        if self._trace is not None:
            from repro.obs.trace import RoundRecord

            self._trace.on_round(
                RoundRecord(
                    index=self._rounds_charged,
                    entry_phase=self._round_entry_phase,
                    straggler_mid=straggler.mid,
                    max_cycles=max_cycles,
                    total_words=total_words,
                    max_words=max_words,
                    max_words_mid=(
                        max_words_module.mid if max_words_module is not None
                        else -1
                    ),
                    module_rounds=module_rounds,
                    touched=len(dirty),
                    cycles_by_module={m.mid: m.round_cycles for m in dirty},
                    words_by_module={m.mid: m.round_words for m in dirty},
                    pim_cycles_by_phase=dict(straggler.round_phase_cycles),
                    phase_words_by_module={
                        m.mid: dict(m.round_phase_words) for m in dirty
                    },
                    comm_max_words_by_phase=(
                        dict(max_words_module.round_phase_words)
                        if max_words_module is not None
                        else {}
                    ),
                )
            )
        for m in dirty:
            m.begin_round()

    # -- charging --------------------------------------------------------
    def _module_in_round(self, mid: int) -> PIMModule:
        if not self._in_round:
            raise RuntimeError("PIM activity is only legal inside a BSP round")
        if self._dead and mid in self._dead:
            raise ModuleFailure(mid)
        self._round_dirty.add(mid)
        return self.modules[mid]

    def _check_drop(self, direction: str, mid: int, words: float) -> None:
        ev = should_drop(self._faults, direction, mid, words,
                         self._rounds_charged)
        if ev is not None:
            self._notify_fault(ev)
            raise MessageLoss(mid, direction, words)

    def charge_pim(self, mid: int, cycles: float) -> None:
        if not cycles:
            return
        phase = self.current_phase
        m = self._module_in_round(mid)
        if self._faults is not None:
            f = slow_factor(self._faults, mid)
            if f != 1.0:
                cycles = cycles * f
        m.charge(cycles, phase)
        self._round_cycle_labels[phase] = None
        if self._trace is not None:
            self._trace.on_pim(phase, mid, cycles)

    def send(self, mid: int, words: float) -> None:
        if not words:
            return
        phase = self.current_phase
        m = self._module_in_round(mid)
        if self._faults is not None:
            self._check_drop("send", mid, words)
        m.add_recv(words, phase)
        self._round_word_labels[phase] = None
        if self._trace is not None:
            self._trace.on_send(phase, mid, words)

    def recv(self, mid: int, words: float) -> None:
        if not words:
            return
        phase = self.current_phase
        m = self._module_in_round(mid)
        if self._faults is not None:
            self._check_drop("recv", mid, words)
        m.add_send(words, phase)
        self._round_word_labels[phase] = None
        if self._trace is not None:
            self._trace.on_recv(phase, mid, words)

    def charge_sequence(self, kinds, mids, amounts) -> None:
        """One scalar call per element, in order; a fault names the
        element it stopped at, as production's ``charge_index`` does."""
        mids = np.asarray(mids, dtype=np.intp)
        amounts = np.broadcast_to(np.asarray(amounts, dtype=np.float64),
                                  mids.shape)
        kinds = np.broadcast_to(np.asarray(kinds, dtype=np.intp), mids.shape)
        calls = {CHARGE_PIM: self.charge_pim, CHARGE_SEND: self.send,
                 CHARGE_RECV: self.recv}
        for i, (kind, mid, amount) in enumerate(zip(
                kinds.tolist(), mids.tolist(), amounts.tolist())):
            try:
                calls[kind](mid, amount)
            except FaultError as e:
                e.charge_index = i
                raise

    # -- residency -------------------------------------------------------
    def decommission(self, mid: int) -> None:
        mid = int(mid)
        if mid in self._dead:
            return
        if self.n_live <= 1:
            raise RuntimeError("cannot decommission the last live module")
        self._dead.add(mid)
        self._live.remove(mid)
        m = self.modules[mid]
        m.failed = True
        m.master_words = 0.0
        m.cache_words = 0.0
        self.residency_epoch += 1

    def add_residency(self, mids, master, cache) -> None:
        mids = np.asarray(mids, dtype=np.intp)
        if not mids.size:
            return
        watched: list = []
        if self._capacity_watch:
            watched = [(mid, self.modules[mid].used_words)
                       for mid in np.unique(mids).tolist()
                       if self.modules[mid].capacity_words is not None]
        for mid, dm, dc in zip(mids.tolist(), np.asarray(master).tolist(),
                               np.asarray(cache).tolist()):
            m = self.modules[mid]
            m.master_words += dm
            m.cache_words += dc
        for mid, before in watched:
            m = self.modules[mid]
            if before <= m.capacity_words < m.used_words:
                self._capacity_pressure(m)

    # -- readers ---------------------------------------------------------
    def master_words(self) -> float:
        return sum(m.master_words for m in self.modules)

    def cache_words(self) -> float:
        return sum(m.cache_words for m in self.modules)

    def used_words(self) -> float:
        return sum(m.used_words for m in self.modules)

    def module_loads(self) -> np.ndarray:
        return np.array([m.total_cycles for m in self.modules])

    def residency(self) -> np.ndarray:
        return np.array([m.used_words for m in self.modules])

    def residency_split(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([m.master_words for m in self.modules]),
                np.array([m.cache_words for m in self.modules]))
