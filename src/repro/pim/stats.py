"""Execution counters for the PIM Model simulator.

The PIM Model (Kang et al., SPAA'21) measures four quantities: CPU work,
CPU span, total CPU↔PIM communication (in words), and *PIM time* — the sum
over BSP rounds of the maximum per-module work in that round.  This module
defines the ledger the simulator books them into and the arithmetic
(snapshot / diff) the evaluation harness uses to isolate a measured phase
from warmup.

:class:`PIMStats` is an array ledger: one float64 matrix with a column per
counter (:data:`FIELDS`), row 0 for the total and one row per phase label,
in the order the labels were first booked.  A label gets its row when a
charge first books a counter to it, so a phase that was entered but never
charged has none.  Readers see read-only :class:`PhaseCounters`
materialised from the rows; writers (``repro.pim.model``) add into the
ledger's 1-D row views (``_views``), which :meth:`PIMStats.add_row`
rebuilds whenever it grows the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FIELDS", "PhaseCounters", "PIMStats"]

# Ledger columns, in PhaseCounters field order.
FIELDS = ("cpu_ops", "cpu_span", "pim_cycles", "comm_words",
          "comm_max_words", "rounds", "module_rounds", "dram_words")
(CPU_OPS, CPU_SPAN, PIM_CYCLES, COMM_WORDS, COMM_MAX_WORDS, ROUNDS,
 MODULE_ROUNDS, DRAM_WORDS) = range(len(FIELDS))


@dataclass
class PhaseCounters:
    """Counters attributed to one named phase (e.g. ``"search:l1"``).

    Equal to any ``PhaseCounters`` with the same values, read-only ledger
    rows included."""

    cpu_ops: float = 0.0
    cpu_span: float = 0.0
    pim_cycles: float = 0.0  # Σ over rounds of max per-module cycles
    comm_words: float = 0.0  # total CPU↔PIM words
    comm_max_words: float = 0.0  # Σ over rounds of max per-module words
    rounds: int = 0
    module_rounds: float = 0.0  # (module, round) pairs that moved data
    dram_words: float = 0.0  # CPU↔DRAM traffic from the LLC model

    @staticmethod
    def from_row(row: list) -> "PhaseCounters":
        """Read-only counters from one ledger row (a list of Python
        floats)."""
        c = object.__new__(_LedgerRow)
        d = c.__dict__
        d.update(zip(FIELDS, row))
        d["rounds"] = int(d["rounds"])
        return c

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseCounters):
            return NotImplemented
        return self.as_row() == other.as_row()

    def as_row(self) -> list:
        """The counters in ledger column order."""
        return [self.cpu_ops, self.cpu_span, self.pim_cycles, self.comm_words,
                self.comm_max_words, self.rounds, self.module_rounds,
                self.dram_words]

    def add(self, other: "PhaseCounters") -> None:
        self.cpu_ops += other.cpu_ops
        self.cpu_span += other.cpu_span
        self.pim_cycles += other.pim_cycles
        self.comm_words += other.comm_words
        self.comm_max_words += other.comm_max_words
        self.rounds += other.rounds
        self.module_rounds += other.module_rounds
        self.dram_words += other.dram_words

    def copy(self) -> "PhaseCounters":
        return PhaseCounters(
            self.cpu_ops,
            self.cpu_span,
            self.pim_cycles,
            self.comm_words,
            self.comm_max_words,
            self.rounds,
            self.module_rounds,
            self.dram_words,
        )

    def diff(self, earlier: "PhaseCounters") -> "PhaseCounters":
        return PhaseCounters(
            self.cpu_ops - earlier.cpu_ops,
            self.cpu_span - earlier.cpu_span,
            self.pim_cycles - earlier.pim_cycles,
            self.comm_words - earlier.comm_words,
            self.comm_max_words - earlier.comm_max_words,
            self.rounds - earlier.rounds,
            self.module_rounds - earlier.module_rounds,
            self.dram_words - earlier.dram_words,
        )

    def to_dict(self) -> dict:
        """Plain-dict form (determinism tests, CLI/JSON export)."""
        return {
            "cpu_ops": self.cpu_ops,
            "cpu_span": self.cpu_span,
            "pim_cycles": self.pim_cycles,
            "comm_words": self.comm_words,
            "comm_max_words": self.comm_max_words,
            "rounds": self.rounds,
            "module_rounds": self.module_rounds,
            "dram_words": self.dram_words,
        }


class _LedgerRow(PhaseCounters):
    """A ledger row materialised as :class:`PhaseCounters`.  It is a copy,
    so it refuses writes, which could not reach the ledger; ``copy()``
    gives a writable one."""

    def __setattr__(self, name, value) -> None:
        raise AttributeError(
            f"ledger counters are read-only: set {name!r} on a copy()")

    def __repr__(self) -> str:
        return repr(self.copy())


class PIMStats:
    """Aggregate counters for a whole simulated execution.

    ``total`` accumulates everything; ``phases`` splits the same quantities
    by the phase label active when they were charged (used for the Fig. 6
    runtime-breakdown reproduction).  Both are read-only copies of the
    ledger's rows: re-read them after a charge.
    """

    __slots__ = ("_m", "_rows", "_views", "mux_switches")
    __hash__ = None  # mutable

    def __init__(self) -> None:
        self._m = np.zeros((1, len(FIELDS)), dtype=np.float64)
        # label -> row, in first-booking order.  Replaced, never mutated,
        # when a row is added, so a snapshot can share it.
        self._rows: dict[str, int] = {}
        # One 1-D view per row of _m, for the writers: a scalar add into
        # a view costs about half an add into the matrix by (row, col).
        self._views = list(self._m)
        self.mux_switches = 0

    @classmethod
    def _of(cls, m: np.ndarray, rows: dict, mux_switches: int) -> "PIMStats":
        """A derived ledger (snapshot, diff).  It gets row views only if a
        row is added to it: nothing books into one."""
        out = cls.__new__(cls)
        out._m, out._rows, out.mux_switches = m, rows, mux_switches
        out._views = None
        return out

    def __getstate__(self):
        # Views would be copied (or pickled) as arrays of their own.
        return self._m, self._rows, self.mux_switches

    def __setstate__(self, state) -> None:
        self._m, self._rows, self.mux_switches = state
        self._views = list(self._m)

    # -- booking (repro.pim.model) ----------------------------------------
    def add_row(self, label: str) -> int:
        """``label``'s row, appended (zeroed) if it has none yet.  Adding
        one reallocates the matrix and so rebuilds the row views: a writer
        re-reads ``_views`` after any call that can add a row."""
        r = self._rows.get(label)
        if r is None:
            r = len(self._m)
            self._m = np.concatenate(
                (self._m, np.zeros((1, len(FIELDS)), dtype=np.float64)))
            self._rows = {**self._rows, label: r}
            self._views = list(self._m)
        return r

    # -- readers -------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """The ledger (read-only view): row 0 the total, then one row per
        label of :attr:`labels`."""
        view = self._m.view()
        view.flags.writeable = False
        return view

    @property
    def labels(self) -> tuple[str, ...]:
        """Phase labels in row order (first-booking order)."""
        return tuple(self._rows)

    @property
    def total(self) -> PhaseCounters:
        return PhaseCounters.from_row(self._m[0].tolist())

    @property
    def phases(self) -> dict[str, PhaseCounters]:
        rows = self._m.tolist()
        return {label: PhaseCounters.from_row(rows[r])
                for label, r in self._rows.items()}

    def phase(self, label: str) -> PhaseCounters:
        """``label``'s counters (zeros for a label never booked)."""
        r = self._rows.get(label)
        if r is None:
            return PhaseCounters.from_row([0.0] * len(FIELDS))
        return PhaseCounters.from_row(self._m[r].tolist())

    # -- arithmetic ----------------------------------------------------
    def snapshot(self) -> "PIMStats":
        return PIMStats._of(self._m.copy(), self._rows, self.mux_switches)

    def diff(self, earlier: "PIMStats") -> "PIMStats":
        """Counters booked since ``earlier``; phases in this ledger's row
        order, then any label only ``earlier`` has."""
        a, b = self._m, earlier._m
        mux = self.mux_switches - earlier.mux_switches
        rows, old = self._rows, earlier._rows
        if old is rows:  # no label was added since ``earlier``
            return PIMStats._of(a - b, rows, mux)
        labels = list(rows) + [k for k in old if k not in rows]
        d = np.zeros((1 + len(labels), len(FIELDS)), dtype=np.float64)
        d[0] = a[0] - b[0]
        for i, label in enumerate(labels, 1):
            ra, rb = rows.get(label), old.get(label)
            if ra is not None:
                d[i] = a[ra]
            if rb is not None:
                d[i] -= b[rb]
        return PIMStats._of(d, {k: i for i, k in enumerate(labels, 1)}, mux)

    def to_dict(self) -> dict:
        """Plain-dict form, phases sorted by label (byte-stable for a
        given execution — the determinism tests compare these directly)."""
        return {
            "total": self.total.to_dict(),
            "phases": {k: c.to_dict() for k, c in sorted(self.phases.items())},
            "mux_switches": self.mux_switches,
        }

    def __eq__(self, other) -> bool:
        if not hasattr(other, "to_dict") or not hasattr(other, "phases"):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (f"PIMStats(total={self.total!r}, phases={self.phases!r}, "
                f"mux_switches={self.mux_switches!r})")
