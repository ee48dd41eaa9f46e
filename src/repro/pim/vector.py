"""Array-backed per-module state: the simulator core.

:class:`VectorState` holds one NumPy array per per-module counter,
indexed by module id.  A round's charges accumulate per phase label:
one lazily created ``(3, n)`` array per label active in the round, rows
by charge kind (:data:`CHARGE_PIM`, :data:`CHARGE_SEND`,
:data:`CHARGE_RECV`), so a mixed sequence of charges books with one flat
index ``kind * n + mid``.  The round's per-module totals are the phase
arrays summed when it closes; the arrays are then dropped.

Every charge the simulator books is integer-valued (the contract the
vectorized exec layer already relies on), so float64 array sums are
exact and order-independent — the round bookings are byte-identical to
a sequential per-module accumulation (the oracle in
``tests/sim_oracle.py``).

Call sites outside ``repro.pim`` never see the arrays directly: they
read residency through ``PIMSystem.modules``, a list of
:class:`ModuleView` read views, one per module slot, which the balance
planner, introspection, snapshot and recovery use.  Words change only
through ``PIMSystem.add_residency`` (and ``decommission``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["VectorState", "ModuleView", "CHARGE_PIM", "CHARGE_SEND",
           "CHARGE_RECV"]

# Charge kinds: PIM cycles, a send (words CPU → module) or a recv (words
# module → CPU).  Each is the row a charge of that kind books
# into in a per-phase array.
CHARGE_PIM, CHARGE_SEND, CHARGE_RECV = 0, 1, 2


class VectorState:
    """All per-module counters of a ``PIMSystem`` as arrays of length P."""

    __slots__ = (
        "n",
        "capacity_words",
        "total_cycles",
        "master_words",
        "cache_words",
        "failed",
        "dirty",
        "round_phase_cycles",
        "round_phase_words",
        "views",
    )

    def __init__(self, n: int, capacity_words: int | None = None) -> None:
        self.n = int(n)
        # Per-module capacity (None = unlimited), a plain list so recovery
        # and the planner's tests can set a single module's budget.
        self.capacity_words: list = [capacity_words] * int(n)
        # Cumulative cycles of the closed rounds: a round adds its cycles
        # when it closes.
        self.total_cycles = np.zeros(n, dtype=np.float64)
        self.master_words = np.zeros(n, dtype=np.float64)
        self.cache_words = np.zeros(n, dtype=np.float64)
        self.failed = np.zeros(n, dtype=bool)
        # Modules touched this round.  A mask beats a Python set here:
        # marking 2048 modules is one fancy-index store, not 2048 hashes.
        self.dirty = np.zeros(n, dtype=bool)
        # The current round's charges: one (3, n) array per phase label,
        # rows by kind, created on the first charge under that label.
        # round_phase_cycles lists the labels in the order of their first
        # PIM charge, round_phase_words in the order of their first
        # transfer; a label with both is one array in both.
        self.round_phase_cycles: dict[str, np.ndarray] = {}
        self.round_phase_words: dict[str, np.ndarray] = {}
        self.views = [ModuleView(self, mid) for mid in range(self.n)]

    # -- per-round phase arrays ----------------------------------------
    def phase_cycles(self, phase: str) -> np.ndarray:
        """``phase``'s array, listed as a label with PIM cycles."""
        arr = self.round_phase_cycles.get(phase)
        if arr is None:
            arr = self.round_phase_words.get(phase)
            if arr is None:
                arr = np.zeros((3, self.n), dtype=np.float64)
            self.round_phase_cycles[phase] = arr
        return arr

    def phase_words(self, phase: str) -> np.ndarray:
        """``phase``'s array, listed as a label with transfers."""
        arr = self.round_phase_words.get(phase)
        if arr is None:
            arr = self.round_phase_cycles.get(phase)
            if arr is None:
                arr = np.zeros((3, self.n), dtype=np.float64)
            self.round_phase_words[phase] = arr
        return arr

    def round_charges(self, mids) -> tuple[list, np.ndarray]:
        """The round's labels and their charges so far, as a
        ``(labels, 3, len(mids))`` array: one slab per label, rows by
        kind, columns for modules ``mids``.  The labels with PIM cycles
        come first, in the order of their first PIM charge, then those
        with only transfers, in the order of their first transfer."""
        arrs = dict(self.round_phase_cycles)
        arrs.update(self.round_phase_words)
        if not arrs:  # only dropped transfers touched modules
            return [], np.zeros((0, 3, len(mids)), dtype=np.float64)
        return list(arrs), np.array([a[:, mids] for a in arrs.values()])

    def reset_round(self, mids: np.ndarray) -> None:
        """Drop the round's phase arrays; ``mids`` are its touched modules."""
        self.dirty[mids] = False
        self.round_phase_cycles = {}
        self.round_phase_words = {}


class ModuleView:
    """Read view of one module's slot in a VectorState."""

    __slots__ = ("_v", "mid")

    def __init__(self, state: VectorState, mid: int) -> None:
        self._v = state
        self.mid = mid

    @property
    def capacity_words(self):
        return self._v.capacity_words[self.mid]

    @capacity_words.setter
    def capacity_words(self, value) -> None:
        self._v.capacity_words[self.mid] = value

    @property
    def total_cycles(self) -> float:
        return float(self._v.total_cycles[self.mid])

    @property
    def failed(self) -> bool:
        return bool(self._v.failed[self.mid])

    @property
    def master_words(self) -> float:
        return float(self._v.master_words[self.mid])

    @property
    def cache_words(self) -> float:
        return float(self._v.cache_words[self.mid])

    @property
    def used_words(self) -> float:
        return float(
            self._v.master_words[self.mid] + self._v.cache_words[self.mid]
        )

    def over_capacity(self) -> bool:
        cap = self._v.capacity_words[self.mid]
        return cap is not None and self.used_words > cap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dead = ", FAILED" if self.failed else ""
        return (
            f"ModuleView(mid={self.mid}, cycles={self.total_cycles:.0f}, "
            f"master={self.master_words:.0f}w, cache={self.cache_words:.0f}w"
            f"{dead})"
        )
