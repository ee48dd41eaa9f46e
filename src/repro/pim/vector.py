"""Array-backed per-module state: the vector simulator core.

``sim_mode="vector"`` replaces the P ``PIMModule`` objects with a single
:class:`VectorState` holding one NumPy array per counter, indexed by
module id.  Per-round phase attribution keeps the same charge-time
semantics as the scalar path: one lazily created float64 array per phase
label active in the current round (``round_phase_cycles`` /
``round_phase_words``), cleared at round close.

Every charge the simulator books is integer-valued (the contract the
vectorized exec layer already relies on), so float64 array sums are
exact and order-independent — the vector core's round bookings are
byte-identical to the scalar oracle's sequential accumulation.

Call sites outside ``repro.pim`` never see the arrays directly: they
read and mutate residency through ``PIMSystem.modules``, which in vector
mode is a list of :class:`ModuleView` proxies whose attributes are
views onto the shared arrays.  The proxy implements the full
``PIMModule`` surface (residency alloc/free with the same clamp
semantics, capacity pressure, ``failed``, the round accumulators), so
the balance planner, introspection and decommissioning run unchanged in
either mode.  The tree's residency upkeep writes through
``PIMSystem.add_residency`` instead, one array add per refresh.
"""

from __future__ import annotations

import numpy as np

from .module import _checked_free

__all__ = ["VectorState", "ModuleView"]


class VectorState:
    """All per-module counters of a ``PIMSystem`` as arrays of length P."""

    __slots__ = (
        "n",
        "capacity_words",
        "pressure_cb",
        "total_cycles",
        "round_cycles",
        "round_send_words",
        "round_recv_words",
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
        # Per-module capacity (None = unlimited), a plain list so tests
        # and the planner can override a single module's budget exactly
        # as they would set PIMModule.capacity_words.
        self.capacity_words: list = [capacity_words] * int(n)
        self.pressure_cb = None  # set by the owning PIMSystem
        self.total_cycles = np.zeros(n, dtype=np.float64)
        self.round_cycles = np.zeros(n, dtype=np.float64)
        self.round_send_words = np.zeros(n, dtype=np.float64)
        self.round_recv_words = np.zeros(n, dtype=np.float64)
        self.master_words = np.zeros(n, dtype=np.float64)
        self.cache_words = np.zeros(n, dtype=np.float64)
        self.failed = np.zeros(n, dtype=bool)
        # Modules touched by the *array* entry points this round (the
        # scalar entry points keep using PIMSystem._round_dirty); the
        # round close unions the two.  A mask beats a Python set here:
        # marking 2048 modules is one fancy-index store, not 2048 hashes.
        self.dirty = np.zeros(n, dtype=bool)
        # Charge-time phase attribution for the current round: one array
        # per phase label, created on first charge under that label.
        self.round_phase_cycles: dict[str, np.ndarray] = {}
        self.round_phase_words: dict[str, np.ndarray] = {}
        self.views = [ModuleView(self, mid) for mid in range(self.n)]

    # -- per-round phase arrays ----------------------------------------
    def phase_cycles(self, phase: str) -> np.ndarray:
        arr = self.round_phase_cycles.get(phase)
        if arr is None:
            arr = np.zeros(self.n, dtype=np.float64)
            self.round_phase_cycles[phase] = arr
        return arr

    def phase_words(self, phase: str) -> np.ndarray:
        arr = self.round_phase_words.get(phase)
        if arr is None:
            arr = np.zeros(self.n, dtype=np.float64)
            self.round_phase_words[phase] = arr
        return arr

    def reset_round(self, mids: np.ndarray) -> None:
        """Clear the round accumulators of the modules in ``mids``."""
        self.round_cycles[mids] = 0.0
        self.round_send_words[mids] = 0.0
        self.round_recv_words[mids] = 0.0
        self.dirty[mids] = False
        self.round_phase_cycles.clear()
        self.round_phase_words.clear()


class ModuleView:
    """``PIMModule``-compatible proxy over one slot of a VectorState."""

    __slots__ = ("_v", "mid")

    def __init__(self, state: VectorState, mid: int) -> None:
        self._v = state
        self.mid = mid

    # -- counters -------------------------------------------------------
    @property
    def capacity_words(self):
        return self._v.capacity_words[self.mid]

    @capacity_words.setter
    def capacity_words(self, value) -> None:
        self._v.capacity_words[self.mid] = value

    @property
    def total_cycles(self) -> float:
        return float(self._v.total_cycles[self.mid])

    @total_cycles.setter
    def total_cycles(self, value: float) -> None:
        self._v.total_cycles[self.mid] = value

    @property
    def round_cycles(self) -> float:
        return float(self._v.round_cycles[self.mid])

    @round_cycles.setter
    def round_cycles(self, value: float) -> None:
        self._v.round_cycles[self.mid] = value

    @property
    def round_send_words(self) -> float:
        return float(self._v.round_send_words[self.mid])

    @round_send_words.setter
    def round_send_words(self, value: float) -> None:
        self._v.round_send_words[self.mid] = value

    @property
    def round_recv_words(self) -> float:
        return float(self._v.round_recv_words[self.mid])

    @round_recv_words.setter
    def round_recv_words(self, value: float) -> None:
        self._v.round_recv_words[self.mid] = value

    @property
    def round_words(self) -> float:
        return float(
            self._v.round_send_words[self.mid]
            + self._v.round_recv_words[self.mid]
        )

    @property
    def failed(self) -> bool:
        return bool(self._v.failed[self.mid])

    @failed.setter
    def failed(self, value: bool) -> None:
        self._v.failed[self.mid] = bool(value)

    @property
    def pressure_cb(self):
        return self._v.pressure_cb

    @pressure_cb.setter
    def pressure_cb(self, cb) -> None:
        self._v.pressure_cb = cb

    # -- execution ------------------------------------------------------
    def charge(self, cycles: float, phase: str = "other") -> None:
        v, mid = self._v, self.mid
        v.round_cycles[mid] += cycles
        v.total_cycles[mid] += cycles
        v.phase_cycles(phase)[mid] += cycles

    def add_recv(self, words: float, phase: str = "other") -> None:
        v, mid = self._v, self.mid
        v.round_recv_words[mid] += words
        v.phase_words(phase)[mid] += words

    def add_send(self, words: float, phase: str = "other") -> None:
        v, mid = self._v, self.mid
        v.round_send_words[mid] += words
        v.phase_words(phase)[mid] += words

    # -- memory residency -----------------------------------------------
    @property
    def master_words(self) -> float:
        return float(self._v.master_words[self.mid])

    @master_words.setter
    def master_words(self, value: float) -> None:
        self._v.master_words[self.mid] = value

    @property
    def cache_words(self) -> float:
        return float(self._v.cache_words[self.mid])

    @cache_words.setter
    def cache_words(self, value: float) -> None:
        self._v.cache_words[self.mid] = value

    @property
    def used_words(self) -> float:
        return float(
            self._v.master_words[self.mid] + self._v.cache_words[self.mid]
        )

    def alloc_master(self, words: float) -> None:
        self._v.master_words[self.mid] += words
        if self._v.capacity_words[self.mid] is not None:
            self._check_pressure(words)

    def free_master(self, words: float) -> None:
        self.master_words = _checked_free(
            self.master_words, words, self.mid, "master"
        )

    def alloc_cache(self, words: float) -> None:
        self._v.cache_words[self.mid] += words
        if self._v.capacity_words[self.mid] is not None:
            self._check_pressure(words)

    def free_cache(self, words: float) -> None:
        self.cache_words = _checked_free(
            self.cache_words, words, self.mid, "cache"
        )

    def _check_pressure(self, delta: float) -> None:
        # Same onset semantics as PIMModule._check_pressure: only the
        # allocation that crosses capacity fires the callback.
        v = self._v
        cap = v.capacity_words[self.mid]
        if (v.pressure_cb is not None
                and self.used_words > cap
                and self.used_words - delta <= cap):
            v.pressure_cb(self)

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
