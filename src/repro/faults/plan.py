"""Seeded, deterministic fault schedules for the PIM simulator.

A :class:`FaultPlan` is a pure function of its construction arguments and
its own private RNG stream: two runs with the same plan arguments against
the same workload consume the RNG in the same order and therefore inject
byte-identical faults — the determinism the fault tests rely on.

The plan models the failure modes the UPMEM benchmarking studies report
on real hardware (per-DPU variance, transient faults, modules dropping
out mid-run):

* **module crashes** — scheduled explicitly (``crash_at``) or drawn per
  (module, round) at ``crash_rate``; a crashed module is decommissioned
  by the :class:`~repro.pim.PIMSystem` and every later charge addressed
  to it raises :class:`~repro.faults.ModuleFailure`;
* **straggler storms** — a static per-module ``slow_factors`` map plus
  transient storms (probability ``storm_rate`` per round) that multiply
  one module's PIM cycles by ``storm_factor`` for ``storm_rounds``
  rounds, inflating the BSP round's straggler max;
* **message drops** — each CPU↔PIM transfer is lost with probability
  ``drop_rate``, raising :class:`~repro.faults.MessageLoss` before the
  words are charged (the work already done in the round stands — wasted
  work is the cost of the retry).

Every injected event is recorded in :attr:`FaultPlan.events` and
forwarded by the simulator to an attached ``repro.obs`` collector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FaultEvent", "FaultPlan"]


@dataclass(slots=True)
class FaultEvent:
    """One injected fault, stamped with the BSP round it happened in."""

    kind: str  # "crash" | "drop" | "storm" | "machine_kill"
    mid: int  # module concerned
    round_index: int  # charged-round counter at injection time
    value: float  # words lost / slowdown factor / 0.0
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "mid": self.mid,
            "round": self.round_index,
            "value": float(self.value),
            "note": self.note,
        }


class FaultPlan:
    """Deterministic schedule of module crashes, storms and message drops."""

    def __init__(
        self,
        *,
        seed: int = 0,
        crash_at: dict[int, int] | None = None,
        crash_rate: float = 0.0,
        max_crashes: int | None = None,
        drop_rate: float = 0.0,
        slow_factors: dict[int, float] | None = None,
        storm_rate: float = 0.0,
        storm_factor: float = 8.0,
        storm_rounds: int = 4,
        machine_kill_at: int | None = None,
    ) -> None:
        for name, rate in (("crash_rate", crash_rate), ("drop_rate", drop_rate),
                           ("storm_rate", storm_rate)):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if storm_factor < 1.0:
            raise ValueError("storm_factor must be >= 1")
        if storm_rounds < 1:
            raise ValueError("storm_rounds must be >= 1")
        if slow_factors and any(f < 1.0 for f in slow_factors.values()):
            raise ValueError("slow_factors entries must be >= 1")
        if machine_kill_at is not None and machine_kill_at < 0:
            raise ValueError("machine_kill_at must be a round index >= 0")
        self.seed = int(seed)
        self.crash_at = {int(m): int(r) for m, r in (crash_at or {}).items()}
        self.crash_rate = float(crash_rate)
        self.max_crashes = None if max_crashes is None else int(max_crashes)
        self.drop_rate = float(drop_rate)
        self.slow_factors = {int(m): float(f) for m, f in (slow_factors or {}).items()}
        self.storm_rate = float(storm_rate)
        self.storm_factor = float(storm_factor)
        self.storm_rounds = int(storm_rounds)
        # Whole-machine kill: fires once when this many rounds have been
        # charged, tearing down host + modules (see MachineKill).  The
        # fired flag survives re-attachment to the recovered system, so a
        # restart does not immediately re-kill itself.
        self.machine_kill_at = (
            None if machine_kill_at is None else int(machine_kill_at)
        )
        self.machine_killed = False

        self._rng = np.random.default_rng(self.seed)
        self._storms: dict[int, int] = {}  # mid -> rounds of storm left
        # Cached per-module slowdown multiplier vector (see slow_vector);
        # invalidated whenever the storm set changes.
        self._slow_vec: np.ndarray | None = None
        self.crashed: set[int] = set()
        self.events: list[FaultEvent] = []
        # While paused (recovery / compensation paths) no new faults are
        # injected — the repair traffic runs over a reliable control path,
        # and pausing guarantees recovery terminates.
        self.paused = False

    # ------------------------------------------------------------------
    # hooks consulted by PIMSystem
    # ------------------------------------------------------------------
    def slow_vector(self, n: int) -> np.ndarray:
        """Length-``n`` cycle-multiplier vector, one entry per module.

        ``vec[mid]`` is the module's static factor, times
        ``storm_factor`` while a storm is on it (1.0 for a healthy
        module: multiplying by it is exact).  The vector is cached and
        rebuilt only when the storm set changes (storms mutate only at
        round close), keeping the charge path allocation-free between
        fault events.
        """
        vec = self._slow_vec
        if vec is None or vec.shape[0] != n:
            vec = np.ones(n, dtype=np.float64)
            for mid, f in self.slow_factors.items():
                if 0 <= mid < n:
                    vec[mid] = f
            for mid in self._storms:
                if 0 <= mid < n:
                    vec[mid] = (self.slow_factors.get(mid, 1.0)
                                * self.storm_factor)
            self._slow_vec = vec
        return vec

    def first_drop(self, n: int) -> int:
        """Roll ``n`` transfers for loss at once: the index of the first
        lost one, or ``n`` if none is.

        Each transfer is lost with probability ``drop_rate``, one
        ``random()`` draw per transfer up to and including the first
        loss: ``random(n)`` yields the doubles of ``n`` single
        ``random()`` calls, and after a loss the generator is rewound and
        re-advanced past that roll only.  Records nothing; the caller
        books the loss with :meth:`record_drop`.
        """
        if self.paused or self.drop_rate <= 0.0 or n == 0:
            return n
        bitgen = self._rng.bit_generator
        state = bitgen.state
        lost = np.flatnonzero(self._rng.random(n) < self.drop_rate)
        if not lost.size:
            return n
        j = int(lost[0])
        bitgen.state = state
        self._rng.random(j + 1)
        return j

    def record_drop(self, direction: str, mid: int, words: float,
                    round_index: int) -> FaultEvent:
        """Record one lost transfer; returns the event."""
        ev = FaultEvent("drop", mid, round_index, float(words), direction)
        self.events.append(ev)
        return ev

    def on_round_close(self, round_index: int,
                       live_mids: list[int]) -> list[FaultEvent]:
        """Advance the schedule after one charged BSP round.

        Returns the newly injected events; ``"crash"`` events must be
        applied by the caller (``PIMSystem.decommission``).
        """
        if self.paused:
            return []
        out: list[FaultEvent] = []
        # Storm decay.
        for mid in sorted(self._storms):
            left = self._storms[mid] - 1
            if left <= 0:
                del self._storms[mid]
                self._slow_vec = None
            else:
                self._storms[mid] = left
        # Scheduled crashes.
        for mid in sorted(self.crash_at):
            if (self.crash_at[mid] <= round_index and mid in live_mids
                    and mid not in self.crashed):
                out.append(self._crash(mid, round_index, "scheduled"))
        # Random crashes (bounded by max_crashes).
        if self.crash_rate > 0.0:
            for mid in live_mids:
                if mid in self.crashed:
                    continue
                if (self.max_crashes is not None
                        and len(self.crashed) >= self.max_crashes):
                    break
                if self._rng.random() < self.crash_rate:
                    out.append(self._crash(mid, round_index, "random"))
        # Whole-machine kill (fires once).
        if (self.machine_kill_at is not None and not self.machine_killed
                and round_index >= self.machine_kill_at):
            self.machine_killed = True
            out.append(FaultEvent("machine_kill", -1, round_index, 0.0,
                                  "scheduled"))
        # Straggler storms.
        if self.storm_rate > 0.0 and self._rng.random() < self.storm_rate:
            candidates = [m for m in live_mids if m not in self.crashed]
            if candidates:
                mid = candidates[int(self._rng.integers(len(candidates)))]
                self._storms[mid] = self.storm_rounds
                self._slow_vec = None
                out.append(FaultEvent("storm", mid, round_index,
                                      self.storm_factor,
                                      f"{self.storm_rounds} rounds"))
        self.events.extend(out)
        return out

    # ------------------------------------------------------------------
    def _crash(self, mid: int, round_index: int, note: str) -> FaultEvent:
        self.crashed.add(mid)
        return FaultEvent("crash", mid, round_index, 0.0, note)

    def summary(self) -> dict[str, int]:
        """Event counts by kind (for CLI / benchmark reporting)."""
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(seed={self.seed}, crashes={sorted(self.crashed)}, "
            f"events={len(self.events)})"
        )
