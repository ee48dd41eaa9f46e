"""Online self-tuning: phase-boundary adaptation of whitelisted knobs.

:class:`OnlineController` is the online variant of the tuner.  The serve
loop hands it control **between batches only** — the simulator's rounds
are globally synchronised, so "between batches" is exactly "never
mid-round" — and once per *phase* (a fixed window of ``window`` dispatched
batches) it reads the run's own observability state (queue fill, the
rebalancer's hotness-EWMA imbalance, the route filters' measured
false-positive share — all of it derived from the same counters the
``repro.obs`` timeline exports) and nudges at most one value per
whitelisted knob.

The whitelist is closed: only ``batch.overhead_target``,
``rebalance.budget_fraction`` and ``route.fpr`` are adaptable — the knobs
whose live mutation is semantics-free (batch sizing and budget gating
change *when* work happens, never its answers; an FPR change rebuilds the
filters bit-deterministically from residency).  Structural knobs (replica
count, rebalance thresholds, push-pull trigger) stay offline-only.

Reproducibility rules:

* **Hysteresis** — each signal has a dead band (``*_hi`` / ``*_lo``);
  inside it the knob holds.  A changed knob then *cools down* for
  ``cooldown`` phases before it may move again, so the controller cannot
  oscillate against its own effect.
* **Determinism** — every signal is a pure function of virtual-clock
  state; no wall clock, no randomness.  Two identical runs adapt
  identically.
* **Inertness** — an empty whitelist makes :attr:`active` false and the
  loop never calls in; with a whitelist but no tripped signal the adapt
  call performs no charged work, so the measured step is zero simulated
  seconds and the clock does not move.

Every decision is recorded in :attr:`history` and summarised by
:meth:`audit`, which the loop attaches to ``LatencyStats.config`` so an
adapted run is auditable after the fact.
"""

from __future__ import annotations

import dataclasses

from .space import ConfigSpace, default_space

__all__ = ["WHITELIST_DEFAULT", "ADAPTABLE_KNOBS", "OnlineController"]

# The closed set of knobs the online controller may touch, and the
# shipped whitelist (all of them).
ADAPTABLE_KNOBS = (
    "batch.overhead_target",
    "rebalance.budget_fraction",
    "route.fpr",
)
WHITELIST_DEFAULT = ADAPTABLE_KNOBS


class OnlineController:
    """Phase-boundary knob adaptation with hysteresis (see module doc).

    Parameters
    ----------
    whitelist:
        Subset of :data:`ADAPTABLE_KNOBS` the controller may move.  An
        empty whitelist is a valid, fully inert controller.
    window:
        Batches per phase; adaptation runs only at phase boundaries.
    cooldown:
        Phases a just-moved knob must hold before moving again.
    queue_hi / queue_lo:
        Queue-fill dead band for ``batch.overhead_target`` (fill above
        ``hi`` → lower the target → bigger batches; below ``lo`` → raise
        it back toward latency).
    imbalance_hi / imbalance_lo:
        Max/mean EWMA-heat dead band for ``rebalance.budget_fraction``.
    fp_hi / fp_lo:
        Observed-vs-target false-positive ratio dead band for
        ``route.fpr`` (observed share > ``fp_hi``× target → tighten).
    min_probes:
        Minimum new filter probes in a phase before the FP share is
        considered meaningful.
    """

    def __init__(self, *, whitelist: tuple[str, ...] = WHITELIST_DEFAULT,
                 window: int = 32, cooldown: int = 2,
                 queue_hi: float = 0.5, queue_lo: float = 0.05,
                 imbalance_hi: float = 2.0, imbalance_lo: float = 1.2,
                 fp_hi: float = 2.0, fp_lo: float = 0.25,
                 min_probes: int = 64,
                 space: ConfigSpace | None = None) -> None:
        unknown = sorted(set(whitelist) - set(ADAPTABLE_KNOBS))
        if unknown:
            raise ValueError(
                f"non-adaptable knob(s) in whitelist: {', '.join(unknown)} "
                f"(adaptable: {', '.join(ADAPTABLE_KNOBS)})")
        if window < 1:
            raise ValueError("window must be >= 1 batch")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0 phases")
        if not queue_lo < queue_hi or not imbalance_lo < imbalance_hi:
            raise ValueError("dead bands need lo < hi")
        self.space = space if space is not None else default_space()
        self.whitelist = tuple(whitelist)
        self.window = int(window)
        self.cooldown = int(cooldown)
        self.queue_hi = float(queue_hi)
        self.queue_lo = float(queue_lo)
        self.imbalance_hi = float(imbalance_hi)
        self.imbalance_lo = float(imbalance_lo)
        self.fp_hi = float(fp_hi)
        self.fp_lo = float(fp_lo)
        self.min_probes = int(min_probes)
        self.history: list[dict] = []
        self.phases = 0
        self._next_at = self.window
        self._cooling: dict[str, int] = {}   # knob -> phase it last moved
        self._probe_base = (0, 0)            # (probes, fp) at last FP read

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """False iff the whitelist is empty (the loop then never calls)."""
        return bool(self.whitelist)

    def due(self, n_batches: int) -> bool:
        """Is a phase boundary due after ``n_batches`` dispatches?"""
        return self.active and n_batches >= self._next_at

    def _may_move(self, knob: str) -> bool:
        last = self._cooling.get(knob)
        return last is None or self.phases - last > self.cooldown

    def _record(self, knob: str, old, new, signal: float, why: str) -> None:
        self._cooling[knob] = self.phases
        self.history.append({
            "phase": self.phases, "knob": knob, "old": old, "new": new,
            "signal": round(float(signal), 6), "why": why,
        })

    # ------------------------------------------------------------------
    def adapt(self, loop) -> int:
        """One phase boundary: read signals, move tripped knobs.

        Called by the serve loop inside ``adapter.measure`` — any charged
        work (the FPR rebuild) lands on the virtual clock like rebalance
        and checkpoint steps do.  Returns the number of knobs moved.
        """
        self.phases += 1
        self._next_at += self.window
        moved = 0
        if "batch.overhead_target" in self.whitelist:
            moved += self._adapt_batch_target(loop)
        if "rebalance.budget_fraction" in self.whitelist:
            moved += self._adapt_rebalance_budget(loop)
        if "route.fpr" in self.whitelist:
            moved += self._adapt_route_fpr(loop)
        return moved

    # -- batch.overhead_target -----------------------------------------
    def _adapt_batch_target(self, loop) -> int:
        policy = loop.policy
        if not hasattr(policy, "overhead_target"):
            return 0  # fixed policy: nothing to adapt
        knob = self.space.by_name["batch.overhead_target"]
        if not self._may_move(knob.name):
            return 0
        fill = len(loop.queue) / loop.queue.depth
        cur = float(policy.overhead_target)
        if fill >= self.queue_hi:
            # Backlog: spend less of each batch on fixed overhead —
            # lower target f means larger B* and higher goodput.
            new = knob.clamp(cur / knob.step)
            why = "queue-fill high"
        elif fill <= self.queue_lo:
            # Idle: drift back toward the latency-lean default.
            new = min(knob.clamp(cur * knob.step), float(knob.default))
            why = "queue-fill low"
        else:
            return 0
        if new == cur:
            return 0
        policy.overhead_target = new
        self._record(knob.name, cur, new, fill, why)
        return 1

    # -- rebalance.budget_fraction -------------------------------------
    def _adapt_rebalance_budget(self, loop) -> int:
        reb = loop.rebalancer
        if reb is None:
            return 0
        knob = self.space.by_name["rebalance.budget_fraction"]
        if not self._may_move(knob.name):
            return 0
        ratio = float(reb.tracker.imbalance()["max_mean_ratio"])
        cur = float(reb.config.budget_fraction)
        if ratio >= self.imbalance_hi:
            new = knob.clamp(cur * knob.step)
            why = "imbalance high"
        elif ratio <= self.imbalance_lo:
            new = knob.clamp(cur / knob.step)
            why = "imbalance low"
        else:
            return 0
        if new == cur:
            return 0
        cfg = dataclasses.replace(reb.config, budget_fraction=new)
        reb.config = cfg
        # The planner shares the config object; keep it the same value
        # (budget_fraction is loop-side, but aliasing surprises nobody).
        if hasattr(reb, "planner") and hasattr(reb.planner, "config"):
            reb.planner.config = cfg
        self._record(knob.name, cur, new, ratio, why)
        return 1

    # -- route.fpr ------------------------------------------------------
    def _adapt_route_fpr(self, loop) -> int:
        rf = loop._route_filters()
        if rf is None:
            return 0
        knob = self.space.by_name["route.fpr"]
        probes, fp = int(rf.probes), int(rf.fp_probes)
        d_probes = probes - self._probe_base[0]
        d_fp = fp - self._probe_base[1]
        if d_probes < self.min_probes:
            return 0  # not enough evidence this phase; keep accumulating
        self._probe_base = (probes, fp)
        if not self._may_move(knob.name):
            return 0
        share = d_fp / d_probes
        cur = float(rf.fpr)
        if share >= self.fp_hi * cur:
            new = knob.clamp(cur / knob.step)
            why = "fp-share high"
        elif share <= self.fp_lo * cur:
            new = knob.clamp(cur * knob.step)
            why = "fp-share low"
        else:
            return 0
        if new == cur:
            return 0
        rf.fpr = new
        rf.refresh()  # charged under phase("route"); we run inside measure
        self._record(knob.name, cur, new, share, why)
        return 1

    # ------------------------------------------------------------------
    def audit(self) -> dict:
        """The controller block of ``LatencyStats.config``."""
        return {
            "whitelist": list(self.whitelist),
            "window": self.window,
            "cooldown": self.cooldown,
            "phases": self.phases,
            "changes": len(self.history),
            "history": list(self.history),
        }
