"""The online rebalancer: observe → detect → plan → execute, one step.

:class:`OnlineRebalancer` is the object the serve loop (and the CLI)
holds: each :meth:`~OnlineRebalancer.step` folds the work since the last
step into the hotness EWMA, asks the planner whether thresholds tripped,
and — only then — executes a budget-bounded migration plan as charged
BSP work under the ``"rebalance"`` phase.  A step that does not migrate
charges *nothing* (observation is a control-plane read), so a rebalancer
built with :func:`repro.balance.inert_balance` leaves every counter
byte-identical to a run with no rebalancer at all.

After a migration the planner's per-move heat estimates are folded back
into the tracker (so the stale signal does not immediately re-trip) and
the per-chunk popularity counters are halved (so old popularity fades).
"""

from __future__ import annotations

from ..core.relocate import relocate
from .hotness import HotnessTracker
from .planner import BalanceConfig, MigrationPlan, MigrationPlanner

__all__ = ["OnlineRebalancer", "execute_plan"]


def execute_plan(tree, plan: MigrationPlan) -> dict:
    """Execute ``plan`` against ``tree``; returns a summary dict.

    The moves run as one charged :func:`~repro.core.relocate.relocate`
    round under the ``"rebalance"`` phase, so the Fig. 6-style breakdown
    shows the rebalance tax.  Empty plans are free — the inert-config
    guarantee.
    """
    return {
        "moves": len(plan.moves),
        "words_moved": relocate(tree, plan.moves, phase="rebalance"),
        "mandatory_moves": sum(1 for mv in plan.moves if mv.mandatory),
        "clones": sum(1 for mv in plan.moves if mv.kind == "clone"),
    }


class OnlineRebalancer:
    """Background skew-repair driver bound to one tree."""

    def __init__(self, tree, config: BalanceConfig | None = None) -> None:
        self.tree = tree
        self.config = config if config is not None else BalanceConfig()
        self.tracker = HotnessTracker(tree.system, alpha=self.config.ewma_alpha)
        self.planner = MigrationPlanner(tree, self.config)
        self.history: list[dict] = []
        self.steps = 0
        self.migrations = 0
        self.words_moved = 0.0

    @property
    def budget_fraction(self) -> float:
        """Serve-loop time budget: rebalance ≤ this fraction of service."""
        return self.config.budget_fraction

    def rebind(self, tree) -> None:
        """Point the rebalancer at a recovered tree (crash restart).

        The serve loop calls this after ``crash_restart`` replaces the
        adapter's tree and system: planner and tracker swap to the new
        objects and the tracker re-anchors its cumulative-load baseline
        (:meth:`HotnessTracker.rebase`) so the fresh system's near-zero
        counters do not appear as a giant negative delta.  History,
        step/migration counts and the EWMA heat are preserved.
        """
        self.tree = tree
        self.planner.tree = tree
        self.tracker.rebase(tree.system)

    # ------------------------------------------------------------------
    def step(self) -> dict | None:
        """One observe/detect/plan/execute cycle.

        Returns the migration summary when chunks moved, else ``None``.
        """
        self.steps += 1
        self.tracker.observe()
        if not self.planner.should_rebalance(self.tracker):
            return None
        plan = self.planner.plan(self.tracker)
        if not plan.moves:
            return None
        summary = execute_plan(self.tree, plan)
        for mv in plan.moves:
            self.tracker.transfer(mv.src, mv.dst, mv.heat)
        # Integer halving keeps the counters exact and decays to zero.
        for meta in self.tree.metas:
            if meta.hot_hits:
                meta.hot_hits >>= 1
        summary["step"] = self.steps
        summary["reason"] = plan.reason
        summary["plan"] = plan.to_dict()
        self.history.append(summary)
        self.migrations += summary["moves"]
        self.words_moved += summary["words_moved"]
        return summary
