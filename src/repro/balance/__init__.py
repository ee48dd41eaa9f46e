"""Skew-aware online rebalancing (``repro.balance``).

The paper's Fig. 9 experiments hinge on load balance across PIM modules,
and PIM-tree's skew analysis shows push-pull execution alone cannot fix a
hot *mastership* — ownership has to move.  This package acts on the
imbalance the rest of the codebase only measures:

* :class:`HotnessTracker` — EWMA of per-module load deltas with the
  shared max/mean + Gini imbalance signal (``repro.workloads.skew``);
* :class:`MigrationPlanner` + :class:`BalanceConfig` — threshold
  detector and deterministic, budget-bounded victim/destination
  selection over §3.2 meta-node chunks (over-capacity modules are
  mandatory sources);
* :func:`execute_plan` — charged migration: the plan's moves run through
  :func:`repro.core.relocate.relocate` under the ``"rebalance"`` phase,
  with persistent placement overrides that compose with fault rehash;
* :class:`OnlineRebalancer` — the observe/detect/plan/execute driver the
  serve loop runs between batches under a time-budget fraction;
* :func:`choose_destination` — capacity-aware placement for rebuild
  paths (failover routes through it);
* :func:`inert_balance` — a never-trips config, the byte-identity
  baseline used by the acceptance tests.

Driven from the CLI via ``python -m repro.cli balance``.
"""

from .hotness import HotnessTracker
from .online import OnlineRebalancer, execute_plan
from .planner import (
    BalanceConfig,
    MigrationMove,
    MigrationPlan,
    MigrationPlanner,
    choose_destination,
    inert_balance,
)

__all__ = [
    "BalanceConfig",
    "HotnessTracker",
    "MigrationMove",
    "MigrationPlan",
    "MigrationPlanner",
    "OnlineRebalancer",
    "choose_destination",
    "execute_plan",
    "inert_balance",
]
