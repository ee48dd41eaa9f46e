"""The PIM Model simulator substrate.

Stands in for the UPMEM server of §7.1: :class:`PIMSystem` executes BSP
rounds over ``P`` modules with exact work/communication accounting, and
:class:`PIMCostModel` converts the counters to simulated seconds and
memory-bus bytes.  See DESIGN.md for the substitution rationale.
"""

from .cache import LRUCache
from .cost_model import (
    CONSERVATIVE_PIM_2048,
    FUTURE_PIM_2048,
    UPMEM_2048,
    PIMCostModel,
    SimTime,
    upmem_scaled,
)
from .model import CHARGE_PIM, CHARGE_RECV, CHARGE_SEND, PIMSystem
from .stats import PhaseCounters, PIMStats

__all__ = [
    "CHARGE_PIM",
    "CHARGE_RECV",
    "CHARGE_SEND",
    "CONSERVATIVE_PIM_2048",
    "FUTURE_PIM_2048",
    "LRUCache",
    "PIMCostModel",
    "PIMStats",
    "PIMSystem",
    "PhaseCounters",
    "SimTime",
    "UPMEM_2048",
    "upmem_scaled",
]
