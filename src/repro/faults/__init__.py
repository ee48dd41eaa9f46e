"""Seeded fault injection and recovery for the PIM stack (``repro.faults``).

The paper's BSP model makes round time the *maximum* over modules, so one
failed or straggling module stalls the whole machine.  This package gives
the simulator a deterministic fault vocabulary and the index a recovery
path:

* :class:`FaultPlan` — a seeded schedule of module crashes, straggler
  storms and transient CPU↔PIM message drops, consulted by
  :class:`~repro.pim.PIMSystem` in ``charge_sequence`` and at round
  close; every injected event is recorded (and forwarded to an
  attached ``repro.obs`` collector);
* :class:`ModuleFailure` / :class:`MessageLoss` — typed errors raised at
  the charging sites (:class:`FaultError` is the common base);
* :func:`fail_over` — rebuilds a dead module's shard from the
  host-resident canonical index onto live modules (salted-hash placement
  with the dead set excluded), charged under the ``"recovery"`` phase.

The serving layer (``repro.serve``) catches :class:`FaultError`, retries
with exponential backoff, triggers failover on :class:`ModuleFailure`,
and degrades gracefully when retries are exhausted; see
``ServeLoop``.  Driven from the CLI via ``python -m repro.cli faults``.
"""

from .errors import FaultError, MachineKill, MessageLoss, ModuleFailure
from .plan import FaultEvent, FaultPlan
from .recovery import fail_over

__all__ = [
    "FaultError",
    "FaultEvent",
    "FaultPlan",
    "MachineKill",
    "MessageLoss",
    "ModuleFailure",
    "fail_over",
]
