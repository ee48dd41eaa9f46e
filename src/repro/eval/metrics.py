"""Measurement containers for the §7 evaluation.

The paper's two metrics (§7.1):

* **Throughput** — returned elements per second: operations/s for point
  operations (INSERT, BoxCount), output elements/s for range operations
  (BoxFetch, kNN).
* **Per-element memory traffic** — memory-bus bytes (CPU↔DRAM plus
  CPU↔PIM) per returned element.

Both are computed from simulator counters through the machine cost models;
:class:`OpMeasurement` carries them together with the Fig. 6 style
CPU/PIM/communication breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["OpMeasurement", "percentile"]


@dataclass
class OpMeasurement:
    """One operation batch's simulated outcome."""

    index: str  # "pim-zd-tree" | "pkd-tree" | "zd-tree"
    op: str  # "insert" | "bc-10" | "bf-100" | "10-nn" | ...
    ops: int  # operations executed
    elements: int  # elements returned (== ops for point operations)
    sim_time_s: float
    traffic_bytes: float
    cpu_s: float = 0.0
    pim_s: float = 0.0
    comm_s: float = 0.0
    batch_times_s: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    # Per-phase time breakdown (charge-time attribution): phase label →
    # {"cpu_s", "pim_s", "comm_s"}.  Filled by the PIM adapter; empty for
    # the CPU baselines.  Each phase's seconds come from running the cost
    # model on that phase's own counters, so (the roofline max being
    # nonlinear) the sum over phases can slightly exceed the totals above.
    phases: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Returned elements per simulated second (§7.1)."""
        if self.sim_time_s <= 0:
            return float("inf")
        return self.elements / self.sim_time_s

    @property
    def traffic_per_element(self) -> float:
        """Memory-bus bytes per returned element (§7.1)."""
        if self.elements <= 0:
            return float("inf")
        return self.traffic_bytes / self.elements

    def merge_phases(self, other: "OpMeasurement") -> None:
        """Accumulate ``other``'s per-phase seconds into this measurement."""
        for label, parts in other.phases.items():
            acc = self.phases.setdefault(
                label, {"cpu_s": 0.0, "pim_s": 0.0, "comm_s": 0.0}
            )
            for key, v in parts.items():
                acc[key] = acc.get(key, 0.0) + v

    def phase_fractions(self) -> dict[str, float]:
        """Share of the summed per-phase time attributed to each phase."""
        totals = {ph: sum(parts.values()) for ph, parts in self.phases.items()}
        denom = sum(totals.values())
        if denom <= 0:
            return {ph: 0.0 for ph in totals}
        return {ph: t / denom for ph, t in totals.items()}

    def breakdown_fractions(self) -> dict[str, float]:
        total = self.cpu_s + self.pim_s + self.comm_s
        if total <= 0:
            return {"cpu": 0.0, "pim": 0.0, "comm": 0.0}
        return {
            "cpu": self.cpu_s / total,
            "pim": self.pim_s / total,
            "comm": self.comm_s / total,
        }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (used for the §7.2 P99 latency numbers)."""
    vals = sorted(values)
    if not vals:
        return float("nan")
    import math

    rank = max(1, math.ceil(q / 100.0 * len(vals)))
    return float(vals[rank - 1])
