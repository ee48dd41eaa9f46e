"""Per-phase / per-module aggregation of trace events.

The :class:`Timeline` mirrors :class:`repro.pim.PIMStats` field-for-field:
its per-phase counters are updated by the collector with the *same* float
increments, in the *same* order, as the simulator books into its own stats,
so agreement is bit-exact (no tolerance needed) — :meth:`Timeline.reconcile`
returns the empty list iff the trace accounts for every charged unit.

Per-module aggregates are the *raw* view (what each module actually
executed and transferred), deliberately different from the per-phase view,
which holds the *booked* quantities (straggler max per round, etc.): the
gap between the two is exactly the load imbalance the Fig. 9 experiments
study.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..pim.stats import PhaseCounters, PIMStats

__all__ = ["ModuleTimeline", "Timeline"]

_COUNTER_FIELDS = (
    "cpu_ops",
    "cpu_span",
    "pim_cycles",
    "comm_words",
    "comm_max_words",
    "rounds",
    "module_rounds",
    "dram_words",
)


@dataclass
class ModuleTimeline:
    """Raw activity of one PIM module (sums over all rounds)."""

    mid: int
    cycles: float = 0.0  # Σ cycles this module executed (not straggler max)
    send_words: float = 0.0  # module → CPU
    recv_words: float = 0.0  # CPU → module
    active_rounds: int = 0  # rounds in which the module was touched
    straggler_rounds: int = 0  # rounds in which it was the straggler

    def to_dict(self) -> dict:
        return {
            "mid": self.mid,
            "cycles": float(self.cycles),
            "send_words": float(self.send_words),
            "recv_words": float(self.recv_words),
            "active_rounds": self.active_rounds,
            "straggler_rounds": self.straggler_rounds,
        }


class Timeline:
    """Running per-phase (booked) and per-module (raw) aggregates."""

    def __init__(self) -> None:
        self.total = PhaseCounters()
        self.phases: dict[str, PhaseCounters] = {}
        self.mux_switches = 0
        self.modules: dict[int, ModuleTimeline] = {}

    # -- accumulation (called by the collector) -------------------------
    def phase(self, label: str) -> PhaseCounters:
        if label not in self.phases:
            self.phases[label] = PhaseCounters()
        return self.phases[label]

    def module(self, mid: int) -> ModuleTimeline:
        if mid not in self.modules:
            self.modules[mid] = ModuleTimeline(mid)
        return self.modules[mid]

    # -- reconciliation -------------------------------------------------
    def reconcile(self, stats: PIMStats) -> list[str]:
        """Compare against simulator stats; returns mismatch descriptions.

        Empty list ⇔ the trace accounts for every charged unit, exactly.
        ``stats`` should cover the same window the collector observed
        (attach the collector at system construction, or diff the stats
        against a snapshot taken at attach time).
        """
        problems: list[str] = []
        for f in _COUNTER_FIELDS:
            a, b = getattr(self.total, f), getattr(stats.total, f)
            if a != b:
                problems.append(f"total.{f}: trace={a!r} stats={b!r}")
        if self.mux_switches != stats.mux_switches:
            problems.append(
                f"mux_switches: trace={self.mux_switches} stats={stats.mux_switches}"
            )
        labels = set(self.phases) | set(stats.phases)
        for label in sorted(labels):
            a_c = self.phases.get(label, PhaseCounters())
            b_c = stats.phases.get(label, PhaseCounters())
            for f in _COUNTER_FIELDS:
                a, b = getattr(a_c, f), getattr(b_c, f)
                if a != b:
                    problems.append(f"phase[{label}].{f}: trace={a!r} stats={b!r}")
        return problems

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        def counters(c: PhaseCounters) -> dict:
            # float() strips NumPy scalars so the document JSON-serialises.
            return {f: float(getattr(c, f)) for f in _COUNTER_FIELDS}

        return {
            "total": counters(self.total),
            "mux_switches": self.mux_switches,
            "phases": {k: counters(v) for k, v in sorted(self.phases.items())},
            "modules": {
                str(mid): m.to_dict() for mid, m in sorted(self.modules.items())
            },
        }
