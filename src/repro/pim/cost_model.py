"""Cost models converting simulator counters into simulated time and bytes.

The paper evaluates on real silicon; this reproduction counts abstract work
and traffic inside the functional simulator and converts them to seconds
with datasheet-derived constants.  Two machines are modelled:

* :class:`PIMCostModel` — the UPMEM server of §7.1: two Xeon Silver 4216
  (32 threads, 2.1 GHz, 22 MB LLC), 2048 PIM modules at 350 MHz, four DDR4
  channels of plain DRAM, and the mux-switch overhead [54] paid whenever
  control of a PIM rank's memory flips between CPU and PIM cores (once per
  BSP round in each direction).
* :class:`CPUCostModel` (in ``repro.baselines.cpu_cost``) — the baseline
  Xeon machine.

Simulated time composition: a BSP program alternates CPU phases, transfer
phases and PIM phases, so total time is the *sum* of the three components;
within the CPU component, compute and DRAM traffic overlap, so the CPU
component is the *max* of its compute and memory-bound times.  This is the
standard roofline treatment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .stats import (COMM_MAX_WORDS, COMM_WORDS, CPU_OPS, DRAM_WORDS,
                    MODULE_ROUNDS, PIM_CYCLES, ROUNDS, PhaseCounters)

__all__ = ["PIMCostModel", "SimTime", "UPMEM_2048", "upmem_scaled"]

WORD_BYTES = 8


@dataclass(frozen=True)
class SimTime:
    """A simulated duration split into its BSP components (seconds)."""

    cpu_s: float
    pim_s: float
    comm_s: float

    @property
    def total_s(self) -> float:
        return self.cpu_s + self.pim_s + self.comm_s

    def __add__(self, other: "SimTime") -> "SimTime":
        return SimTime(
            self.cpu_s + other.cpu_s,
            self.pim_s + other.pim_s,
            self.comm_s + other.comm_s,
        )


@dataclass(frozen=True)
class PIMCostModel:
    """Datasheet constants for an UPMEM-like PIM server.

    Bandwidth figures follow Gómez-Luna et al. [37] and the UPMEM
    datasheet: each module sustains ~628 MB/s to its local bank; host↔PIM
    transfers over the populated channels sustain a far smaller aggregate
    (we use 8 GB/s for 2048 modules, scaled linearly for smaller P); the
    four plain DDR4-2400 channels give ~38 GB/s for host DRAM.
    """

    n_modules: int = 2048
    pim_freq_hz: float = 350e6
    cpu_freq_hz: float = 2.1e9
    cpu_threads: float = 32
    cpu_ipc: float = 1.0
    llc_bytes: int = 22 * 2**20
    dram_bw_bytes_s: float = 38.4e9
    # Host<->PIM transfer bandwidths.
    pim_bus_bw_bytes_s: float = 8e9
    pim_module_link_bw_bytes_s: float = 628e6
    # Per-round fixed overheads (mux switch [54] + driver/API software).
    mux_switch_s: float = 15e-6
    sdk_overhead_per_round_s: float = 20e-6
    direct_api_overhead_per_round_s: float = 6e-6
    # Per-word software cost multiplier of the stock SDK path (§6,
    # *Improved Direct API*): the SDK's intermediate layers copy/translate.
    sdk_word_cost_multiplier: float = 1.08
    # Per-(module, round) DMA setup latency: every module that exchanges
    # data in a round pays a fixed scatter/gather descriptor cost.  This is
    # the term the Direct Interface [50] shrinks by bypassing SDK layers,
    # and the reason large batches amortise better (Fig. 7).
    dma_setup_direct_s: float = 1.5e-7
    dma_setup_sdk_s: float = 3e-7
    direct_api: bool = True

    def scaled(self, n_modules: int) -> "PIMCostModel":
        """The same machine scaled to a different module count.

        Host↔PIM aggregate bandwidth scales with populated ranks
        (modules), and so do the per-round fixed overheads: the mux switch
        is paid per rank and the driver fans transfers out per rank, so a
        machine with 32x fewer ranks switches 32x less silicon.  Scaling
        both keeps per-operation costs comparable across module counts,
        which is what lets the scaled-down simulation reproduce the shape
        of the full-size results (see DESIGN.md).
        """
        factor = n_modules / self.n_modules
        return replace(
            self,
            n_modules=n_modules,
            pim_bus_bw_bytes_s=self.pim_bus_bw_bytes_s * factor,
            mux_switch_s=self.mux_switch_s * factor,
            sdk_overhead_per_round_s=self.sdk_overhead_per_round_s * factor,
            direct_api_overhead_per_round_s=self.direct_api_overhead_per_round_s
            * factor,
            # The host scales with the machine too (joint scaling): the
            # full-size server pairs 32 threads with 2048 modules.
            cpu_threads=max(1.0, self.cpu_threads * factor),
            dram_bw_bytes_s=self.dram_bw_bytes_s * factor,
        )

    def with_direct_api(self, enabled: bool) -> "PIMCostModel":
        return replace(self, direct_api=enabled)

    # ------------------------------------------------------------------
    @property
    def round_overhead_s(self) -> float:
        api = (
            self.direct_api_overhead_per_round_s
            if self.direct_api
            else self.sdk_overhead_per_round_s
        )
        return 2 * self.mux_switch_s + api

    @property
    def word_multiplier(self) -> float:
        return 1.0 if self.direct_api else self.sdk_word_cost_multiplier

    def price(self, stats) -> list[list[float]]:
        """Price every row of a :class:`~repro.pim.stats.PIMStats` ledger
        in one array pass: per row (the total, then each phase in
        ``stats.labels`` order) ``[cpu_s, pim_s, comm_s, total_s,
        traffic_bytes]`` as Python floats, each equal to what
        :meth:`time` and :meth:`traffic_bytes` give for that row."""
        return self._price(stats.matrix).tolist()

    def _price(self, m: np.ndarray) -> np.ndarray:
        """The five prices of each counter row of ``m`` (ledger columns),
        each computed in :meth:`time`'s operation order."""
        compute_s = m[:, CPU_OPS] / (
            self.cpu_freq_hz * self.cpu_threads * self.cpu_ipc)
        dram_s = m[:, DRAM_WORDS] * WORD_BYTES / self.dram_bw_bytes_s
        cpu_s = np.maximum(compute_s, dram_s)

        pim_s = m[:, PIM_CYCLES] / self.pim_freq_hz

        wm = self.word_multiplier
        words = m[:, COMM_WORDS] * wm
        max_words = m[:, COMM_MAX_WORDS] * wm
        bus_s = words * WORD_BYTES / self.pim_bus_bw_bytes_s
        link_s = max_words * WORD_BYTES / self.pim_module_link_bw_bytes_s
        dma = self.dma_setup_direct_s if self.direct_api else self.dma_setup_sdk_s
        comm_s = (
            np.maximum(bus_s, link_s)
            + m[:, ROUNDS] * self.round_overhead_s
            + m[:, MODULE_ROUNDS] * dma
        )
        traffic = (words + m[:, DRAM_WORDS]) * WORD_BYTES
        return np.array((cpu_s, pim_s, comm_s, cpu_s + pim_s + comm_s,
                         traffic)).T

    def time(self, c: PhaseCounters) -> SimTime:
        """Convert one phase's counters into simulated seconds.

        Within the CPU and the communication components the roofline max
        is taken; the components themselves add (see the module doc).
        """
        cpu_s, pim_s, comm_s = self._price(np.array([c.as_row()]))[0, :3].tolist()
        return SimTime(cpu_s, pim_s, comm_s)

    def traffic_bytes(self, c: PhaseCounters) -> float:
        """Memory-bus bytes: CPU↔PIM words plus CPU↔DRAM words (§7.1)."""
        return self._price(np.array([c.as_row()]))[0, 4].item()


UPMEM_2048 = PIMCostModel()

# The paper argues its techniques "apply to a wide range of architectures
# beyond UPMEM" (§6).  Two alternative machine points bound the space:
#
# * FUTURE_PIM_2048 — a next-generation BLIMP machine (HBM-class stacking:
#   faster PIM cores, a wider host link, leaner handoff) on which offload
#   is strictly more attractive;
# * CONSERVATIVE_PIM_2048 — an early-generation part (slower cores, a
#   narrower host link, heavier mux switching) that stresses every
#   PIM-side decision.
#
# benchmarks/test_robustness_cost_models.py checks that the paper's
# qualitative conclusions survive both.
FUTURE_PIM_2048 = PIMCostModel(
    pim_freq_hz=1.0e9,
    pim_bus_bw_bytes_s=32e9,
    pim_module_link_bw_bytes_s=2e9,
    mux_switch_s=4e-6,
    direct_api_overhead_per_round_s=2e-6,
    sdk_overhead_per_round_s=8e-6,
    dma_setup_direct_s=5e-8,
    dma_setup_sdk_s=1e-7,
)

CONSERVATIVE_PIM_2048 = PIMCostModel(
    pim_freq_hz=200e6,
    pim_bus_bw_bytes_s=4e9,
    pim_module_link_bw_bytes_s=300e6,
    mux_switch_s=40e-6,
    direct_api_overhead_per_round_s=15e-6,
    sdk_overhead_per_round_s=60e-6,
    dma_setup_direct_s=4e-7,
    dma_setup_sdk_s=1.2e-6,
)


def upmem_scaled(n_modules: int) -> PIMCostModel:
    """The §7.1 UPMEM server scaled down to ``n_modules`` PIM modules."""
    return UPMEM_2048.scaled(n_modules)
