"""PIM-zd-tree configurations (Table 2) and tuning knobs.

The index is tunable along three axes (§3.1–§3.2): the layer thresholds
``theta_l0`` / ``theta_l1`` (subtree-size cutoffs for the globally-shared /
partially-shared / exclusive layers) and the chunking factor ``B``.  The
paper implements the two extremes of the design frontier (§6):

* **throughput-optimized** — ``θ_L0 = n/P``, ``θ_L1 = 1``, ``B = θ_L0``:
  the top O(P) nodes are shared, everything below is a single meta-node
  per subtree placed wholly on one random module.  O(1) communication per
  operation; tolerates (P log P, 3)-skew.
* **skew-resistant** — ``θ_L0 = Θ(P)``, ``θ_L1 = Θ(log_B P)``, ``B = 16``:
  finer layers plus push-pull give O(log_B log_B P) communication while
  tolerating arbitrary skew for batches of Ω(P log² P).

The boolean switches correspond to the Table 3 implementation-technique
ablations plus the extra design ablations listed in DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

__all__ = ["PIMZdTreeConfig", "throughput_optimized", "skew_resistant"]


@dataclass(frozen=True)
class PIMZdTreeConfig:
    """Static tuning of a PIM-zd-tree instance."""

    name: str
    theta_l0: int
    theta_l1: int
    chunk_factor: int  # B
    leaf_size: int = 16
    # Push-pull thresholds (§3.3 / Alg. 1).
    pull_imbalance_factor: float = 3.0
    # Implementation-technique switches (Table 3 ablations).
    lazy_counters: bool = True
    fast_zorder: bool = True
    fast_l2: bool = True
    direct_api: bool = True
    # Design ablations (DESIGN.md §Key design decisions).
    push_pull: bool = True

    def __post_init__(self) -> None:
        if self.theta_l0 < self.theta_l1:
            raise ValueError("theta_l0 must be >= theta_l1")
        if self.theta_l1 < 1:
            raise ValueError("theta_l1 must be >= 1")
        if self.chunk_factor < 1:
            raise ValueError("chunk factor B must be >= 1")
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")

    # -- derived quantities -------------------------------------------
    @property
    def pull_threshold_l1(self) -> int:
        """K for L1 pulls: ``B · log_B(θ_L0 / θ_L1)`` (Alg. 1 step 2a)."""
        b = max(2, self.chunk_factor)
        ratio = max(2.0, self.theta_l0 / max(1, self.theta_l1))
        return max(1, int(self.chunk_factor * max(1.0, math.log(ratio, b))))

    @property
    def pull_threshold_l2(self) -> int:
        """K for L2 pulls: ``B`` (Alg. 1 step 4)."""
        return max(1, self.chunk_factor)

    def lazy_delta_bounds(self, layer: int) -> tuple[float, float]:
        """(Δ_min, Δ_max) of Table 1 for a node in ``layer`` (0, 1 or 2)."""
        if not self.lazy_counters:
            return (0.0, 0.0)
        if layer == 0:
            return (-self.theta_l0 / 2.0, float(self.theta_l0))
        if layer == 1:
            b = max(2, self.chunk_factor)
            log_term = math.log(max(2.0, self.theta_l0 / max(1, self.theta_l1)), b)
            d = min(float(self.theta_l1), log_term)
            d = max(1.0, d)
            return (-0.5 * d, d)
        return (0.0, 0.0)

    @cached_property
    def delta_bounds(self) -> tuple[tuple[float, float], ...]:
        """:meth:`lazy_delta_bounds` of each layer, indexed by layer."""
        return tuple(self.lazy_delta_bounds(layer) for layer in range(3))

    def with_overrides(self, **kw) -> "PIMZdTreeConfig":
        return replace(self, **kw)


def throughput_optimized(n: int, n_modules: int, *, leaf_size: int = 16,
                         headroom: float = 1.5, **overrides) -> PIMZdTreeConfig:
    """Table 2, column 1: range-partitioned layout with random placement.

    ``headroom`` sets θ_L0 slightly above n/P so freshly built region
    roots (whose subtree sizes sit exactly at n/P) do not all cross the
    promotion threshold on the first post-warmup insert batch — the
    asymptotic Table 2 choice θ_L0 = Θ(n/P) is unchanged.
    """
    theta_l0 = max(2 * leaf_size, int(headroom * n) // max(1, n_modules))
    cfg = PIMZdTreeConfig(
        name="throughput-optimized",
        theta_l0=theta_l0,
        theta_l1=1,
        chunk_factor=theta_l0,
        leaf_size=leaf_size,
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


def skew_resistant(n_modules: int, *, chunk_factor: int = 16, leaf_size: int = 16,
                   c0: int = 4, c1: int = 8, **overrides) -> PIMZdTreeConfig:
    """Table 2, column 2: fine-grained layers tolerating arbitrary skew."""
    b = max(2, chunk_factor)
    theta_l1 = max(2, int(c1 * max(1.0, math.log(max(2, n_modules), b))))
    theta_l0 = max(theta_l1 * 2, c0 * n_modules)
    cfg = PIMZdTreeConfig(
        name="skew-resistant",
        theta_l0=theta_l0,
        theta_l1=theta_l1,
        chunk_factor=chunk_factor,
        leaf_size=leaf_size,
    )
    return cfg.with_overrides(**overrides) if overrides else cfg
