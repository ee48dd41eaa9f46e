"""Geometric primitives shared by the indexes.

Axis-aligned boxes, point–point and point–box distances under the ℓ1, ℓ2
and ℓ∞ norms, and the ℓ1↔ℓ2 anchoring bound the paper exploits to run
cheap coarse filtering on PIM cores (§6, *Execution of Complex Distance
Metrics on PIMs*): for any ``x ∈ R^D``, ``‖x‖₂ ≤ ‖x‖₁ ≤ √D · ‖x‖₂``.

All functions are vectorised over NumPy arrays; single points are accepted
as 1-D arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Box",
    "Metric",
    "L1",
    "L2",
    "LINF",
    "dist",
    "dist_point_box",
    "l1_radius_bound",
]


@dataclass(frozen=True)
class Box:
    """A closed axis-aligned box ``[lo, hi]`` in D dimensions."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("Box lo/hi must be 1-D arrays of equal length")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dims(self) -> int:
        return self.lo.shape[0]

    def contains_point(self, p: np.ndarray) -> np.ndarray | bool:
        """Whether each point of ``p`` lies inside the box (closed)."""
        p = np.asarray(p, dtype=np.float64)
        inside = (p >= self.lo) & (p <= self.hi)
        return inside.all(axis=-1)

    def contains_box(self, other: "Box") -> bool:
        """Whether ``other`` lies entirely inside this box."""
        return bool(np.all(other.lo >= self.lo) and np.all(other.hi <= self.hi))

    def intersects(self, other: "Box") -> bool:
        """Whether the two closed boxes share at least one point."""
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    def contains_sphere(self, center: np.ndarray, radius: float) -> bool:
        """Whether the ℓ2 ball ``B(center, radius)`` fits inside the box."""
        center = np.asarray(center, dtype=np.float64)
        return bool(
            np.all(center - radius >= self.lo) and np.all(center + radius <= self.hi)
        )

    def clip(self, other: "Box") -> "Box":
        """Intersection box (may be degenerate if disjoint)."""
        return Box(np.maximum(self.lo, other.lo), np.minimum(self.hi, other.hi))


@dataclass(frozen=True)
class Metric:
    """A norm tag carrying its PIM instruction cost profile.

    ``pim_cycles_per_dim`` reflects UPMEM-like cores where multiplication
    costs ~32 cycles but addition/compare cost 1 (§6): ℓ2 needs one multiply
    per dimension, ℓ1/ℓ∞ only adds and compares.
    """

    name: str
    pim_cycles_per_dim: int
    cpu_ops_per_dim: int

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return dist(a, b, self)


L1 = Metric("l1", pim_cycles_per_dim=2, cpu_ops_per_dim=2)
L2 = Metric("l2", pim_cycles_per_dim=34, cpu_ops_per_dim=3)
LINF = Metric("linf", pim_cycles_per_dim=2, cpu_ops_per_dim=2)


def dist(a: np.ndarray, b: np.ndarray, metric: Metric = L2) -> np.ndarray:
    """Distance between points ``a`` and ``b`` (broadcasting over rows).

    For ℓ2 the *actual* Euclidean distance is returned (not squared), so
    values are directly comparable to radii.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = np.abs(a - b)
    if metric.name == "l1":
        out = diff.sum(axis=-1)
    elif metric.name == "linf":
        out = diff.max(axis=-1)
    elif metric.name == "l2":
        out = np.sqrt((diff * diff).sum(axis=-1))
    else:
        raise ValueError(f"unknown metric {metric.name!r}")
    # Single-point (1-D) inputs reduce to a 0-d array; callers on the kNN
    # heap path compare against Python floats, so hand back a true float.
    return float(out) if out.ndim == 0 else out


def dist_point_box(p: np.ndarray, box: Box, metric: Metric = L2) -> np.ndarray:
    """Smallest distance from point(s) ``p`` to ``box`` under ``metric``."""
    p = np.asarray(p, dtype=np.float64)
    gap = np.maximum(np.maximum(box.lo - p, p - box.hi), 0.0)
    if metric.name == "l1":
        out = gap.sum(axis=-1)
    elif metric.name == "linf":
        out = gap.max(axis=-1)
    elif metric.name == "l2":
        out = np.sqrt((gap * gap).sum(axis=-1))
    else:
        raise ValueError(f"unknown metric {metric.name!r}")
    return float(out) if out.ndim == 0 else out


def l1_radius_bound(l1_kth_dist: float, dims: int) -> float:
    """ℓ1 search radius that provably covers the true ℓ2 k-NN set.

    If the k-th nearest neighbour under ℓ1 lies at ℓ1-distance ``x``, then
    the k-th nearest neighbour under ℓ2 lies at ℓ2-distance ≤ ``x`` (those
    same k candidates have ℓ2 ≤ ℓ1 ≤ x).  Every true ℓ2 k-NN therefore has
    ℓ2 ≤ x, hence ℓ1 ≤ √D·x; fetching all points with ℓ1-distance ≤ √D·x
    yields a candidate superset of the exact answer (§6).
    """
    return float(l1_kth_dist) * math.sqrt(dims)
