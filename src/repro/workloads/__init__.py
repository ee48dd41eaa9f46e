"""Workload generators, arrival processes and skew statistics (§7 + serving)."""

from .arrivals import (
    ARRIVALS,
    bursty_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
)
from .generators import (
    cosmos_like_points,
    osm_like_points,
    uniform_points,
    varden_points,
    zipf_mix_queries,
)
from .skew import (
    bin_points,
    gini_coefficient,
    imbalance_summary,
    max_alpha,
    max_mean_ratio,
    zipf_exponent_fit,
)

__all__ = [
    "ARRIVALS",
    "bin_points",
    "bursty_arrivals",
    "cosmos_like_points",
    "diurnal_arrivals",
    "gini_coefficient",
    "imbalance_summary",
    "max_alpha",
    "max_mean_ratio",
    "osm_like_points",
    "poisson_arrivals",
    "uniform_points",
    "varden_points",
    "zipf_exponent_fit",
    "zipf_mix_queries",
]
