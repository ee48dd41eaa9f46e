"""Workload generators for the §7 experiments.

* :func:`uniform_points` — the §7.2 microbenchmark distribution.
* :func:`varden_points` — the Varden extreme-skew generator of Gan & Tao
  [32]: a random walk laying down dense filament clusters with occasional
  restarts, the paper's Fig. 9 stressor.
* :func:`cosmos_like_points` — a synthetic stand-in for the COSMOS
  astronomy catalogue [78]: Gaussian galaxy clusters with lognormal masses
  over a uniform background, tuned to the published Gini ≈ 0.287 over
  2048 bins (moderate skew).
* :func:`osm_like_points` — a synthetic stand-in for OpenStreetMap North
  America [38]: Pareto-mass city clusters connected by polyline "roads",
  tuned to the published Gini ≈ 0.967 (extreme skew).

The real datasets are proprietary-scale downloads the paper used only for
their *spatial skew*; DESIGN.md records this substitution.  All generators
emit points in the unit cube ``[0, 1]^D`` and take a NumPy ``Generator``
or an integer seed.
"""

from __future__ import annotations

from operator import add

import numpy as np

__all__ = [
    "uniform_points",
    "varden_points",
    "cosmos_like_points",
    "osm_like_points",
    "zipf_mix_queries",
]


_WALK_BLOCK = 4096  # Varden steps converted to Python floats at a time


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def uniform_points(n: int, dims: int = 3, seed=0) -> np.ndarray:
    """Uniformly random points in the unit cube."""
    return _rng(seed).random((n, dims))


def varden_points(n: int, dims: int = 3, seed=0, *, restart_prob: float = 1e-4,
                  step_scale: float = 2e-4) -> np.ndarray:
    """Varden [32]: random-walk filaments with restarts (extreme skew).

    The walk deposits one point per step, moving by a small Gaussian step;
    with probability ``restart_prob`` it teleports to a uniform location,
    starting a new filament.  Density along a filament is ~1/step_scale
    per unit length — orders of magnitude above the background, which is
    what makes the distribution adversarial for range-partitioned indexes.
    """
    rng = _rng(seed)
    out = np.empty((n, dims))
    pos = rng.random(dims).tolist()
    restarts = rng.random(n) < restart_prob
    steps = rng.normal(scale=step_scale, size=(n, dims))
    # The walk is inherently sequential: step it on Python floats (the
    # same IEEE additions, abs and reflection as array arithmetic, without
    # NumPy temporaries per step), drawing restarts from ``rng`` in order.
    # Blocks bound the Python lists to a few hundred KiB.
    for b0 in range(0, n, _WALK_BLOCK):
        b1 = min(n, b0 + _WALK_BLOCK)
        walk = []
        for restart, step in zip(restarts[b0:b1].tolist(),
                                 steps[b0:b1].tolist()):
            if restart:
                pos = rng.random(dims).tolist()
            else:
                # Reflect at the boundary to stay inside the cube.
                pos = [2.0 - p if p > 1.0 else p
                       for p in map(abs, map(add, pos, step))]
            walk.append(pos)
        out[b0:b1] = walk
    return np.clip(out, 0.0, 1.0)


def cosmos_like_points(n: int, dims: int = 3, seed=0, *,
                       n_clusters: int = 400, background_fraction: float = 0.52,
                       sigma_mean: float = 0.035, mass_sigma: float = 0.75
                       ) -> np.ndarray:
    """COSMOS-like moderate skew: lognormal-mass Gaussian clusters.

    Defaults are calibrated so that ``gini_coefficient(points, 2048)`` is
    ≈ 0.29 for 3-D data (the paper reports 0.287 for the real catalogue,
    ≈ Zipf γ = 0.455).
    """
    rng = _rng(seed)
    n_bg = int(n * background_fraction)
    n_cl = n - n_bg
    centers = rng.random((n_clusters, dims))
    masses = rng.lognormal(mean=0.0, sigma=mass_sigma, size=n_clusters)
    masses /= masses.sum()
    counts = rng.multinomial(n_cl, masses)
    sigmas = rng.lognormal(mean=np.log(sigma_mean), sigma=0.4, size=n_clusters)
    chunks = [rng.random((n_bg, dims))]
    for c in range(n_clusters):
        if counts[c] == 0:
            continue
        pts = rng.normal(loc=centers[c], scale=sigmas[c], size=(counts[c], dims))
        chunks.append(pts)
    out = np.vstack(chunks)[:n]
    out = np.abs(out)
    over = out > 1.0
    out[over] = 2.0 - out[over]
    out = np.clip(out, 0.0, 1.0)
    rng.shuffle(out)
    return out


def osm_like_points(n: int, dims: int = 3, seed=0, *,
                    n_cities: int = 350, pareto_a: float = 0.55,
                    road_fraction: float = 0.3, city_sigma: float = 0.008
                    ) -> np.ndarray:
    """OSM-like extreme skew: Pareto-mass cities plus polyline roads.

    Road-network data concentrates points in tight urban clusters with
    thin connecting corridors.  Defaults are calibrated so that the Gini
    over 2048 bins is ≈ 0.96 (the paper reports 0.967 for OSM North
    America, ≈ Zipf γ = 1.5).
    """
    rng = _rng(seed)
    centers = rng.random((n_cities, dims))
    masses = rng.pareto(pareto_a, size=n_cities) + 1e-9
    masses /= masses.sum()
    n_road = int(n * road_fraction)
    n_city = n - n_road
    counts = rng.multinomial(n_city, masses)
    chunks: list[np.ndarray] = []
    for c in range(n_cities):
        if counts[c] == 0:
            continue
        chunks.append(
            rng.normal(loc=centers[c], scale=city_sigma, size=(counts[c], dims))
        )
    # Roads: segments between mass-weighted city pairs with small jitter.
    if n_road > 0:
        n_segments = max(1, n_cities)
        seg_counts = rng.multinomial(n_road, np.full(n_segments, 1.0 / n_segments))
        a_idx = rng.choice(n_cities, size=n_segments, p=masses)
        b_idx = rng.choice(n_cities, size=n_segments, p=masses)
        for s in range(n_segments):
            m = seg_counts[s]
            if m == 0:
                continue
            t = rng.random((m, 1))
            pts = centers[a_idx[s]] * (1 - t) + centers[b_idx[s]] * t
            pts += rng.normal(scale=0.002, size=(m, dims))
            chunks.append(pts)
    out = np.vstack(chunks)[:n]
    out = np.abs(out)
    over = out > 1.0
    out[over] = 2.0 - out[over]
    out = np.clip(out, 0.0, 1.0)
    rng.shuffle(out)
    return out


def zipf_mix_queries(base_points: np.ndarray, n: int, skew_fraction: float,
                     seed=0, *, skew_generator=None, dims: int | None = None
                     ) -> np.ndarray:
    """Query batch mixing uniform queries with skewed ones (Fig. 9 setup).

    ``skew_fraction`` of the batch comes from ``skew_generator`` (default:
    Varden); the rest are uniform points over the base data's bounding
    box.
    """
    rng = _rng(seed)
    dims = dims if dims is not None else base_points.shape[1]
    n_skew = int(round(n * skew_fraction))
    n_unif = n - n_skew
    lo = base_points.min(axis=0)
    hi = base_points.max(axis=0)
    unif = lo + rng.random((n_unif, dims)) * (hi - lo)
    if n_skew == 0:
        return unif
    gen = skew_generator or (lambda m, d, s: varden_points(m, d, s))
    skew = gen(n_skew, dims, rng)
    out = np.vstack([unif, skew])
    rng.shuffle(out)
    return out
