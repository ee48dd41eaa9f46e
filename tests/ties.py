"""Tie-heavy point sets: the regime where distance comparisons meet exactly.

Continuous random floats put an exact distance tie at measure zero, so an
oracle fed only ``rng.random`` never sees one.  Quantised data — integer
grids, fixed-point coordinates, duplicated records — ties on almost every
query: the k-th neighbour sits at equal offset in every coordinate, or at
exactly a box face.  Every generator here stays inside the unit cube and
uses power-of-two spacings, so coordinates, offsets and sums are exact
binary fractions and a tie in the reals is a tie in float64 too.

Point families (``family(name, dims, rng)``):

* ``lattice`` — a regular grid with spacing ``2h``;
* ``half_lattice`` — that grid plus its copy shifted by ``h`` in every
  coordinate (body-centred), so each point has ``2^D`` equidistant
  neighbours at ``h·√D``;
* ``piles`` — a few points, each duplicated ``PILE`` times (more than the
  small trees' θ_L0, so the piles become all-equal L0 leaves) over a
  sparse continuous background;
* ``continuous`` — plain uniform points, the control.

Query families (``queries(name, pts, rng, n)``):

* ``odd`` — odd multiples of ``h``: equidistant from the ``2^D``
  surrounding grid points (the ROADMAP P0 reproducer);
* ``stored`` — stored points themselves (ties at distance 0 with every
  duplicate, then the lattice shells);
* ``plus_minus`` — ``p ± e·1`` for stored ``p`` and a scalar ``e``:
  equal offset in every coordinate, so ℓ1 = √D·ℓ2 in the reals, with
  ``e`` picked where the computed ``ℓ2·√D`` lands *below* the computed ℓ1
  (the anchored fast-ℓ2 bound then excludes ``p`` itself);
* ``axis`` — ``p ± e`` along one axis: ℓ1 = ℓ2 = ℓ∞ = ``e``.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["POINT_FAMILIES", "QUERY_FAMILIES", "PILE", "family", "queries",
           "tie_heavy"]

POINT_FAMILIES = ("lattice", "half_lattice", "piles", "continuous")
QUERY_FAMILIES = ("odd", "stored", "plus_minus", "axis")
PILE = 40  # copies per pile point: above skew_resistant(8)'s θ_L0 = 32

# Grid side per dimension: a few hundred points in every dimension.
_SIDE = {2: 16, 3: 8, 4: 5, 5: 3}


def _h(dims: int) -> float:
    """Half the grid spacing: a power of two, so every offset is exact."""
    side = _SIDE.get(dims, 4)
    return 2.0 ** -int(np.ceil(np.log2(2 * side)))


def _grid(dims: int) -> np.ndarray:
    h = _h(dims)
    axis = np.arange(_SIDE.get(dims, 4)) * 2 * h
    return np.array(list(itertools.product(axis, repeat=dims)), dtype=np.float64)


def family(name: str, dims: int, rng: np.random.Generator) -> np.ndarray:
    """One tie-heavy point set (rows in ``[0, 1)^dims``)."""
    if name == "lattice":
        return _grid(dims)
    if name == "half_lattice":
        g = _grid(dims)
        return np.vstack([g, g + _h(dims)])
    if name == "piles":
        g = _grid(dims)
        heads = g[rng.choice(len(g), size=3, replace=False)]
        background = g[rng.choice(len(g), size=len(g) // 4, replace=False)]
        return np.vstack([np.repeat(heads, PILE, axis=0), background])
    if name == "continuous":
        return rng.random((300, dims))
    raise ValueError(f"unknown point family {name!r}")


def queries(name: str, pts: np.ndarray, rng: np.random.Generator,
            n: int = 24) -> np.ndarray:
    """``n`` tie-prone queries against ``pts``."""
    dims = pts.shape[1]
    h = _h(dims)
    if name == "odd":
        side = _SIDE.get(dims, 4)
        cells = rng.integers(0, side - 1, size=(n, dims))
        return (2 * cells + 1) * h
    stored = pts[rng.integers(0, len(pts), size=n)]
    if name == "stored":
        return stored.copy()
    # Offsets below h keep ``stored`` the nearest grid point.
    sign = rng.choice([-1.0, 1.0], size=(n, 1))
    if name == "axis":
        e = h * rng.uniform(0.05, 0.95, size=(n, 1))
        return stored + sign * e * np.eye(dims)[rng.integers(0, dims, size=n)]
    if name == "plus_minus":
        # Per query, the first of 64 offsets at which the computed
        # ``ℓ2·√D`` lands below the computed ℓ1 — where an anchored fetch
        # bound can exclude its own k-th neighbour (any offset if none).
        e = h * rng.uniform(0.05, 0.95, size=(n, 64))
        q = stored[:, None, :] + (sign * e)[:, :, None]
        diff = np.abs(q - stored[:, None, :])
        short = (np.sqrt((diff * diff).sum(-1)) * np.sqrt(dims)
                 < diff.sum(-1))
        return q[np.arange(n), short.argmax(axis=1)]
    raise ValueError(f"unknown query family {name!r}")


def tie_heavy(dims: int, seed: int, n_queries: int = 24):
    """A (points, queries) pair drawn from the families above.

    Which family is used follows ``seed`` — the hook the hypothesis
    suites use so every differential case can land in the tie regime.
    """
    rng = np.random.default_rng(seed)
    pts = family(POINT_FAMILIES[seed % 3], dims, rng)
    q = queries(QUERY_FAMILIES[(seed // 3) % len(QUERY_FAMILIES)], pts, rng,
                n_queries)
    return pts, q
