"""kNN on tie-heavy data: exact answers, exactly ``min(k, size)`` of them.

Alg. 3 fetches every point within the exact k-th radius (step 4) after
clearing the candidate store (step 3), so a fetch ball that misses the
point defining its own radius returns *fewer* than k neighbours — on an
even-integer lattice queried at odd-integer points, none at all.  The
families in :mod:`ties` put the k-th neighbour at exactly that bound:
equal offsets in every coordinate (ℓ1 = √D·ℓ2 in the reals, where the
computed fast-ℓ2 anchor ``r·√D`` can land an ulp short) and duplicate
piles large enough to become L0 leaves.

The first group runs through ``tree.knn``, the evaluation adapter, one
served batch and the route filters, on production and on the scalar
engine of ``tests/exec_oracle.py``, against a full scan.  The second audits the comparisons that share the pattern without
the √D product — the unanchored metrics and closed box faces.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import brute_box_count, brute_box_points, brute_knn, sorted_rows
from exec_oracle import exec_engine
from ties import PILE, POINT_FAMILIES, QUERY_FAMILIES, family, queries

from repro.core import Box
from repro.core.config import skew_resistant
from repro.core.geometry import L1, L2, LINF
from repro.core.tree import PIMZdTree
from repro.eval.harness import PIMZdTreeAdapter, make_boxes
from repro.pim.model import PIMSystem
from repro.route import RouteFilterSet
from repro.serve import AdmissionQueue, FixedBatchPolicy, ServeLoop
from repro.serve.request import Request

N_MODULES = 8
MODES = ("vectorized", "reference")


def _ks(dims: int, size: int) -> list[int]:
    """k = 1, 2^D (a whole lattice shell), more than a pile, ≥ size."""
    return [1, 2 ** dims, PILE + 3, size + 1]


def _tree(pts, **overrides) -> PIMZdTree:
    cfg = skew_resistant(N_MODULES, **overrides)
    return PIMZdTree(pts, config=cfg, system=PIMSystem(N_MODULES, seed=0))


def _check(pts, q, k, answers, metric=L2) -> None:
    assert len(answers) == len(q)
    want_n = min(k, len(pts))
    for i, (d, p) in enumerate(answers):
        assert len(d) == want_n == len(p), (
            f"query {i} ({q[i]}): {len(d)} neighbours, want {want_n}")
        assert np.array_equal(d, brute_knn(pts, q[i], k, metric)), f"query {i}"
        # Every answer is a stored point at the distance reported for it.
        diff = np.abs(p - q[i])
        got = {"l1": diff.sum(1), "linf": diff.max(1),
               "l2": np.sqrt((diff * diff).sum(1))}[metric.name]
        assert np.array_equal(got, d)


@pytest.mark.parametrize("engine", MODES, indirect=True)
@pytest.mark.parametrize("dims", [2, 3, 5])
@pytest.mark.parametrize("pfam", POINT_FAMILIES)
def test_tree_knn_is_exact_on_ties(pfam, dims, engine):
    rng = np.random.default_rng(dims * 100 + POINT_FAMILIES.index(pfam))
    pts = family(pfam, dims, rng)
    tree = _tree(pts)
    for qfam in QUERY_FAMILIES:
        q = queries(qfam, pts, rng)
        for k in _ks(dims, len(pts)):
            _check(pts, q, k, tree.knn(q, k))


def test_lattice_reproducer_returns_every_answer():
    """The ROADMAP P0 reproducer: 10³ even-integer lattice, 200 queries at
    odd-integer points, 1-NN and 8-NN — 0 empty, 0 short."""
    axis = np.arange(0, 20, 2.0)
    pts = np.array(np.meshgrid(axis, axis, axis)).reshape(3, -1).T.copy()
    rng = np.random.default_rng(0)
    q = rng.integers(0, 9, size=(200, 3)) * 2 + 1.0
    for engine in MODES:
        tree = _tree(pts)
        with exec_engine(engine):
            for k in (1, 8):
                _check(pts, q, k, tree.knn(q, k))


@pytest.mark.parametrize("engine", MODES, indirect=True)
@pytest.mark.parametrize("dims", [2, 3, 5])
def test_adapter_and_served_batch_count_every_answer(dims, engine):
    rng = np.random.default_rng(dims)
    pts = family("lattice", dims, rng)
    q = queries("plus_minus", pts, rng, 16)
    for k in (1, 2 ** dims):
        ad = PIMZdTreeAdapter(pts, n_modules=N_MODULES, variant="skew",
                              seed=1)
        assert ad.knn(q, k) == len(q) * min(k, len(pts))

        ad = PIMZdTreeAdapter(pts, n_modules=N_MODULES, variant="skew",
                              seed=1)
        reqs = [Request(i, "knn", q[i], arrival_s=0.0, k=k)
                for i in range(len(q))]
        res = ServeLoop(ad, AdmissionQueue(64),
                        FixedBatchPolicy(len(q))).run(reqs)
        assert [b.elements for b in res.batches] == [len(q) * min(k, len(pts))]
        assert all(r.status == "done" for r in res.requests)


@pytest.mark.parametrize("engine", MODES, indirect=True)
@pytest.mark.parametrize("dims", [2, 3, 5])
@pytest.mark.parametrize("pfam", ["lattice", "half_lattice", "piles"])
def test_route_filters_keep_tied_neighbours(pfam, dims, engine):
    """The kNN frontier filter's ball-cover z-range test, filters on."""
    rng = np.random.default_rng(dims + 7)
    pts = family(pfam, dims, rng)
    tree = _tree(pts)
    RouteFilterSet(tree, fpr=0.01)
    for qfam in QUERY_FAMILIES:
        q = queries(qfam, pts, rng)
        for k in (1, 2 ** dims, PILE + 3):
            _check(pts, q, k, tree.knn(q, k))
    assert tree.route_filters.queries_pruned > 0


# ----------------------------------------------------------------------
# the other closed/open comparisons on the same data
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", MODES, indirect=True)
@pytest.mark.parametrize("metric, fast_l2", [(L1, True), (LINF, True),
                                             (L2, False)],
                         ids=["l1", "linf", "l2-on-pim"])
def test_unanchored_metrics_are_exact_on_ties(metric, fast_l2, engine):
    """No √D anchor, no rounded product to fall short: these held before
    the radius slack and must keep holding with it."""
    rng = np.random.default_rng(5)
    pts = family("half_lattice", 3, rng)
    tree = _tree(pts, fast_l2=fast_l2)
    for qfam in QUERY_FAMILIES:
        q = queries(qfam, pts, rng)
        for k in (1, 8, 9):
            _check(pts, q, k, tree.knn(q, k, metric), metric)


@pytest.mark.parametrize("engine", MODES, indirect=True)
@pytest.mark.parametrize("dims", [2, 3, 5])
def test_box_faces_through_stored_points_are_inclusive(dims, engine):
    """Closed boxes whose faces pass exactly through lattice points."""
    rng = np.random.default_rng(dims + 11)
    pts = family("half_lattice", dims, rng)
    tree = _tree(pts)
    lo = pts[rng.integers(0, len(pts), size=20)]
    hi = lo + pts[rng.integers(0, len(pts), size=20)] / 2
    boxes = [Box(a, b) for a, b in zip(lo, hi)]
    boxes += [Box(p, p) for p in pts[:4]]  # degenerate: one point each
    boxes += make_boxes(pts, 0.25, 4, seed=dims)
    want = [brute_box_count(pts, b) for b in boxes]
    assert tree.box_count(boxes).tolist() == want
    for got, b in zip(tree.box_fetch(boxes), boxes):
        assert np.array_equal(sorted_rows(got), sorted_rows(brute_box_points(pts, b)))
