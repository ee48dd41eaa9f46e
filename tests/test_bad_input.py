"""Bad input ends in a typed error before anything is charged or journaled.

* **Non-finite coordinates** — a NaN or ±inf coordinate is refused with
  ``ValueError`` at every entry point (build, insert, delete, search,
  kNN queries, box corners).  Quantizing would otherwise clip it to a
  corner of the key space and store or match it silently.  Updates refuse
  it before the write-ahead append: the tree keeps its size and the WAL
  gains no record.
* **Inverted boxes** — a box with ``lo > hi`` in some dimension is
  refused before any charge (it used to answer as empty while the walk
  still charged every node spanning the gap); ``lo == hi`` stays valid.
* **kNN's ``k``** — a non-integral or boolean ``k`` (``2.5`` used to fail
  inside step 2 after SEARCH was charged; ``True`` ran as 1-NN) and
  ``k < 1`` are refused before any charge, naming ``k``; NumPy integers
  are integers.
* **Out-of-domain inserts (pinned, not fixed)** — a point inserted just
  outside the codec's fitted box gets its key clipped into the box, but
  kNN and range pruning test the unclipped point against node boxes that
  cannot contain it, so the point is never found again.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import Box, PIMZdTree
from repro.core.config import skew_resistant
from repro.pim import PIMSystem
from repro.store import DurableStore, open_backend

N_MODULES = 8


def _tree(n: int = 2000) -> PIMZdTree:
    pts = np.random.default_rng(0).random((n, 3))
    return PIMZdTree(pts, config=skew_resistant(N_MODULES),
                     system=PIMSystem(N_MODULES, seed=0))


def _build(tree, bad):
    PIMZdTree(np.vstack([tree.all_points(), bad]),
              config=skew_resistant(N_MODULES), system=PIMSystem(N_MODULES))


ENTRY_POINTS = {
    "build": _build,
    "insert": lambda tree, bad: tree.insert(bad),
    "delete": lambda tree, bad: tree.delete(bad),
    "search": lambda tree, bad: tree.search(bad),
    "knn": lambda tree, bad: tree.knn(bad, 3),
    "box-lo": lambda tree, bad: tree.box_count([Box(bad[0], bad[1])]),
    "box-hi": lambda tree, bad: tree.box_fetch([Box(bad[1], bad[0])]),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_coordinates_are_refused(tmp_path, entry, value):
    tree = _tree()
    backend = open_backend("file", tmp_path)
    DurableStore(backend).attach(tree)
    size, wal = tree.size, backend.wal_read()
    stats = copy.deepcopy(tree.system.stats)
    bad = np.array([[value, 0.5, 0.5], [0.9, 0.9, 0.9]])
    with pytest.raises(ValueError, match="finite"):
        ENTRY_POINTS[entry](tree, bad)
    assert tree.size == size
    assert backend.wal_read() == wal  # no record, not even an uncommitted one
    assert tree.system.stats.total == stats.total  # nothing charged
    tree.check_invariants()


@pytest.mark.parametrize("op", ["box_count", "box_fetch"])
def test_inverted_boxes_are_refused_before_any_charge(op):
    tree = _tree(500)
    stats = copy.deepcopy(tree.system.stats)
    ok = Box(np.full(3, 0.2), np.full(3, 0.6))
    inverted = Box(np.array([0.2, 0.6, 0.2]), np.array([0.6, 0.2, 0.6]))
    with pytest.raises(ValueError, match="lo must not exceed hi"):
        getattr(tree, op)([ok, inverted])
    with pytest.raises(ValueError, match="lo must not exceed hi"):
        getattr(tree, op)([(inverted.lo, inverted.hi)])
    assert tree.system.stats == stats
    # A zero-width box is a point query, not an inverted box.
    p = tree.all_points()[7]
    got = getattr(tree, op)([Box(p, p)])[0]
    assert (got if op == "box_count" else len(got)) >= 1


@pytest.mark.parametrize("k", [2.5, np.float64(3.0), True, False, "3", None],
                         ids=["float", "np-float", "true", "false", "str",
                              "none"])
def test_non_integral_k_is_refused_before_any_charge(k):
    tree = _tree(500)
    stats = copy.deepcopy(tree.system.stats)
    with pytest.raises(TypeError, match="k must be an integer"):
        tree.knn(tree.all_points()[:4], k)
    assert tree.system.stats == stats


@pytest.mark.parametrize("k", [0, -1, np.int64(0)])
def test_k_below_one_is_refused_before_any_charge(k):
    tree = _tree(500)
    stats = copy.deepcopy(tree.system.stats)
    with pytest.raises(ValueError, match="k must be >= 1"):
        tree.knn(tree.all_points()[:4], k)
    assert tree.system.stats == stats


@pytest.mark.parametrize("metric", ["l2", None, 2],
                         ids=["str", "none", "int"])
def test_non_metric_metric_is_refused_before_any_charge(metric):
    tree = _tree(500)
    stats = copy.deepcopy(tree.system.stats)
    with pytest.raises(TypeError, match="metric must be a Metric"):
        tree.knn(tree.all_points()[:4], 1, metric)
    assert tree.system.stats == stats


def test_numpy_integer_k_is_an_integer():
    tree = _tree(500)
    q = tree.all_points()[:4] + 1e-4
    want = tree.knn(q, 3)
    for k in (np.int64(3), np.int32(3), np.uint8(3)):
        for (dw, pw), (dg, pg) in zip(want, tree.knn(q, k)):
            assert np.array_equal(dw, dg) and np.array_equal(pw, pg)


@pytest.mark.xfail(strict=True, reason=(
    "out-of-domain insert: the key is clipped into the codec box, but kNN "
    "and range pruning test the unclipped point (ROADMAP P0)"))
@pytest.mark.parametrize("engine", ["reference", "vectorized"], indirect=True)
def test_a_point_inserted_outside_the_fitted_box_is_found(engine):
    tree = _tree()
    p = np.full(3, 0.5)
    p[0] = tree.codec.hi[0] + 1e-6
    tree.insert(p[None])
    assert tree.size == 2001
    inside = Box(p - 1e-7, p + 1e-7)
    assert inside.contains_point(tree.all_points()).sum() == 1  # a full scan
    (d, got), = tree.knn(p[None], 1)
    assert len(d) == 1 and d[0] == 0.0 and np.array_equal(got[0], p)
    assert tree.box_count([inside])[0] == 1
