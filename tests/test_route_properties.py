"""Property-based tests (hypothesis) for membership-filter routing.

The routing contract, quantified over dimensionality, duplicate-heavy
key grids and Varden extreme skew: a filters-enabled run returns
**byte-identical answers** to a filters-off twin, while its interconnect
books (communicated words, per-round participant maxima, rounds, PIM
cycles) are never larger — filters can only remove provably-empty sends,
and a false positive costs exactly what the unfiltered send costs.  The
same must hold through a crash-restart cycle (the filters rebuild from
the recovered residency) and on both execution engines (production and
the scalar oracle of ``tests/exec_oracle.py``).
"""

import tempfile
from pathlib import Path

import numpy as np
from exec_oracle import exec_engine, reference_exec
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import PIMZdTree
from repro.core.config import skew_resistant
from repro.pim import PIMSystem
from repro.route import RouteFilterSet
from repro.store import DurableStore, open_backend, recover
from repro.workloads import uniform_points, varden_points

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
N_MODULES = 4
# Counters a filter may only shrink.  cpu_ops/dram_words are excluded by
# design: probes and rebuilds are host work and are charged there.
SHRINK_ONLY = ("comm_words", "comm_max_words", "rounds", "pim_cycles")


def _points(kind: str, n: int, dims: int, seed: int) -> np.ndarray:
    if kind == "varden":
        return varden_points(n, dims, seed=seed)
    if kind == "duplicates":
        rng = np.random.default_rng(seed)
        return rng.integers(0, 3, size=(n, dims)).astype(np.float64) / 4.0
    return uniform_points(n, dims, seed=seed)


def _make(pts, *, fpr=None):
    cfg = skew_resistant(N_MODULES)
    tree = PIMZdTree(pts, config=cfg, system=PIMSystem(N_MODULES, seed=0))
    if fpr is not None:
        RouteFilterSet(tree, fpr=fpr)
    return tree


def _lookup_answers(tree, queries):
    """Canonical point-lookup answer: (key, present) per query."""
    out = []
    for r in tree.search(queries):
        present = False
        if r.leaf is not None and r.leaf.keys is not None:
            key = np.uint64(r.key)
            j = int(np.searchsorted(r.leaf.keys, key))
            present = j < len(r.leaf.keys) and bool(r.leaf.keys[j] == key)
        out.append((r.key, present))
    return out


def _run_workload(tree, pts, queries, k, *, deletes=True):
    """Lookups, kNN, and a delete of half-present rows; returns answers.

    ``deletes=False`` for the duplicate-key grid: one row there matches
    (and removes) every colliding copy, and emptying the tree is
    rejected mid-batch.
    """
    lookups = _lookup_answers(tree, queries)
    knn = tree.knn(queries, k)
    removed = 0
    if deletes:
        removed = tree.delete(
            np.vstack([pts[: max(1, len(pts) // 8)], queries]))
    return lookups, knn, removed


def _assert_same_answers(a, b):
    (l0, k0, d0), (l1, k1, d1) = a, b
    assert l0 == l1
    assert d0 == d1
    for (da, pa), (db, pb) in zip(k0, k1):
        assert np.array_equal(da, db)
        assert np.array_equal(pa, pb)


@SETTINGS
@given(
    dims=st.integers(1, 4),
    kind=st.sampled_from(["uniform", "varden", "duplicates"]),
    n=st.integers(64, 400),
    seed=st.integers(0, 2**16),
    engine=st.sampled_from(["reference", "vectorized"]),
    fpr=st.sampled_from([0.001, 0.01, 0.1]),
)
def test_filters_identical_answers_never_more_traffic(
        dims, kind, n, seed, engine, fpr):
    pts = _points(kind, n, dims, seed)
    queries = np.vstack([pts[: min(8, n)],
                         _points(kind, 8, dims, seed + 1)])
    k = min(3, n)
    t0 = _make(pts)
    t1 = _make(pts, fpr=fpr)
    base0 = t0.system.stats.to_dict()["total"]
    base1 = t1.system.stats.to_dict()["total"]
    deletes = kind != "duplicates"
    with exec_engine(engine):
        a0 = _run_workload(t0, pts, queries, k, deletes=deletes)
        a1 = _run_workload(t1, pts, queries, k, deletes=deletes)
    _assert_same_answers(a0, a1)
    tot0 = t0.system.stats.to_dict()["total"]
    tot1 = t1.system.stats.to_dict()["total"]
    for name in SHRINK_ONLY:
        spent0 = tot0[name] - base0[name]
        spent1 = tot1[name] - base1[name]
        assert spent1 <= spent0, (name, spent1, spent0)


@SETTINGS
@given(
    kind=st.sampled_from(["uniform", "varden", "duplicates"]),
    n=st.integers(64, 300),
    seed=st.integers(0, 2**16),
)
def test_filters_on_exec_modes_agree(kind, n, seed):
    """Oracle vs production differential with pruning active: the
    executor frontier is the single choke point, so both engines must make
    identical pruning decisions and return identical answers."""
    pts = _points(kind, n, 3, seed)
    queries = np.vstack([pts[: min(8, n)], _points(kind, 8, 3, seed + 1)])
    k = min(3, n)
    tr = _make(pts, fpr=0.01)
    tv = _make(pts, fpr=0.01)
    deletes = kind != "duplicates"
    with reference_exec():
        ar = _run_workload(tr, pts, queries, k, deletes=deletes)
    av = _run_workload(tv, pts, queries, k, deletes=deletes)
    _assert_same_answers(ar, av)
    fr, fv = tr.route_filters, tv.route_filters
    assert fr.queries_pruned == fv.queries_pruned
    assert fr.words_saved == fv.words_saved
    assert fr.fp_probes == fv.fp_probes


@SETTINGS
@given(
    dims=st.integers(1, 3),
    kind=st.sampled_from(["uniform", "varden"]),
    n=st.integers(64, 250),
    seed=st.integers(0, 2**16),
)
def test_filters_survive_crash_restart(dims, kind, n, seed):
    """After a checkpoint + committed updates + recovery, the rebuilt
    filters match the never-crashed oracle's bit-for-bit and the
    recovered index answers (still pruned) byte-identically."""
    pts = _points(kind, n, dims, seed)
    tree = PIMZdTree(pts, system=PIMSystem(N_MODULES, seed=3))
    RouteFilterSet(tree, fpr=0.01, seed=5)
    with tempfile.TemporaryDirectory() as tmp:
        store = DurableStore(open_backend("file", Path(tmp) / "s"))
        store.attach(tree)
        tree.insert(_points(kind, 20, dims, seed + 7))
        tree.delete(pts[: max(1, n // 10)])
        res = recover(store.backend, cost_model=tree.cost_model)
        store.backend.close()

    rf0, rf1 = tree.route_filters, res.tree.route_filters
    assert rf1 is not None and (rf1.fpr, rf1.seed) == (0.01, 5)
    assert np.array_equal(rf0._global.words, rf1._global.words)
    assert sorted(rf0._filters) == sorted(rf1._filters)
    for mid in rf0._filters:
        assert np.array_equal(rf0._filters[mid].words,
                              rf1._filters[mid].words), mid
    assert rf0._meta_info == rf1._meta_info

    queries = np.vstack([pts[: min(8, n)], _points(kind, 8, dims, seed + 2)])
    assert _lookup_answers(tree, queries) == _lookup_answers(res.tree, queries)
    k = min(3, res.tree.root.count)
    for (d0, p0), (d1, p1) in zip(tree.knn(queries, k),
                                  res.tree.knn(queries, k)):
        assert np.array_equal(d0, d1)
        assert np.array_equal(p0, p1)
