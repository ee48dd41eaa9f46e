"""kNN's host side as batch-wide array passes ≡ the per-query oracle.

The CPU's share of Alg. 3 — SEARCH's L0 routing (one lookup in the
frontier of the arena's L0 table, held to the per-key walk on its own in
``tests/test_l0_route.py``), both L0 walks (steps 2 and 4, at the L0
site over the same table's pre-order), the start/covering trace node
(step 3) and the three top-k merges — runs as batch-wide passes over the
node arena (``repro.core.knn._ArrayHost`` on ``repro.core.vexec``).
``tests/exec_oracle.py`` keeps the per-query, per-node helpers as the
oracle (``reference_exec()``).  Both must return identical answers and
byte-identical ``PIMStats`` (``dram_words`` included, so the LLC touch
order is checked) on:

* tie-heavy and continuous trees (``ties``), dims 2/3/5;
* L0 on the host and replicated on the modules;
* L0 leaves — duplicate piles above θ_L0, where step 2's pruning radius
  moves *during* the L0 walk (replayed per query by ``_pile_replay``);
* ℓ2 with ``fast_l2`` on and off, ℓ1 and ℓ∞; route filters on and off.

Plus: production never calls the scalar helpers — not even for groups
pulled to the host — and the segmented top-k equals per-segment stable
sorts.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
import exec_oracle
from exec_oracle import exec_engine
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_differential_exec import assert_stats_identical, hot_spot
from ties import PILE, family, queries, tie_heavy

from repro.core import vexec
from repro.core.config import skew_resistant, throughput_optimized
from repro.core.geometry import L1, L2, LINF, Box
from repro.core.tree import PIMZdTree
from repro.eval.harness import scaled_llc_bytes
from repro.pim.model import PIMSystem
from repro.route import RouteFilterSet
from repro.workloads import varden_points

N_MODULES = 8
METRICS = {"l2": L2, "l1": L1, "linf": LINF}


def _build(pts, *, fast_l2: bool, small_llc: bool, filters: bool,
           config=None, n_modules: int = N_MODULES):
    cfg = (config or skew_resistant(n_modules)).with_overrides(
        fast_l2=fast_l2)
    # A one-block LLC cannot hold L0, so L0 is replicated on the modules;
    # otherwise the evaluation harness's LLC for this many points.
    llc = 64 if small_llc else scaled_llc_bytes(22 * 2**20, len(pts))
    system = PIMSystem(n_modules, seed=1, llc_bytes=llc)
    tree = PIMZdTree(pts, config=cfg, system=system)
    if filters:
        RouteFilterSet(tree, fpr=0.02)
    return tree


def _run(pts, q, ks, metric, engine, **kw):
    tree = _build(pts, **kw)
    with exec_engine(engine):
        out = [tree.knn(q, k, metric) for k in ks]
        # An insert between batches: SEARCH on the update path reads (and
        # flushes) the arena too, and the next batch sees the grown tree.
        tree.insert(np.vstack([q[:5], pts[:3]]))
        out += [tree.knn(q, k, metric) for k in ks]
    tree.check_invariants()
    return tree, out


def _assert_same(ref, vec):
    assert len(ref) == len(vec)
    for batch_r, batch_v in zip(ref, vec):
        for (dr, pr), (dv, pv) in zip(batch_r, batch_v):
            assert dr.shape == dv.shape and np.array_equal(dr, dv)
            assert pr.shape == pv.shape and np.array_equal(pr, pv)


def _differential(pts, q, ks, metric, **kw):
    t_ref, ref = _run(pts, q, ks, metric, "reference", **kw)
    t_vec, vec = _run(pts, q, ks, metric, "vectorized", **kw)
    _assert_same(ref, vec)
    assert_stats_identical(t_ref.system.stats, t_vec.system.stats)
    return t_vec


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    dims=st.sampled_from([2, 3, 5]),
    seed=st.integers(0, 2**16 - 1),
    metric=st.sampled_from(sorted(METRICS)),
    fast_l2=st.booleans(),
    small_llc=st.booleans(),
    filters=st.booleans(),
)
@example(dims=3, seed=0, metric="l2", fast_l2=True, small_llc=False,
         filters=False)
@example(dims=2, seed=2, metric="l2", fast_l2=False, small_llc=True,
         filters=True)
@example(dims=5, seed=4, metric="l1", fast_l2=True, small_llc=True,
         filters=False)
@example(dims=3, seed=5, metric="linf", fast_l2=True, small_llc=False,
         filters=True)
def test_host_pipeline_matches_the_oracle(dims, seed, metric, fast_l2,
                                          small_llc, filters):
    pts, q = tie_heavy(dims, seed)
    if seed % 4 == 3:  # the continuous control, same queries' shapes
        rng = np.random.default_rng(seed)
        pts = rng.random((400, dims))
        q = pts[rng.integers(0, len(pts), 24)] + rng.random((24, dims)) * 1e-3
    tree = _differential(pts, q, [1, 8, 2 ** dims + 3], METRICS[metric],
                         fast_l2=fast_l2, small_llc=small_llc, filters=filters)
    assert tree.l0_on_cpu is not small_llc or not tree.l0_nodes()


@pytest.fixture
def pile_replays(monkeypatch):
    """Counts ``_pile_replay`` calls and the pairs they prune."""
    seen = {"calls": 0, "pruned": 0}
    real = vexec._pile_replay

    def spy(*args):
        near = real(*args)
        seen["calls"] += 1
        seen["pruned"] += int((~near).sum())
        return near

    monkeypatch.setattr(vexec, "_pile_replay", spy)
    return seen


@pytest.mark.parametrize("small_llc", [False, True], ids=["l0-host", "l0-pim"])
@pytest.mark.parametrize("dims", [2, 3, 5])
def test_pile_leaves_move_the_radius_mid_walk(dims, small_llc, pile_replays):
    """Duplicate piles above θ_L0 become L0 leaves.  With ``2k ≥ θ_L0``
    step 2 starts inside L0, merges a pile and prunes what follows it in
    pre-order — the step-function case of ``_pile_replay``."""
    rng = np.random.default_rng(dims)
    pts = family("piles", dims, rng)
    heads = pts[:3 * PILE:PILE]
    q = np.vstack([heads, heads + 1e-3, heads - 1e-3,
                   queries("stored", pts, rng, 12), queries("odd", pts, rng, 12)])
    tree = _differential(pts, q, [16, 30, PILE + 3], L2, fast_l2=True,
                         small_llc=small_llc, filters=False)
    assert any(nd.is_leaf for nd in tree.l0_nodes())
    assert pile_replays["calls"] and pile_replays["pruned"]


def test_varden_p2048_identity(pile_replays):
    """At the bench's P = 2048: a replicated L0 over twenty levels deep,
    plus a duplicate pile big enough to be an L0 leaf."""
    data = varden_points(60_000, 3, seed=7)
    rng = np.random.default_rng(7)
    pile = np.repeat(data[rng.integers(0, len(data), 2)], 200, axis=0)
    pts = np.vstack([data, pile])
    q = np.vstack([pts[rng.integers(0, len(pts), 200)] + 1e-4, pile[:8],
                   pile[::200] + 1e-5])
    cfg = throughput_optimized(len(pts), 2048)  # the bench's configuration
    tree = _differential(pts, q, [1, 10, 60], L2, fast_l2=True,
                         small_llc=False, filters=False, config=cfg,
                         n_modules=2048)
    assert not tree.l0_on_cpu
    assert any(nd.is_leaf for nd in tree.l0_nodes())
    assert pile_replays["calls"]
    assert max(len(r.trace) for r in tree.search(q)) > 20


# ----------------------------------------------------------------------
# replaced, not forked
# ----------------------------------------------------------------------
def test_vectorized_knn_calls_no_scalar_helper(monkeypatch):
    """The per-query, per-node helpers are the oracle only — on a batch
    that pushes everything and on a hot-spot batch whose groups are
    pulled to the host at every step."""
    pts, q = tie_heavy(3, 1)
    tree = _build(pts, fast_l2=True, small_llc=False, filters=False)
    tree.knn(q, 4)  # the arena exists from here on
    hot = hot_spot(small_llc=False)
    hot.tree.knn(hot.queries, 4)

    def forbidden(name):
        def trap(*args, **kwargs):
            raise AssertionError(f"production kNN called {name}")
        return trap

    monkeypatch.setattr(exec_oracle, "node_box", forbidden("node_box"))
    monkeypatch.setattr(Box, "contains_sphere", forbidden("contains_sphere"))
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("repro.core")
                and hasattr(mod, "dist_point_box")):
            monkeypatch.setattr(mod, "dist_point_box",
                                forbidden("dist_point_box"))
    before = tree.system.stats.total.dram_words
    for k in (1, 8, 2 * PILE):
        tree.knn(q, k)
    assert tree.last_executor.pulled_tasks == 0
    assert tree.system.stats.total.dram_words > before  # L0 touches happened
    for k in (1, 8):
        hot.tree.knn(hot.queries, k)
        assert hot.tree.last_executor.pulled_tasks > 0


# ----------------------------------------------------------------------
# the one segmented top-k
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    lens=st.lists(st.integers(0, 12), min_size=1, max_size=8),
    k=st.integers(1, 14),
    seed=st.integers(0, 2**16 - 1),
)
def test_segmented_topk_is_a_stable_sort_per_segment(lens, k, seed):
    rng = np.random.default_rng(seed)
    # Few distinct values, so ties decide the order.
    d = rng.integers(0, 4, size=sum(lens)).astype(np.float64)
    seg = np.repeat(np.arange(len(lens)), lens)
    idx, counts = vexec.segmented_topk(d, seg, k, len(lens))
    want, s = [], 0
    for n in lens:
        want.extend((s + np.argsort(d[s:s + n], kind="stable")[:k]).tolist())
        s += n
    assert idx.tolist() == want
    assert counts.tolist() == [min(k, n) for n in lens]
    # ... and equals a sequence of stable top-k merges of the parts.
    parts = np.array_split(np.arange(lens[0]), 3)
    kept = np.empty(0, dtype=np.intp)
    for part in parts:
        cat = np.concatenate((kept, part))
        kept = cat[np.argsort(d[cat], kind="stable")[:k]]
    assert kept.tolist() == want[:min(k, lens[0])]

