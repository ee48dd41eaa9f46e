"""Property-based differential oracle: vectorized vs. reference execution.

The vectorized group kernels (``repro.core.vexec``) must be *counter-exact*
drop-in replacements for the scalar per-task handlers: for any workload, both
``exec_mode="vectorized"`` and ``exec_mode="reference"`` must produce

* identical operation results (search traces, kNN neighbour sets, range
  counts, fetched point sets, delete counts), and
* byte-identical :class:`repro.pim.stats.PIMStats` — every counter in the
  aggregate *and* in every per-phase bucket.

Hypothesis drives the op mix through both modes across dims 2/3/5, both
config variants, duplicate points, adversarially skewed query/update
batches (everything concentrated in one corner so a single module absorbs
the whole batch, exercising the pull paths and emission ordering), and
tie-heavy data (``ties.tie_heavy``: lattices and duplicate piles queried
exactly at the kNN bound).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sim_oracle import ScalarPIMSystem
from ties import tie_heavy

import repro.eval.harness
from repro.core import Box
from repro.eval.harness import PIMZdTreeAdapter, make_boxes

DIMS = st.sampled_from([2, 3, 5])
VARIANTS = st.sampled_from(["throughput", "skew"])


def _build_inputs(dims: int, seed: int, dup: bool, skew: bool,
                  ties: bool = False):
    """One deterministic workload: data, queries, boxes, updates."""
    rng = np.random.default_rng(seed)
    n = 700
    pts = rng.random((n, dims))
    if ties:
        # Lattices, duplicate piles and exactly tied kNN queries (tests/ties.py).
        pts, q = tie_heavy(dims, seed, n_queries=48)
        n = len(pts)
        fresh = rng.random((120, dims))
        boxes = make_boxes(pts, 0.18, 24, seed=seed + 1)
        dele = np.vstack([pts[rng.integers(0, n, size=80)], fresh[:40]])
        return pts, q, boxes, fresh, dele
    if dup:
        # Exact duplicate rows (identical Morton keys share a leaf slot).
        pts[n // 2 :] = pts[: n - n // 2]
    if skew:
        # Adversarial concentration: queries and updates all live in one
        # tiny corner cell, so one meta-node/module sees the whole batch.
        anchor = pts[0]
        q = anchor + rng.random((48, dims)) * 1e-3
        fresh = anchor + rng.random((120, dims)) * 1e-3
    else:
        q = pts[rng.integers(0, n, size=48)] + rng.random((48, dims)) * 1e-4
        fresh = rng.random((120, dims))
    q = np.clip(q, 0.0, 1.0)
    fresh = np.clip(fresh, 0.0, 1.0)
    boxes = make_boxes(pts, 0.07 if skew else 0.18, 24, seed=seed + 1)
    if skew:
        side = np.full(dims, 2e-3)
        boxes = boxes[:12] + [Box(anchor - side, anchor + side)] * 12
    dele = np.vstack([pts[rng.integers(0, n, size=80)], fresh[:40]])
    return pts, q, boxes, fresh, dele


def _run_mode(mode: str, variant: str, pts, q, boxes, fresh, dele, k: int):
    """The full op mix in one exec mode; returns comparable results + stats."""
    ad = PIMZdTreeAdapter(pts, n_modules=8, variant=variant, seed=3,
                          exec_mode=mode)
    tree = ad.tree
    out = {}
    out["search"] = [
        (r.qid, r.key, r.leaf.nid, tuple(n.nid for n in r.trace))
        for r in tree.search(pts[:32])
    ]
    out["knn"] = tree.knn(q, k)
    out["bc"] = tree.box_count(boxes)
    out["bf"] = tree.box_fetch(boxes)
    tree.insert(fresh)
    out["bc2"] = tree.box_count(boxes)
    out["ndel"] = tree.delete(dele)
    out["knn2"] = tree.knn(q, k)
    out["bf2"] = tree.box_fetch(boxes)
    tree.check_invariants()
    return out, ad.system.stats


def _assert_equal(a, b, label: str) -> None:
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.shape == b.shape, label
        assert np.array_equal(a, b), f"{label}: arrays differ"
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{label}: len {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_equal(x, y, f"{label}[{i}]")
    else:
        assert a == b, f"{label}: {a!r} vs {b!r}"


def assert_stats_identical(ref, vec) -> None:
    """PIMStats equality with a per-phase diff in the failure message."""
    if ref == vec:
        return
    lines = []
    if ref.total != vec.total:
        lines.append(f"total:\n  ref={ref.total}\n  vec={vec.total}")
    if ref.mux_switches != vec.mux_switches:
        lines.append(
            f"mux_switches: ref={ref.mux_switches} vec={vec.mux_switches}"
        )
    for lab in sorted(set(ref.phases) | set(vec.phases)):
        pa, pb = ref.phases.get(lab), vec.phases.get(lab)
        if pa != pb:
            lines.append(f"phase {lab}:\n  ref={pa}\n  vec={pb}")
    raise AssertionError("PIMStats diverge:\n" + "\n".join(lines))


@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    dims=DIMS,
    seed=st.integers(0, 2**16 - 1),
    dup=st.booleans(),
    skew=st.booleans(),
    variant=VARIANTS,
    k=st.sampled_from([1, 5, 16]),
    ties=st.booleans(),
)
@example(dims=2, seed=0, dup=True, skew=True, variant="skew", k=5, ties=False)
@example(dims=3, seed=1, dup=False, skew=True, variant="throughput", k=1,
         ties=False)
@example(dims=5, seed=2, dup=True, skew=False, variant="throughput", k=16,
         ties=False)
@example(dims=3, seed=4, dup=False, skew=False, variant="skew", k=16,
         ties=True)
def test_exec_modes_are_differentially_identical(dims, seed, dup, skew,
                                                 variant, k, ties):
    pts, q, boxes, fresh, dele = _build_inputs(dims, seed, dup, skew, ties)
    ref_out, ref_stats = _run_mode("reference", variant, pts.copy(), q, boxes,
                                   fresh, dele, k)
    vec_out, vec_stats = _run_mode("vectorized", variant, pts.copy(), q, boxes,
                                   fresh, dele, k)
    for key in ref_out:
        _assert_equal(ref_out[key], vec_out[key], key)
    assert_stats_identical(ref_stats, vec_stats)


@settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    dims=DIMS,
    seed=st.integers(0, 2**16 - 1),
    dup=st.booleans(),
    skew=st.booleans(),
    variant=VARIANTS,
    k=st.sampled_from([1, 5, 16]),
    ties=st.booleans(),
)
@example(dims=2, seed=0, dup=True, skew=True, variant="skew", k=5, ties=False)
@example(dims=3, seed=1, dup=False, skew=True, variant="throughput", k=1,
         ties=False)
@example(dims=2, seed=3, dup=False, skew=False, variant="skew", k=5,
         ties=True)
def test_sim_modes_are_differentially_identical(dims, seed, dup, skew,
                                                variant, k, ties):
    """The simulator core against its oracle under the full index workload.

    The fully scalar oracle (reference exec on the scalar simulator core
    of ``tests/sim_oracle.py``) and the production stack (vectorized exec
    on the array core) must agree on every result and every PIMStats
    counter — the two orthogonal fast layers compose without breaking
    counter-exactness.
    """
    pts, q, boxes, fresh, dele = _build_inputs(dims, seed, dup, skew, ties)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repro.eval.harness, "PIMSystem", ScalarPIMSystem)
        ref_out, ref_stats = _run_mode("reference", variant, pts.copy(), q,
                                       boxes, fresh, dele, k)
    vec_out, vec_stats = _run_mode("vectorized", variant, pts.copy(), q, boxes,
                                   fresh, dele, k)
    for key in ref_out:
        _assert_equal(ref_out[key], vec_out[key], key)
    assert_stats_identical(ref_stats, vec_stats)


@pytest.mark.parametrize("variant", ["throughput", "skew"])
def test_reference_mode_disables_group_kernels(variant):
    """The scalar oracle must not silently route through the kernels."""
    rng = np.random.default_rng(0)
    pts = rng.random((400, 3))
    ad = PIMZdTreeAdapter(pts, n_modules=4, variant=variant, seed=1,
                          exec_mode="reference")
    assert ad.tree.config.exec_mode == "reference"
    ad.tree.knn(pts[:8], 3)
    ad.tree.box_count(make_boxes(pts, 0.2, 4, seed=1))
    ad.tree.insert(rng.random((20, 3)))
    ad.tree.box_fetch(make_boxes(pts, 0.2, 4, seed=2))
    # Reference mode never builds the vectorized kernels' node arena.
    assert ad.tree._arena is None
