"""Property-based differential oracle: production vs. the scalar engine.

The round kernels (``repro.core.vexec``) must be *counter-exact* drop-in
replacements for the scalar per-task handlers kept in
``tests/exec_oracle.py``: for any workload, production and the same
workload under ``reference_exec()`` must produce

* identical operation results (search traces, kNN neighbour sets, range
  counts, fetched point sets, delete counts), and
* byte-identical :class:`repro.pim.stats.PIMStats` — every counter in the
  aggregate *and* in every per-phase bucket.

Hypothesis drives the op mix through both modes across dims 2/3/5, both
config variants, duplicate points, adversarially skewed query/update
batches (everything concentrated in one corner so a single module absorbs
the whole batch, exercising the pull paths and emission ordering), and
tie-heavy data (``ties.tie_heavy``: lattices and duplicate piles queried
exactly at the kNN bound).  A hot-spot batch (:func:`hot_spot`) proves
the host site: every operation pulls groups there, and they still match
the scalar handlers bit for bit.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from exec_oracle import exec_engine, reference_exec
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from sim_oracle import ScalarPIMSystem
from ties import tie_heavy

import repro.eval.harness
from repro.core import Box, PIMZdTree, throughput_optimized, vexec
from repro.core.config import PIMZdTreeConfig, skew_resistant
from repro.core.push_pull import PushPullExecutor
from repro.eval.harness import PIMZdTreeAdapter, make_boxes
from repro.pim import PIMSystem
from repro.serve import ServeSpec
from repro.store.snapshot import _manifest_checksum, decode_tree, encode_tree
from repro.workloads import varden_points

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


def _run_mode(engine: str, variant: str, pts, q, boxes, fresh, dele, k: int):
    """The full op mix on one engine; returns comparable results + stats."""
    ad = PIMZdTreeAdapter(pts, n_modules=8, variant=variant, seed=3)
    tree = ad.tree
    out = {}
    with exec_engine(engine):
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

    The fully scalar oracle (the scalar engine of ``tests/exec_oracle.py``
    on the scalar simulator core of ``tests/sim_oracle.py``) and the
    production stack (round kernels on the array core) must agree on
    every result and every PIMStats counter — the two orthogonal fast
    layers compose without breaking counter-exactness.
    """
    pts, q, boxes, fresh, dele = _build_inputs(dims, seed, dup, skew, ties)
    with reference_exec() as mp:
        mp.setattr(repro.eval.harness, "PIMSystem", ScalarPIMSystem)
        ref_out, ref_stats = _run_mode("reference", variant, pts.copy(), q,
                                       boxes, fresh, dele, k)
    vec_out, vec_stats = _run_mode("vectorized", variant, pts.copy(), q, boxes,
                                   fresh, dele, k)
    for key in ref_out:
        _assert_equal(ref_out[key], vec_out[key], key)
    assert_stats_identical(ref_stats, vec_stats)


def test_one_engine_and_no_knob():
    """No config field, adapter keyword or serve spec picks an engine, and
    a manifest that recorded ``exec_mode="reference"`` still decodes:
    the key is a format constant, written as ``"vectorized"``."""
    with pytest.raises(TypeError):
        skew_resistant(4, exec_mode="reference")
    with pytest.raises(TypeError):
        PIMZdTreeAdapter(np.zeros((8, 2)), n_modules=2, exec_mode="reference")
    with pytest.raises(TypeError):
        ServeSpec(exec_mode="reference")

    tree = PIMZdTree(np.random.default_rng(0).random((300, 2)),
                     config=skew_resistant(4), system=PIMSystem(4, seed=1))
    image = encode_tree(tree)
    assert image.manifest["config"]["exec_mode"] == "vectorized"
    image.manifest["config"]["exec_mode"] = "reference"
    image.manifest["checksum"] = _manifest_checksum(image.manifest)
    again = decode_tree(image, PIMSystem(4, seed=1), cost_model=tree.cost_model)
    assert again.config == tree.config
    assert encode_tree(again).manifest["config"]["exec_mode"] == "vectorized"


# ----------------------------------------------------------------------
# the host site: pulled groups
# ----------------------------------------------------------------------
def hot_spot(small_llc: bool, **knobs) -> SimpleNamespace:
    """A Varden tree plus kNN queries and boxes piled on one stored point.

    32 duplicate queries and 16 jittered ones (likewise 40 boxes) put more
    than ``pull_threshold_l2`` tasks on every meta along that point's
    path, so SEARCH, both kNN steps, BoxCount and BoxFetch each pull
    groups to the host; a few spread-out queries and boxes keep pushed
    groups in the same rounds.  ``c0=64`` makes θ_L0/θ_L1 exceed B, so an
    L1 region spans several chunks and a pulled L1 meta must stop at its
    own master nodes.  The LLC is small enough that visit order moves
    ``dram_words``: 40 blocks keep L0 on the host, 8 replicate it on the
    modules (``small_llc``).  ``knobs`` go to ``skew_resistant``.
    """
    pts = varden_points(3000, 3, seed=7)
    system = PIMSystem(8, seed=1, llc_bytes=512 if small_llc else 2560)
    tree = PIMZdTree(pts, config=skew_resistant(8, c0=64, **knobs),
                     system=system)
    assert tree.l0_on_cpu is not small_llc
    rng = np.random.default_rng(7)
    hot = pts[rng.integers(0, len(pts))]
    near = hot + rng.random((16, 3)) * 1e-3
    queries = np.vstack([np.repeat(hot[None], 32, axis=0), near,
                         pts[rng.integers(0, len(pts), 16)]])
    side = np.full(3, 2e-3)
    boxes = ([Box(hot - side, hot + side)] * 24
             + [Box(lo - side, hot + side) for lo in near]
             + make_boxes(pts, 0.1, 8, seed=7))
    return SimpleNamespace(tree=tree, queries=queries, boxes=boxes,
                           fresh=hot + rng.random((40, 3)) * 1e-4)


def _run_hot_spot(engine: str, small_llc: bool):
    """The hot-spot op mix on one engine: answers, stats, and the metas
    pulled per (operation, kernel factory)."""
    hs = hot_spot(small_llc)
    tree, out, pulled = hs.tree, {}, Counter()
    calls = (
        ("search", lambda: [(r.leaf and r.leaf.nid,
                             tuple(n.nid for n in r.trace))
                            for r in tree.search(hs.queries)]),
        ("knn", lambda: tree.knn(hs.queries, 4)),
        ("box_count", lambda: tree.box_count(hs.boxes)),
        ("box_fetch", lambda: tree.box_fetch(hs.boxes)),
        ("insert", lambda: tree.insert(hs.fresh)),
        ("knn2", lambda: tree.knn(hs.queries, 9)),
        ("delete", lambda: tree.delete(hs.fresh[::2])),
    )
    with exec_engine(engine), pytest.MonkeyPatch.context() as mp:
        run = PushPullExecutor.run

        def counted(self, tasks, kernel, **kw):
            res = run(self, tasks, kernel, **kw)
            pulled[op, kernel.__qualname__.split(".")[0]] += self.pulled_metas
            return res

        mp.setattr(PushPullExecutor, "run", counted)
        for op, call in calls:
            out[op] = call()
    tree.check_invariants()
    return out, tree.system.stats, pulled


@pytest.mark.parametrize("small_llc", [False, True], ids=["l0-host", "l0-pim"])
def test_pulled_groups_match_the_oracle(small_llc):
    """Pulled groups run the round kernels on the host: answers and every
    PIMStats counter (``dram_words`` too, so the LLC touch order) equal
    the scalar handlers', with L0 on the host and replicated."""
    ref_out, ref_stats, _ = _run_hot_spot("reference", small_llc)
    out, stats, pulled = _run_hot_spot("vectorized", small_llc)
    for key in ref_out:
        _assert_equal(ref_out[key], out[key], key)
    assert_stats_identical(ref_stats, stats)
    for site in (("search", "make_search_kernel"),
                 ("knn", "make_search_kernel"),
                 ("knn", "make_candidate_kernel"),
                 ("knn", "make_fetch_kernel"),
                 ("box_count", "make_range_kernel"),
                 ("box_fetch", "make_range_kernel")):
        assert pulled[site] > 0, site


# ----------------------------------------------------------------------
# the locality rule of a round
# ----------------------------------------------------------------------
def _locality_world(kind: str):
    """A tree, kNN queries and boxes whose rounds take ``kind``'s rule.

    ``layer``: uniform data at P = 64 under the throughput-optimized
    layout, where every meta is L1, so every pushed task compares layers.
    ``meta``: θ_L1 = θ_L0, so every meta is L2 and no task is L1.
    ``mixed``: the hot spot, whose L1 and L2 metas share pushed rounds
    and whose pulled groups run on the host (the meta rule there); with
    4-point leaves an L2 meta has inner nodes, so the meta compare inside
    a mixed round decides something.
    """
    if kind == "mixed":
        hs = hot_spot(small_llc=False, leaf_size=4)
        return hs.tree, hs.queries, hs.boxes
    rng = np.random.default_rng(5)
    pts = rng.random((3000, 3))
    if kind == "layer":
        n_modules, config = 64, throughput_optimized(len(pts), 64)
    else:
        n_modules = 8
        config = PIMZdTreeConfig("l2-only", theta_l0=64, theta_l1=64,
                                 chunk_factor=16)
    tree = PIMZdTree(pts, config=config, system=PIMSystem(n_modules, seed=1))
    queries = pts[rng.integers(0, len(pts), 48)] + rng.random((48, 3)) * 1e-3
    return tree, queries, make_boxes(pts, 0.1, 24, seed=5)


def _run_locality(engine: str, kind: str):
    """kNN (steps 2 and 4), BoxCount and BoxFetch on one engine: answers,
    stats, and the rule of every round-kernel call per (operation,
    kernel factory, on the host?)."""
    tree, queries, boxes = _locality_world(kind)
    rules: dict[tuple, set] = {}
    site = None
    # Two k: in the hot spot k = 2 gives the candidate step a mixed round
    # in which an L1 task crosses into another L1 meta.
    calls = (("knn", lambda: (tree.knn(queries, 2), tree.knn(queries, 9))),
             ("box_count", lambda: tree.box_count(boxes)),
             ("box_fetch", lambda: tree.box_fetch(boxes)))
    with exec_engine(engine), pytest.MonkeyPatch.context() as mp:
        run, init = PushPullExecutor.run, vexec._Round.__init__

        def labelled(self, tasks, kernel, **kw):
            nonlocal site
            site = (op, kernel.__qualname__.split(".")[0])
            return run(self, tasks, kernel, **kw)

        def recorded(self, tree, groups, on_host):
            init(self, tree, groups, on_host)
            rules.setdefault((*site, on_host), set()).add(self.rule)

        mp.setattr(PushPullExecutor, "run", labelled)
        mp.setattr(vexec._Round, "__init__", recorded)
        out = {}
        for op, call in calls:
            out[op] = call()
    tree.check_invariants()
    return out, tree.system.stats, rules


@pytest.mark.parametrize("kind", ["layer", "meta", "mixed"])
def test_each_locality_rule_matches_the_oracle(kind):
    """Each locality rule a round can pick — layers when every pushed
    task is L1, metas on the host or with no L1 task, per task when L1
    and L2 metas share a round — gives the scalar handlers' answers and
    PIMStats (``dram_words`` included), in both kNN steps, BoxCount and
    BoxFetch."""
    ref_out, ref_stats, _ = _run_locality("reference", kind)
    out, stats, rules = _run_locality("vectorized", kind)
    for key in ref_out:
        _assert_equal(ref_out[key], out[key], key)
    assert_stats_identical(ref_stats, stats)
    for site in (("knn", "make_candidate_kernel"),
                 ("knn", "make_fetch_kernel"),
                 ("box_count", "make_range_kernel"),
                 ("box_fetch", "make_range_kernel")):
        pushed = rules.get((*site, False), set())
        if kind == "mixed":
            assert vexec.MIXED_RULE in pushed, site
            assert rules.get((*site, True)) == {vexec.META_RULE}, site
        else:
            want = vexec.LAYER_RULE if kind == "layer" else vexec.META_RULE
            assert pushed == {want}, site
