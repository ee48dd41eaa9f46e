"""L0 seeding at the L0 site ≡ the per-query scalar walks, on a deep L0.

Box seeding (``repro.core.vexec.l0_box_seeds``) and kNN step 2's and
step 4's L0 seeding (``l0_candidate_seeds``, ``l0_fetch_seeds``) run the
round kernels' walks at the L0 site of ``_Round``, over the pre-order
half of L0's one table (``vexec._L0Table``, whose other half is SEARCH's
frontier) in whole-batch operations instead of level by level.  Step 2's
pruning radius moves when an L0 leaf merges; ``_pile_replay`` settles it
per query before the walk.  ``tests/exec_oracle`` keeps the scalar
walks: ``_seed_l0_boxes`` walks each box node by node with
:class:`~repro.core.geometry.Box` tests, ``_ScalarHost.candidate_seeds``
and ``fetch_seeds`` each query's ball.  The small trees of the
differential suites keep L0 a few levels deep, so this suite seeds on a
Varden tree at P = 256 — an L0 over thirty levels deep — plus duplicate
piles above θ_L0 that become L0 leaves.  Both must emit the same border
tasks in the same order, the same counts, points and candidates (order
and bytes), the same LLC touches and byte-identical ``PIMStats``: with
L0 on the host, and replicated under an LLC small enough that the touch
order moves ``dram_words``.  The table itself is checked against L0's
right-first walk, and is built once per L0 change.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from exec_oracle import _ScalarHost, _seed_l0_boxes, node_box
from test_differential_exec import assert_stats_identical

import repro.core.knn
from repro.core import vexec
from repro.core.config import throughput_optimized
from repro.core.geometry import Box
from repro.core.knn import _ArrayHost
from repro.core.node import Layer
from repro.core.tree import PIMZdTree
from repro.eval.harness import make_boxes
from repro.pim.model import PIMSystem
from repro.workloads import varden_points

N_POINTS, N_MODULES = 10_000, 256


# A third pile this far from the first (``_tree(near_pile=True)``): a
# step-2 query between them merges one, and the other's own cell can lie
# beyond the new radius while its parent's does not.
NEAR_PILE = np.array([0.0, 2e-3, 0.0])


def _tree(small_llc: bool, near_pile: bool = False) -> PIMZdTree:
    data = varden_points(N_POINTS, 3, seed=7)
    rng = np.random.default_rng(7)
    cfg = throughput_optimized(N_POINTS, N_MODULES)
    # Two piles of identical points, each above θ_L0: unsplittable, so
    # each ends as an L0 leaf.
    heads = data[rng.integers(0, N_POINTS, 2)]
    if near_pile:
        heads = np.vstack([heads, heads[0] + NEAR_PILE])
    pts = np.vstack([data, np.repeat(heads, cfg.theta_l0 + 20, axis=0)])
    # 64 KiB holds L0 on the host; 8 blocks cannot, so L0 is replicated
    # and every seeding touch can evict.
    system = PIMSystem(N_MODULES, seed=1,
                       llc_bytes=512 if small_llc else 64 * 2**10)
    return PIMZdTree(pts, config=throughput_optimized(len(pts), N_MODULES),
                     system=system)


def _boxes(tree) -> list[Box]:
    """48 boxes covering every seeding case."""
    pts = tree.all_points()
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    l0 = tree.l0_nodes()
    leaves = [nd for nd in l0 if nd.is_leaf]
    inner = [nd for nd in l0 if not nd.is_leaf]
    rng = np.random.default_rng(11)
    picks = [inner[i] for i in rng.choice(len(inner), 6, replace=False)]
    # Whole domain: every L0 node contained, from the root down.
    boxes = [Box(lo, hi), Box(lo - 1.0, hi + 1.0)]
    # Disjoint: outside the data on either side, or a sliver past one face.
    boxes += [Box(hi + 0.5, hi + 0.6), Box(lo - 0.6, lo - 0.5),
              Box(np.r_[hi[0] + 1e-3, lo[1:]], np.r_[hi[0] + 1.0, hi[1:]]),
              Box(np.r_[lo[:2], lo[2] - 1.0], np.r_[hi[:2], lo[2] - 1e-3])]
    # Zero-width at stored points: the pile heads scan their L0 leaves.
    stored = pts[rng.integers(0, len(pts), 6)]
    boxes += [Box(p, p) for p in [nd.pts[0] for nd in leaves] + list(stored)]
    # Whole L0 subtrees: a node's own cell (contained at equality) and the
    # cell widened a little; the widened pile cells take the leaves whole.
    for nd in picks + leaves:
        cell = node_box(tree, nd)
        boxes.append(Box(cell.lo.copy(), cell.hi.copy()))
        boxes.append(Box(cell.lo - 1e-6, cell.hi + 1e-6))
    boxes += make_boxes(pts, 0.08, 48 - len(boxes), seed=7)
    assert len(boxes) == 48
    return boxes


def _l0_levels(tree) -> int:
    """Nodes on the longest root-to-leaf path inside L0."""
    levels, stack = 0, [(tree.root, 1)]
    while stack:
        nd, lev = stack.pop()
        if nd.layer != Layer.L0:
            continue
        levels = max(levels, lev)
        if not nd.is_leaf:
            stack += [(nd.left, lev + 1), (nd.right, lev + 1)]
    return levels


def _tasks(tasks) -> list[tuple]:
    return [(t.qid, t.node.nid, t.payload, t.send_words) for t in tasks]


def _seed(seed_fn, small_llc: bool):
    """Count then fetch seeding of the 48 boxes on a fresh tree."""
    tree = _tree(small_llc)
    boxes = _boxes(tree)
    Lo = np.array([b.lo for b in boxes])
    Hi = np.array([b.hi for b in boxes])
    out = {}
    for fetch, phase in ((False, "boxcount"), (True, "boxfetch")):
        with tree.system.phase(phase):
            tasks, results = seed_fn(tree, Lo, Hi, fetch=fetch)
        out[fetch] = (_tasks(tasks), {
            qid: [(kind, (v.shape, v.tobytes()) if fetch else v)
                  for kind, v in items]
            for qid, items in results.items()})
    return tree, boxes, out


@pytest.mark.parametrize("small_llc", [False, True], ids=["l0-host", "l0-pim"])
def test_seeding_matches_the_oracle_at_depth(small_llc):
    ref_tree, _, ref = _seed(_seed_l0_boxes, small_llc)
    tree, boxes, got = _seed(vexec.l0_box_seeds, small_llc)
    for fetch in (False, True):
        for label, a, b in zip(("tasks", "results"), ref[fetch], got[fetch]):
            assert a == b, f"fetch={fetch}: {label} differ"
    assert_stats_identical(ref_tree.system.stats, tree.system.stats)

    # The regime the suite is for: a deep L0 that is host-resident or
    # replicated as asked, L0 leaves both scanned and taken whole, and
    # border tasks in both modes.
    assert tree.l0_on_cpu is not small_llc
    assert _l0_levels(tree) > 20
    leaves = [node_box(tree, nd) for nd in tree.l0_nodes() if nd.is_leaf]
    assert leaves
    for cell in leaves:
        assert any(b.contains_box(cell) for b in boxes)
        assert any(b.intersects(cell) and not b.contains_box(cell)
                   for b in boxes)
    payloads = {p for _, _, p, _ in got[True][0]}
    assert payloads == {"all", "test"}
    assert set(got[False][1]) and set(got[True][1])
    if small_llc:
        assert tree.system.stats.total.dram_words > 0


def test_preorder_table_is_l0s_right_first_walk(monkeypatch):
    """L0's one table, as the L0 site walks it, is L0 in the scalar walk's
    order — right-first pre-order, ``tree.l0_nodes()`` — with each node's
    subtree extent, and its border edges are the non-L0 children in their
    own pre-order.  An insert batch that changes L0 drops it; the SEARCH,
    box and kNN batches after it build it once between them, and
    ``check_invariants`` holds the cached table to a fresh one."""
    tree = _tree(False)
    tab = vexec.node_arena(tree).l0_table()
    l0 = tree.l0_nodes()
    nodes = vexec.node_arena(tree).nodes
    assert [nodes[r] for r in tab.rows.tolist()] == l0
    at = {nd.nid: i for i, nd in enumerate(l0)}

    def extent(nd):
        if nd.layer != Layer.L0:
            return 0
        return 1 + (0 if nd.is_leaf else extent(nd.left) + extent(nd.right))

    assert tab.end.tolist() == [at[nd.nid] + extent(nd) for nd in l0]
    border = [(at[nd.nid], c) for nd in l0 if not nd.is_leaf
              for c in (nd.right, nd.left) if c.layer != Layer.L0]
    got = list(zip(tab.edge_from.tolist(),
                   (nodes[r] for r in tab.edge_to.tolist())))
    assert sorted(got, key=lambda e: e[1].nid) == sorted(
        border, key=lambda e: e[1].nid)
    hi_incl = vexec.node_arena(tree).hi_incl
    walk = [c for _, c in sorted(border, key=lambda e: (
        -int(hi_incl[e[1].row]), e[1].depth))]
    assert [c for _, c in got] == walk

    # Inserts into a dense spot split L0 nodes: the table is dropped, and
    # a SEARCH, a box batch and a kNN batch (both L0 walks) read one new
    # table, equal to a fresh build.
    rng = np.random.default_rng(5)
    pts = tree.all_points()
    hot = pts[rng.integers(0, len(pts))] + rng.random((600, 3)) * 1e-3
    before = set(at)
    tree.insert(hot)
    assert {nd.nid for nd in tree.l0_nodes()} != before
    assert vexec.node_arena(tree).l0 is None
    builds = []
    real = vexec._L0Table.__init__

    def counted(self, a):
        builds.append(self)
        real(self, a)

    monkeypatch.setattr(vexec._L0Table, "__init__", counted)
    tree.search(hot[:50])
    boxes = make_boxes(pts, 0.08, 8, seed=3)
    tree.box_count(boxes)
    tree.box_fetch(boxes)
    tree.knn(np.vstack([hot[:20], _knn_queries(tree)]), K)
    assert len(builds) == 1
    after = vexec.node_arena(tree).l0
    assert after is builds[0] and after is not tab
    monkeypatch.undo()
    tree.check_invariants()


K = 10


def _knn_queries(tree) -> np.ndarray:
    """48 queries: at the pile heads (the ball sits inside an L0 leaf),
    near stored points (the ball below L0), and off the data (the ball
    covers much of L0)."""
    pts = tree.all_points()
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    rng = np.random.default_rng(13)
    heads = [nd.pts[0] for nd in tree.l0_nodes() if nd.is_leaf]
    near = pts[rng.integers(0, len(pts), 40 - len(heads))] + 1e-4
    far = lo + (hi - lo) * rng.random((8, 3)) * np.r_[3.0, 1.0, 1.0]
    return np.vstack([heads, near, far])


def _host_step(host_cls, step: str, small_llc: bool, queries, k: int,
               record, near_pile: bool = False):
    """One kNN batch of ``queries(tree)`` on a fresh tree with ``host_cls``
    as the CPU's steps: ``record(host, out)`` of what ``host.<step>()``
    returned, with the LLC touches it made and the PIMStats booked up to
    then."""
    tree = _tree(small_llc, near_pile)
    sys = tree.system
    seen = {}
    real = getattr(host_cls, step)

    def spy(self):
        touched: list = []
        inner = sys.touch_cpu_blocks

        def touch(block_ids):
            ids = list(block_ids)
            touched.extend(ids)
            inner(ids)

        sys.touch_cpu_blocks = touch
        try:
            out = real(self)
        finally:
            del sys.touch_cpu_blocks
        seen.update(record(self, out), touched=touched,
                    stats=copy.deepcopy(sys.stats))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repro.core.knn, "_ArrayHost", host_cls)
        mp.setattr(host_cls, step, spy)
        tree.knn(queries(tree), k)
    return tree, seen


def _fetched(host, out) -> dict:
    """Step 4's seeds as they leave ``fetch_seeds`` and each query's L0
    points."""
    tasks, bounds, radii = out
    if isinstance(host, _ScalarHost):
        pts = [st.cand_p for st in host.states]
    else:
        pts = [np.concatenate([v for _, v in host._l0.get(q, ())]
                              or [np.empty((0, 3))])
               for q in range(len(host.states))]
    return dict(tasks=_tasks(tasks), bounds=bounds, radii=radii,
                pts=[(p.shape, p.tobytes()) for p in pts])


@pytest.mark.parametrize("small_llc", [False, True], ids=["l0-host", "l0-pim"])
def test_knn_fetch_seeding_matches_the_oracle_at_depth(small_llc):
    """kNN step 4's L0 seeding (``l0_fetch_seeds``) ≡ ``_ScalarHost``'s:
    border tasks, bounds, each query's L0 points, LLC touches and
    PIMStats."""
    _, ref = _host_step(_ScalarHost, "fetch_seeds", small_llc, _knn_queries,
                        K, _fetched)
    tree, got = _host_step(_ArrayHost, "fetch_seeds", small_llc, _knn_queries,
                           K, _fetched)
    for key in ("tasks", "bounds", "radii", "pts", "touched"):
        assert ref[key] == got[key], f"{key} differ"
    assert_stats_identical(ref["stats"], got["stats"])

    # The regime: a deep L0 placed as asked, pile leaves scanned into L0
    # points, and border tasks both from L0 walks and from starts below L0.
    assert tree.l0_on_cpu is not small_llc
    assert _l0_levels(tree) > 20
    assert any(shape[0] for shape, _ in got["pts"])
    nodes = {nd.nid: nd for nd in tree.l0_nodes()}
    assert not any(nid in nodes for _, nid, _, _ in got["tasks"])
    parents = {nd.left.nid for nd in nodes.values() if not nd.is_leaf}
    parents |= {nd.right.nid for nd in nodes.values() if not nd.is_leaf}
    border = {nid for _, nid, _, _ in got["tasks"]}
    assert border & parents and border - parents
    if small_llc:
        assert got["stats"].total.dram_words > 0


# Step 2 starts at the lowest trace node with a lazy counter ≥ 2k.  Below
# L0 every counter is under θ_L0 (59 on this tree), so with 2k just under
# θ_L0 queries whose trace leaves L0 into small subtrees start in L0 and
# the rest start below it, in one batch.
K_STEP2 = 25


def _step2_queries(tree) -> np.ndarray:
    """59 queries: scattered ~1e-2 around the pile heads (a start in L0
    whose walk merges a pile early in pre-order and prunes what follows),
    between the near pair (the second pile pruned by its own cell), at the
    heads themselves (the start is the pile), near stored points (starts
    below L0) and off the data (the root's walk)."""
    pts = tree.all_points()
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    rng = np.random.default_rng(17)
    heads = np.array([nd.pts[0] for nd in tree.l0_nodes() if nd.is_leaf])
    around = heads[:, None, :] + rng.normal(size=(len(heads), 8, 3)) * 1e-2
    first = next(h for h in heads
                 if any(np.allclose(g - h, NEAR_PILE) for g in heads))
    between = first + (np.array([-0.3, 0.6, 0.1])
                       + rng.normal(size=(8, 3)) * 0.05) * NEAR_PILE[1]
    near = pts[rng.integers(0, len(pts), 18)] + 1e-4
    far = lo + (hi - lo) * rng.random((6, 3)) * np.r_[3.0, 1.0, 1.0]
    return np.vstack([around.reshape(-1, 3), between, heads, near, far])


def _seeded(host, tasks) -> dict:
    """Step 2's seeds as they leave ``candidate_seeds``, each query's
    candidates (the L0 leaves it merged) and, for the array host, which
    queries start in L0."""
    out = dict(tasks=_tasks(tasks), cands=[
        (st.cand_d.tobytes(), st.cand_p.shape, st.cand_p.tobytes())
        for st in host.states])
    if isinstance(host, _ArrayHost):
        start = vexec.lowest_rows(host.sc >= 2 * host.k, host.rows,
                                  host.tree.root.row)
        out["in_l0"] = vexec.node_arena(host.tree).layer[start] == int(Layer.L0)
    return out


@pytest.mark.parametrize("small_llc", [False, True], ids=["l0-host", "l0-pim"])
def test_knn_candidate_seeding_matches_the_oracle_at_depth(small_llc,
                                                           monkeypatch):
    """kNN step 2's L0 seeding (``l0_candidate_seeds``) ≡ ``_ScalarHost``'s:
    border tasks, each state's candidates, LLC touches and PIMStats — on
    a batch with starts in L0 and below it, where pile merges move the
    pruning radius mid-walk."""
    pruned, own = [], []
    real = vexec._pile_replay

    def spy(tab, Q, coarse, k, t, pos, end, leaf):
        near = real(tab, Q, coarse, k, t, pos, end, leaf)
        pruned.append(int((~near).sum()))
        # Pile leaves beyond their own radius, under no pruned pair.
        own.append(int((~near[leaf] & ~vexec._under(~near, end)[leaf]).sum()))
        return near

    monkeypatch.setattr(vexec, "_pile_replay", spy)
    _, ref = _host_step(_ScalarHost, "candidate_seeds", small_llc,
                        _step2_queries, K_STEP2, _seeded, near_pile=True)
    tree, got = _host_step(_ArrayHost, "candidate_seeds", small_llc,
                           _step2_queries, K_STEP2, _seeded,
                           near_pile=True)
    for key in ("tasks", "cands", "touched"):
        assert ref[key] == got[key], f"{key} differ"
    assert_stats_identical(ref["stats"], got["stats"])

    # The regime: a deep L0 placed as asked, starts in L0 and below it,
    # piles merged into candidates, a merge that pruned later pairs and a
    # pile leaf pruned by its own cell.
    assert tree.l0_on_cpu is not small_llc
    assert _l0_levels(tree) > 20
    assert got["in_l0"].any() and not got["in_l0"].all()
    assert any(shape[0] for _, shape, _ in got["cands"])
    assert sum(pruned) > 0 and sum(own) > 0
    if small_llc:
        assert got["stats"].total.dram_words > 0
