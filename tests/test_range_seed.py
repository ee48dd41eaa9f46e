"""Range L0 seeding ≡ the per-box scalar walk, on a deep L0.

``repro.core.vexec.seed_l0_boxes`` builds the (box × L0-row) intersect
and contain masks one dimension at a time, then runs the per-box
right-first DFS over them; ``tests/exec_oracle._seed_l0_boxes`` walks
each box node by node with :class:`~repro.core.geometry.Box` tests.  The
small trees of the differential suites keep L0 a few levels deep, so this
suite seeds on a Varden tree at P = 256 — an L0 over thirty levels deep —
plus duplicate piles above θ_L0 that become L0 leaves.  Both must emit
the same border tasks in the same order, the same counts and fetched
chunks (order and bytes), and byte-identical ``PIMStats``: with L0 on
the host, and replicated under an LLC small enough that the touch order
moves ``dram_words``.
"""

from __future__ import annotations

import numpy as np
import pytest
from exec_oracle import _seed_l0_boxes, node_box
from test_differential_exec import assert_stats_identical

from repro.core import vexec
from repro.core.config import throughput_optimized
from repro.core.geometry import Box
from repro.core.node import Layer
from repro.core.tree import PIMZdTree
from repro.eval.harness import make_boxes
from repro.pim.model import PIMSystem
from repro.workloads import varden_points

N_POINTS, N_MODULES = 10_000, 256


def _tree(small_llc: bool) -> PIMZdTree:
    data = varden_points(N_POINTS, 3, seed=7)
    rng = np.random.default_rng(7)
    cfg = throughput_optimized(N_POINTS, N_MODULES)
    # Two piles of identical points, each above θ_L0: unsplittable, so
    # each ends as an L0 leaf.
    heads = data[rng.integers(0, N_POINTS, 2)]
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


def _seed(seed_fn, small_llc: bool):
    """Count then fetch seeding of the 48 boxes on a fresh tree."""
    tree = _tree(small_llc)
    boxes = _boxes(tree)
    Lo = np.array([b.lo for b in boxes])
    Hi = np.array([b.hi for b in boxes])
    out = {}
    for fetch, phase in ((False, "boxcount"), (True, "boxfetch")):
        tasks, counts = [], [0] * len(boxes)
        chunks = [[] for _ in boxes]
        with tree.system.phase(phase):
            seed_fn(tree, Lo, Hi, tasks, fetch=fetch, counts=counts,
                    chunks_list=chunks)
        out[fetch] = (
            [(t.qid, t.node.nid, t.payload, t.send_words) for t in tasks],
            counts,
            [[(c.shape, c.tobytes()) for c in cs] for cs in chunks],
        )
    return tree, boxes, out


@pytest.mark.parametrize("small_llc", [False, True], ids=["l0-host", "l0-pim"])
def test_seeding_matches_the_oracle_at_depth(small_llc):
    ref_tree, _, ref = _seed(_seed_l0_boxes, small_llc)
    tree, boxes, got = _seed(vexec.seed_l0_boxes, small_llc)
    for fetch in (False, True):
        for label, a, b in zip(("tasks", "counts", "chunks"), ref[fetch],
                               got[fetch]):
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
    if small_llc:
        assert tree.system.stats.total.dram_words > 0
