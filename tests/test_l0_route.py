"""SEARCH's L0 routing over the frontier table ≡ the per-key walk.

Production routes a batch through L0 with one ``searchsorted`` into the
frontier of L0's one table, which the node arena caches
(``vexec._L0Table``, also the L0 site's pre-order), places a
replicated L0's queries with one ``PIMSystem.place_batch`` pass and
routes a round's reads with one ``ReplicaSet.read_modules`` loop.  The
oracle is the per-key walk ``tests/exec_oracle.py`` keeps
(``route_through_l0``, swapped in by ``reference_exec()``), the scalar
``PIMSystem.place`` and ``ReplicaSet.read_module``.  Routes must agree
on traces, leaves, divergent edges, border tasks, LLC touches and
``PIMStats``:

* on small random trees, L0 on the host and replicated, with keys that
  hit leaves, leave compressed edges and fall outside the root;
* on twin trees whose cached table lives through inserts that create L0
  nodes, L0 promotions and demotions, an arena compaction and a dead
  module — the case a table that is not invalidated fails.
"""

from __future__ import annotations

import numpy as np
import pytest
from exec_oracle import route_through_l0 as walk_each_key
from hypothesis import given, settings
from hypothesis import strategies as st
from test_differential_exec import assert_stats_identical
from ties import tie_heavy

from repro.core import vexec
from repro.core.config import skew_resistant
from repro.core.node import subtree_nodes
from repro.core.search import SearchResult
from repro.core.tree import PIMZdTree
from repro.pim.model import PIMSystem
from repro.replicate import ReplicaSet, ReplicationConfig

N_MODULES = 8


def _build(pts, *, small_llc: bool) -> PIMZdTree:
    # A one-block LLC cannot hold L0, so L0 is replicated on the modules.
    system = PIMSystem(N_MODULES, seed=1,
                       llc_bytes=64 if small_llc else 1 << 22)
    return PIMZdTree(pts, config=skew_resistant(N_MODULES), system=system)


def _route(tree, q, route):
    """Route the keys of ``q`` through L0 with ``route``: the outcome per
    key by nid, the border tasks and the LLC touches, in order."""
    sys = tree.system
    touched: list = []
    inner = sys.touch_cpu_blocks

    def touch(block_ids):
        ids = list(block_ids)
        touched.extend(ids)
        inner(ids)

    sys.touch_cpu_blocks = touch
    try:
        results = [SearchResult(i, int(k))
                   for i, k in enumerate(tree.encode_keys(q))]
        with sys.phase("search"):
            tasks = route(tree, results)
    finally:
        del sys.touch_cpu_blocks
    per_key = [([nd.nid for nd in r.trace], r.leaf and r.leaf.nid,
                r.edge and tuple(x and x.nid for x in r.edge))
               for r in results]
    return (per_key, [(t.qid, t.node.nid, t.meta.root.nid) for t in tasks],
            touched)


def _agree(table_tree, oracle_tree, q):
    """Route ``q`` by the table on one twin and key by key on the other;
    returns the routed outcomes."""
    got = _route(table_tree, q, vexec.route_through_l0)
    want = _route(oracle_tree, q, walk_each_key)
    assert got[0] == want[0], "traces, leaves or edges differ"
    assert got[1] == want[1], "border tasks differ"
    assert got[2] == want[2], "LLC touches differ"
    assert_stats_identical(oracle_tree.system.stats, table_tree.system.stats)
    table_tree.check_invariants()  # the cached table equals a fresh one
    return got[0]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(dims=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2**16 - 1),
       n=st.integers(1, 80), small_llc=st.booleans())
def test_table_route_matches_the_per_key_walk(dims, seed, n, small_llc):
    """Stored keys, keys that leave a compressed edge inside L0, and —
    once one cluster is deleted and the root moves down into the other —
    keys outside the root; L0 on the host and replicated."""
    rng = np.random.default_rng(seed)
    base, _ = tie_heavy(dims, seed)
    # Two tight clusters: long compressed edges inside L0 that a key
    # between them leaves.
    pts = np.vstack([base * 0.01 + 0.1, base * 0.01 + 0.8])
    a, b = (_build(pts, small_llc=small_llc) for _ in range(2))
    assert a.l0_on_cpu is not small_llc
    q = np.vstack([pts[rng.integers(0, len(pts), n)], rng.random((n, dims))])
    routed = _agree(a, b, q)
    assert any(edge for _, _, edge in routed)  # some key left the structure
    for t in (a, b):
        t.delete(pts[len(base):])
    assert a.root.depth > 0
    routed = _agree(a, b, q)
    assert any(edge and edge[0] is None for _, _, edge in routed)


def test_an_empty_l0_routes_every_key_to_the_root():
    """A tree too small for L0: one border at the root, no trace, and —
    with the root moved down into one cluster — the root's edge for keys
    outside it."""
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.random((30, 3)) * 0.01 + 0.4,
                     rng.random((30, 3)) * 0.01 + 0.7])
    # θ_L0 for 64 modules is above the tree's size.
    a, b = (PIMZdTree(pts, config=skew_resistant(64),
                      system=PIMSystem(N_MODULES, seed=1, llc_bytes=64))
            for _ in range(2))
    for t in (a, b):
        t.delete(pts[30:])
    assert not a.l0_nodes() and a.root.depth > 0
    routed = _agree(a, b, np.vstack([pts[:30], rng.random((6, 3))]))
    assert all(not trace for trace, _, _ in routed)
    assert any(edge and edge[0] is None for _, _, edge in routed)


@pytest.mark.parametrize("small_llc", [False, True], ids=["host", "replicated"])
def test_the_cached_table_follows_l0_through_updates(small_llc):
    """One table cached across a serving history: every route after an
    update must equal the per-key walk.  The updates create L0 nodes,
    promote nodes into L0 and demote them, compact the arena, and (L0
    replicated) kill a module the routing round would place queries on.
    A table kept past an L0 change routes to nodes that moved or left."""
    rng = np.random.default_rng(5)
    pts = rng.random((1500, 3))
    a, b = (_build(pts, small_llc=small_llc) for _ in range(2))
    probe = np.vstack([pts[rng.integers(0, len(pts), 150)],
                       rng.random((150, 3))])

    def both(verb, *args):
        getattr(a, verb)(*args)
        getattr(b, verb)(*args)

    def l0():
        return {nd.nid: nd for nd in a.l0_nodes()}

    _agree(a, b, probe)
    table = a._arena.l0
    assert table is not None

    # A hot spot: new nodes, some in L0, and promotions of old ones.
    before = l0()
    old = {nd.nid for nd in subtree_nodes(a.root)}
    hot = rng.random((900, 3)) * 0.02 + 0.3
    for part in np.array_split(hot, 3):
        both("insert", part)
        _agree(a, b, np.vstack([probe, part[:40]]))
    after = l0()
    assert set(after) - old, "no new L0 node"
    assert set(after) - set(before) & old, "no promotion into L0"
    assert a._arena.l0 is not table

    # Deleting the hot spot demotes what it promoted, and deleting most
    # of the rest leaves more garbage than live rows: a compaction.
    rows_before = a._arena.nodes
    for part in np.array_split(hot, 3):
        both("delete", part)
        _agree(a, b, probe)
    demoted = [nd for nid, nd in after.items()
               if nd.row >= 0 and nid not in l0()]
    assert demoted, "no demotion out of L0"
    both("delete", pts[:1450])
    _agree(a, b, np.vstack([probe, rng.random((50, 3))]))
    assert a._arena.nodes is not rows_before, "no arena compaction"

    if not small_llc:
        return
    # A dead module: the routing round's placement rehashes past it.
    salt = a._l0_route_salt
    mids = a.system.place_batch(("l0q", salt), list(range(len(probe))))
    both("fail_over", int(mids[0]))
    _agree(a, b, probe)


# ----------------------------------------------------------------------
# placement in one pass
# ----------------------------------------------------------------------
def _placed_each(sys, head, ids):
    return [sys.place((*head, i)) for i in ids]


@pytest.mark.parametrize("n_modules", [7, 64, 2048])
def test_batch_placement_matches_place(n_modules):
    """No faults, then dead modules (the rehash path), then overrides —
    one onto a live module, one whose target died after it was set."""
    sys = PIMSystem(n_modules, seed=3)
    ids = list(range(600)) + [10**12, -5]
    for head in (("l0q", 0), ("l0q", 1234567), ("x",)):
        assert sys.place_batch(head, ids).tolist() == _placed_each(sys, head,
                                                                   ids)
    head = ("l0q", 42)
    plain = sys.place_batch(head, ids)
    dead = {int(plain[0]), int(plain[5])}
    live = min(set(range(n_modules)) - dead)
    sys.set_placement_override((*head, 3), live)
    sys.set_placement_override((*head, 4), int(plain[5]))
    for mid in dead:  # plain[5] is the second override's target
        sys.decommission(mid)
    got = sys.place_batch(head, ids)
    assert got.tolist() == _placed_each(sys, head, ids)
    assert got[3] == live
    assert not dead & set(got.tolist())
    assert sys.place_batch(head, []).tolist() == []
    # NumPy scalars place like the equal Python ints.
    assert (sys.place_batch(("l0q", np.int64(42)), np.arange(9, dtype=np.uint32))
            .tolist() == got[:9].tolist())


# ----------------------------------------------------------------------
# read-any routing in one loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["write-all", "primary-async"])
def test_read_modules_matches_read_module_per_group(policy):
    """Chunks with and without live copies, ties on load, a dead copy and
    a pinned (pending-write) chunk: one loop chooses what the per-group
    calls choose and leaves the same routed load."""
    rng = np.random.default_rng(2)
    pts = rng.random((1200, 3))
    trees = [_build(pts, small_llc=False) for _ in range(2)]
    sets = [ReplicaSet(t, ReplicationConfig(k=3, write_policy=policy))
            for t in trees]
    for reps in sets:
        reps.replicate_all()
    metas = [sorted(t.metas, key=lambda m: m.root.nid) for t in trees]
    dead = next(iter(sets[0].secondaries(metas[0][1])))
    for t, reps, ms in zip(trees, sets, metas):
        t.system.decommission(dead)
        if policy == "primary-async":
            reps.on_write(ms[2], 5.0)
    picks = rng.integers(0, len(metas[0]), 300).tolist()
    sizes = rng.integers(1, 4, 300).tolist()
    moved = 0
    for lo in range(0, 300, 60):
        groups = [[(ms[i], [None] * s) for i, s in
                   zip(picks[lo:lo + 60], sizes[lo:lo + 60])] for ms in metas]
        one = sets[0].read_modules(groups[0])
        each = [sets[1].read_module(m, len(ts)) for m, ts in groups[1]]
        assert one == each
        assert sets[0].routing_state() == sets[1].routing_state()
        moved += sum(mid != m.module for mid, (m, _) in zip(one, groups[0]))
    assert moved  # some reads went to a secondary copy
