"""Detailed tests of batched SEARCH (Alg. 1) semantics and charging."""

import numpy as np
import pytest

from conftest import assert_same_points, brute_range_query
from repro.core import PIMZdTree, skew_resistant, throughput_optimized
from repro.core.geometry import Box
from repro.core.node import Layer
from repro.pim import PIMSystem


def make_tree(points, variant="skew", n_modules=8, seed=1, llc_bytes=None, **cfg_over):
    kw = {"seed": seed}
    if llc_bytes is not None:
        kw["llc_bytes"] = llc_bytes
    system = PIMSystem(n_modules, **kw)
    if variant == "throughput":
        cfg = throughput_optimized(len(points), n_modules, **cfg_over)
    else:
        cfg = skew_resistant(n_modules, **cfg_over)
    return PIMZdTree(points, config=cfg, system=system)


class TestSearchResults:
    def test_every_stored_point_found(self, rng):
        pts = rng.random((2500, 3))
        tree = make_tree(pts)
        results = tree.search(pts)
        for res in results:
            assert res.leaf is not None
            # The point's key must actually be stored in that leaf.
            assert np.uint64(res.key) in res.leaf.keys

    def test_keys_match_codec(self, rng):
        pts = rng.random((500, 3))
        tree = make_tree(pts)
        results = tree.search(pts[:20])
        keys = tree.codec.encode(pts[:20])
        for res, k in zip(results, keys.tolist()):
            assert res.key == int(k)

    def test_qids_are_positional(self, rng):
        pts = rng.random((500, 3))
        tree = make_tree(pts)
        results = tree.search(pts[:10])
        assert [r.qid for r in results] == list(range(10))

    def test_trace_layers_descend(self, rng):
        pts = rng.random((4000, 3))
        tree = make_tree(pts, "skew")
        for res in tree.search(pts[:20]):
            layers = [n.layer for n in res.trace]
            assert layers == sorted(layers), "layers must not go back up"

    def test_deterministic(self, rng):
        pts = rng.random((1000, 3))
        t1 = make_tree(pts, seed=9)
        t2 = make_tree(pts, seed=9)
        r1 = t1.search(pts[:50])
        r2 = t2.search(pts[:50])
        for a, b in zip(r1, r2):
            assert a.leaf.nid == b.leaf.nid


class TestL0Modes:
    def test_replicated_l0_charges_pim(self, rng):
        """With a tiny LLC, L0 replicates and step 1 runs on the modules."""
        pts = rng.random((4000, 3))
        tree = make_tree(pts, "skew", llc_bytes=2048)
        assert not tree.l0_on_cpu
        snap = tree.system.snapshot()
        tree.search(pts[:100])
        d = tree.system.stats.diff(snap).total
        assert d.pim_cycles > 0
        # The L0 partition round adds one extra round vs the CPU-L0 mode.
        assert d.rounds >= 2

    def test_cpu_l0_touches_llc(self, rng):
        pts = rng.random((4000, 3))
        tree = make_tree(pts, "skew")
        assert tree.l0_on_cpu
        hits_before = tree.system.llc.hits
        tree.search(pts[:200])
        assert tree.system.llc.hits > hits_before  # warm L0 blocks hit

    def test_same_results_both_modes(self, rng):
        pts = rng.random((3000, 3))
        big = make_tree(pts, "skew", seed=3)
        small = make_tree(pts, "skew", seed=3, llc_bytes=2048)
        q = pts[:64]
        r_big = big.search(q)
        r_small = small.search(q)
        for a, b in zip(r_big, r_small):
            assert int(a.leaf.keys[0]) == int(b.leaf.keys[0])


class TestSearchCosts:
    def test_comm_scales_linearly_with_batch(self, rng):
        pts = rng.random((8000, 3))
        tree = make_tree(pts, "throughput")

        def comm(batch):
            snap = tree.system.snapshot()
            tree.search(rng.random((batch, 3)))
            return tree.system.stats.diff(snap).total.comm_words

        c1 = comm(200)
        c2 = comm(800)
        assert 2.5 * c1 < c2 < 6 * c1

    def test_pim_work_proportional_to_depth(self, rng):
        small = make_tree(rng.random((1000, 3)), "throughput", seed=5)
        big = make_tree(rng.random((32000, 3)), "throughput", seed=5)

        def cyc_per_op(tree):
            q = rng.random((300, 3))
            snap = tree.system.snapshot()
            tree.search(q)
            return tree.system.stats.diff(snap).total.pim_cycles / 300

        # Deeper trees cost more PIM work per search (O(log n) visits).
        assert cyc_per_op(big) > cyc_per_op(small)

    def test_search_has_no_dram_blowup(self, rng):
        pts = rng.random((4000, 3))
        tree = make_tree(pts, "throughput")
        snap = tree.system.snapshot()
        tree.search(pts[:500])
        d = tree.system.stats.diff(snap).total
        # Searches stream the batch and touch the small L0: traffic per op
        # must stay within tens of words.
        assert d.dram_words / 500 < 64


class TestEmptyAndEdgeBatches:
    def test_empty_batch(self, rng):
        tree = make_tree(rng.random((500, 3)))
        assert tree.search(np.empty((0, 3))) == []

    def test_single_query(self, rng):
        pts = rng.random((500, 3))
        tree = make_tree(pts)
        res = tree.search(pts[:1])
        assert len(res) == 1 and res[0].leaf is not None

    def test_out_of_bounds_query_clipped(self, rng):
        pts = rng.random((500, 3)) * 0.5 + 0.25
        tree = make_tree(pts)
        res = tree.search(np.array([[9.0, 9.0, 9.0]]))
        assert len(res) == 1
        # Clipped onto the box surface: either a leaf or a clean edge report.
        assert (res[0].leaf is not None) != (res[0].edge is not None)


class TestRangeOracle:
    """box_fetch must return the exact brute-force point set, per engine."""

    @pytest.mark.parametrize("engine", ["reference", "vectorized"], indirect=True)
    def test_box_fetch_matches_brute_range_query(self, rng, engine):
        pts = rng.random((3000, 3))
        tree = make_tree(pts)
        centers = pts[rng.integers(0, len(pts), size=16)]
        for c, side in zip(centers, rng.random(16) * 0.3 + 0.02):
            box = Box(c - side / 2, c + side / 2)
            got = tree.box_fetch([box])[0]
            assert_same_points(got, brute_range_query(pts, box))

    @pytest.mark.parametrize("engine", ["reference", "vectorized"], indirect=True)
    def test_box_fetch_oracle_after_updates(self, rng, engine):
        pts = rng.random((2000, 2))
        tree = make_tree(pts, "throughput")
        fresh = rng.random((300, 2))
        tree.insert(fresh)
        gone = pts[rng.integers(0, len(pts), size=250)]
        tree.delete(gone)
        live = np.vstack([pts, fresh])
        # Rebuild the live multiset the way delete defines it (all exact
        # duplicates of each query row are removed).
        keep = ~(live[:, None, :] == gone[None, :, :]).all(axis=2).any(axis=1)
        live = live[keep]
        box = Box(np.full(2, 0.2), np.full(2, 0.7))
        assert_same_points(tree.box_fetch([box])[0],
                           brute_range_query(live, box))
