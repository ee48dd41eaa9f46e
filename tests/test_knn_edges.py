"""kNN entry-point edge cases: empty batches, k > n, duplicate queries.

Regression suite for the Alg. 3 entry points.  The empty-batch case used
to raise (``np.atleast_2d`` turned a bare ``[]`` into one bogus 0-D query
that tripped the Morton codec); the other cases lock in behavior the
pipeline must keep: ``k`` larger than the resident point count returns
every resident point (well-shaped, sorted), and duplicate query points
return identical answers.
"""

import numpy as np
import pytest
from conftest import brute_knn, sorted_rows

from repro.core.config import skew_resistant, throughput_optimized
from repro.core.tree import PIMZdTree
from repro.pim.model import PIMSystem


def make_tree(pts, *, n_modules=4):
    cfg = skew_resistant(n_modules)
    dims = pts.shape[1]
    return PIMZdTree(
        pts,
        config=cfg,
        system=PIMSystem(n_modules, seed=0),
        bounds=(np.zeros(dims), np.ones(dims)),
    )


@pytest.fixture
def pts(rng):
    return rng.random((50, 3))


class TestEmptyBatch:
    @pytest.mark.parametrize(
        "empty", [np.empty((0, 3)), np.array([]), []],
        ids=["0x3", "flat", "list"],
    )
    def test_empty_batch_returns_empty_list(self, pts, empty):
        tree = make_tree(pts)
        assert tree.knn(empty, 3) == []

    def test_empty_batch_charges_nothing(self, pts):
        tree = make_tree(pts)
        before = tree.system.stats.to_dict()
        tree.knn(np.array([]), 3)
        assert tree.system.stats.to_dict() == before

    def test_k_below_one_still_raises(self, pts):
        tree = make_tree(pts)
        with pytest.raises(ValueError):
            tree.knn(pts[:2], 0)


class TestKLargerThanResident:
    @pytest.mark.parametrize("engine", ["reference", "vectorized"], indirect=True)
    def test_returns_all_resident_points(self, pts, engine):
        tree = make_tree(pts)
        n = len(pts)
        for ans_d, ans_p in tree.knn(pts[:3], n + 17):
            assert ans_d.shape == (n,)
            assert ans_p.shape == (n, 3)
            assert np.all(np.diff(ans_d) >= 0)
            assert np.array_equal(sorted_rows(ans_p), sorted_rows(pts))

    def test_tiny_tree(self, rng):
        small = rng.random((3, 2))
        tree = make_tree(small)
        (ans_d, ans_p), = tree.knn(small[:1], 10)
        assert ans_p.shape == (3, 2)
        assert ans_d[0] == 0.0

    def test_throughput_variant(self, rng):
        pts = rng.random((200, 3))
        tree = PIMZdTree(
            pts,
            config=throughput_optimized(len(pts), 8),
            system=PIMSystem(8, seed=0),
            bounds=(np.zeros(3), np.ones(3)),
        )
        (ans_d, ans_p), = tree.knn(pts[:1], len(pts) + 1)
        assert ans_p.shape == (len(pts), 3)


class TestDuplicateQueries:
    @pytest.mark.parametrize("engine", ["reference", "vectorized"], indirect=True)
    def test_duplicates_get_identical_answers(self, pts, engine):
        tree = make_tree(pts)
        q = np.vstack([pts[7], pts[7], pts[7], pts[11], pts[7]])
        answers = tree.knn(q, 5)
        assert len(answers) == 5
        base_d, base_p = answers[0]
        for i in (1, 2, 4):
            assert np.array_equal(answers[i][0], base_d)
            assert np.array_equal(answers[i][1], base_p)
        # The duplicated query point is its own nearest neighbour.
        assert base_d[0] == 0.0

    def test_duplicate_resident_points(self, rng):
        # Many copies of the same point in the tree: answers stay k-shaped.
        pts = np.vstack([np.full((20, 3), 0.5), rng.random((30, 3))])
        tree = make_tree(pts)
        (ans_d, ans_p), = tree.knn(np.full((1, 3), 0.5), 10)
        assert ans_d.shape == (10,)
        assert np.all(ans_d[:20 if len(ans_d) >= 20 else len(ans_d)] >= 0)
        assert np.count_nonzero(ans_d == 0.0) == 10


class TestSingleQueryShapes:
    def test_one_dim_query_gives_one_answer(self, pts):
        tree = make_tree(pts)
        answers = tree.knn(pts[0], 4)
        assert len(answers) == 1
        d, p = answers[0]
        np.testing.assert_allclose(d, brute_knn(pts, pts[0], 4), atol=1e-12)
