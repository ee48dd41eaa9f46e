"""Run-to-run determinism of the measurement harness.

The whole evaluation pipeline threads explicit ``np.random.Generator``
state (no module-level RNG anywhere), and the simulator itself must not
depend on object identity (set/dict hash order).  Two identical harness
runs therefore have to produce *byte-identical* measurements — this is
what makes the golden-stats snapshots and the CI smoke diff meaningful.

Historical note: meta-node rechunking used to iterate an identity-hashed
``set[MetaNode]``, which made update-phase comm counters vary with memory
addresses; ``PIMZdTree.rechunk_stale`` now orders the rebuilds by root
nid.  The suite-level assertions here lock that down.
"""

from __future__ import annotations

import numpy as np
from exec_oracle import exec_engine

from repro.eval.harness import PIMZdTreeAdapter, run_suite
from repro.workloads import (
    cosmos_like_points,
    osm_like_points,
    uniform_points,
    varden_points,
)

OPS = ("insert", "bc-10", "bf-10", "10-nn")


def _one_run(engine: str):
    data = uniform_points(4000, 3, seed=np.random.default_rng(123))
    fresh_rng = np.random.default_rng(456)

    def fresh(n: int) -> np.ndarray:
        return uniform_points(n, 3, seed=fresh_rng)

    ad = PIMZdTreeAdapter(data, n_modules=8, seed=5)
    with exec_engine(engine):
        ms = run_suite(ad, data=data, ops=OPS, batch=128, seed=11,
                       fresh_points=fresh)
        ad.tree.delete(uniform_points(200, 3, seed=np.random.default_rng(789)))
    return ms, ad.system.stats


def _assert_measurements_identical(a, b) -> None:
    assert len(a) == len(b)
    for ma, mb in zip(a, b):
        assert ma.op == mb.op
        assert ma.ops == mb.ops
        assert ma.elements == mb.elements
        assert ma.sim_time_s == mb.sim_time_s, ma.op
        assert ma.traffic_bytes == mb.traffic_bytes, ma.op
        assert (ma.cpu_s, ma.pim_s, ma.comm_s) == (mb.cpu_s, mb.pim_s,
                                                   mb.comm_s), ma.op
        assert ma.batch_times_s == mb.batch_times_s, ma.op
        assert ma.phases == mb.phases, ma.op


def test_two_harness_runs_are_identical():
    for mode in ("vectorized", "reference"):
        ms1, st1 = _one_run(mode)
        ms2, st2 = _one_run(mode)
        _assert_measurements_identical(ms1, ms2)
        assert st1 == st2, f"PIMStats differ between identical {mode} runs"


def test_generators_thread_one_rng():
    """Generators consume a caller-owned Generator; same seed → same stream."""
    for gen in (uniform_points, varden_points, cosmos_like_points,
                osm_like_points):
        r1, r2 = np.random.default_rng(42), np.random.default_rng(42)
        a = np.vstack([gen(500, 3, seed=r1) for _ in range(3)])
        b = np.vstack([gen(500, 3, seed=r2) for _ in range(3)])
        np.testing.assert_array_equal(a, b)
        # The stream advances: a second draw from the same Generator must
        # not repeat the first (i.e. no internal reseeding from a constant).
        assert not np.array_equal(a[:500], a[500:1000])
