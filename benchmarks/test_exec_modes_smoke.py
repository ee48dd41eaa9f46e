"""Oracle smoke: Fig. 5 configs on production and on the scalar engine.

Two guarantees, checked on the real benchmark scale (n = 100k) rather
than the small tier-1 workloads:

* **Counter-exactness** — the round kernels must leave every simulated
  measurement (PIMStats, sim time, traffic, per-phase split)
  byte-identical to the scalar engine of ``tests/exec_oracle.py``
  (``reference_exec()``).  Checked twice: uniform at P = 64, and Varden
  at P = 2048 — a round there pushes thousands of (meta, task-group)
  pairs through one kernel call, which is what stresses the cross-group
  result/emission ordering.
* **Speed** — the whole point of the kernels: on the uniform P = 64 run
  the suite's wall-clock must be at least 5× faster than the scalar
  engine's.  The P = 2048 run is identity-only.

Run with:  PYTHONPATH=src python -m pytest benchmarks/test_exec_modes_smoke.py -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.eval import FIG5_OPS, calibrate_box_side, run_suite
from repro.eval.harness import PIMZdTreeAdapter
from repro.workloads import uniform_points, varden_points

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from exec_oracle import exec_engine  # noqa: E402

N = 100_000
BATCH = 256
SEED = 7

# (dataset generator, modules, required production-over-oracle speedup)
CASES = {
    "uniform-p64": (uniform_points, 64, 5.0),
    "varden-p2048": (varden_points, 2048, None),
}


def _run(engine: str, data, sides, n_modules: int):
    fresh_rng = np.random.default_rng(SEED * 1000)

    def fresh(n: int) -> np.ndarray:
        return uniform_points(n, 3, seed=fresh_rng)

    ad = PIMZdTreeAdapter(data, n_modules=n_modules, seed=SEED)
    with exec_engine(engine):
        t0 = time.perf_counter()
        ms = run_suite(ad, data=data, ops=FIG5_OPS, batch=BATCH, seed=SEED,
                       fresh_points=fresh, box_sides=sides)
        wall = time.perf_counter() - t0
    return ms, ad.system.stats, wall


@pytest.mark.parametrize("case", sorted(CASES))
def test_fig5_production_matches_the_oracle(case):
    gen, n_modules, min_speedup = CASES[case]
    data = gen(N, 3, seed=SEED)
    sides = {t: calibrate_box_side(data, t, seed=SEED) for t in (1, 10, 100)}
    ref_ms, ref_stats, ref_wall = _run("reference", data, sides, n_modules)
    vec_ms, vec_stats, vec_wall = _run("vectorized", data, sides, n_modules)

    # --- identical simulated measurements, op by op -------------------
    for a, b in zip(ref_ms, vec_ms):
        assert a.op == b.op
        assert a.elements == b.elements, a.op
        assert a.sim_time_s == b.sim_time_s, a.op
        assert a.traffic_bytes == b.traffic_bytes, a.op
        assert a.phases == b.phases, a.op

    # --- identical full stats, with a per-phase diff on failure -------
    if ref_stats != vec_stats:
        lines = []
        for lab in sorted(set(ref_stats.phases) | set(vec_stats.phases)):
            pa = ref_stats.phases.get(lab)
            pb = vec_stats.phases.get(lab)
            if pa != pb:
                lines.append(f"phase {lab}:\n  ref={pa}\n  vec={pb}")
        raise AssertionError(
            f"PIMStats diverge at n=100k ({case}):\n" + "\n".join(lines))

    # --- wall-clock speedup -------------------------------------------
    speedup = ref_wall / vec_wall
    print(f"\noracle smoke [{case}]: scalar engine {ref_wall:.2f}s, "
          f"production {vec_wall:.2f}s, speedup {speedup:.2f}x")
    if min_speedup is not None:
        assert speedup >= min_speedup, (
            f"production suite only {speedup:.2f}x faster than the oracle "
            f"(need >= {min_speedup}x): ref {ref_wall:.2f}s vs vec {vec_wall:.2f}s"
        )
