"""Paper-scale smoke: the array simulator core at P = 2048.

The scalar per-module core (the test oracle in ``tests/sim_oracle.py``)
tops out around P = 64 — every round close walks Python objects; the
paper's headline configuration is P = 2048.  Two guarantees, checked at
that scale:

* **Counter-exactness** — ``PIMSystem`` must leave every PIMStats counter
  byte-identical to the scalar oracle, on a real index workload sharded
  over 2048 modules *and* on a synthetic round-charging storm driven
  straight through the array entry points.
* **Speed** — the round-accounting core itself must be at least 10×
  faster than the scalar oracle at P = 2048 charging volumes.

Run with:  PYTHONPATH=src python -m pytest benchmarks/test_paper_scale.py -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

import repro.eval.harness
from repro.eval.harness import PIMZdTreeAdapter, make_boxes
from repro.pim import CHARGE_PIM, CHARGE_RECV, CHARGE_SEND, PIMSystem
from repro.workloads import uniform_points

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from exec_oracle import exec_engine, reference_exec  # noqa: E402
from sim_oracle import ScalarPIMSystem  # noqa: E402

P = 2048
SEED = 11
MIN_SPEEDUP = 10.0


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


# ======================================================================
# differential sanity: real index workload at P = 2048
# ======================================================================
def _run_stack(engine: str, data, q, boxes, fresh, dele):
    ad = PIMZdTreeAdapter(data, n_modules=P, seed=SEED)
    tree = ad.tree
    with exec_engine(engine):
        out = {
            "knn": tree.knn(q, 10),
            "bc": tree.box_count(boxes),
        }
        tree.insert(fresh)
        out["ndel"] = tree.delete(dele)
        out["knn2"] = tree.knn(q, 10)
    tree.check_invariants()
    return out, ad.system.stats


def test_p2048_sim_modes_identical():
    """Scalar oracle vs vector core on an index sharded over 2048 modules."""
    rng = np.random.default_rng(SEED)
    data = uniform_points(20_000, 3, seed=SEED)
    q = data[rng.integers(0, len(data), size=64)] + 1e-4
    boxes = make_boxes(data, 0.12, 16, seed=SEED + 1)
    fresh = uniform_points(2_000, 3, seed=SEED + 2)
    dele = data[rng.integers(0, len(data), size=500)]

    with reference_exec() as mp:
        mp.setattr(repro.eval.harness, "PIMSystem", ScalarPIMSystem)
        ref_out, ref_stats = _run_stack("reference", data, q, boxes, fresh,
                                        dele)
    vec_out, vec_stats = _run_stack("vectorized", data, q, boxes, fresh, dele)

    for key in ref_out:
        _assert_equal(ref_out[key], vec_out[key], key)

    if ref_stats != vec_stats:
        lines = []
        for lab in sorted(set(ref_stats.phases) | set(vec_stats.phases)):
            pa = ref_stats.phases.get(lab)
            pb = vec_stats.phases.get(lab)
            if pa != pb:
                lines.append(f"phase {lab}:\n  scalar={pa}\n  vector={pb}")
        raise AssertionError("PIMStats diverge at P=2048:\n" + "\n".join(lines))
    assert ref_stats.to_dict() == vec_stats.to_dict()


# ======================================================================
# wall-clock: the round-accounting core itself, Fig. 5 charging volumes
# ======================================================================
ROUNDS = 300
PHASES = ("search", "update", "balance")


def _charging_storm(system_cls):
    """ROUNDS rounds of full-width array charges through one system.

    Every round touches all P modules with integer-valued, round-varying
    cycle/word amounts — the access pattern of a saturated Fig. 5 batch.
    The scalar oracle books each ``charge_sequence`` element by element,
    so both cores run the exact same charge sequence through the same
    API and must book the exact same stats.
    """
    system = system_cls(P, seed=SEED)
    mids = np.arange(P, dtype=np.intp)
    base = (np.arange(P, dtype=np.float64) % 97) + 1.0
    t0 = time.perf_counter()
    for r in range(ROUNDS):
        with system.round():
            for p, phase in enumerate(PHASES[: 2 + r % 2]):
                with system.phase(phase):
                    system.charge_sequence(CHARGE_PIM, mids,
                                           base + float((r + p) % 13))
                    system.charge_sequence(CHARGE_SEND, mids, base)
                    system.charge_sequence(CHARGE_RECV, mids,
                                           np.float64(2.0))
    wall = time.perf_counter() - t0
    return system.stats, wall


def test_p2048_round_core_speedup():
    scalar_stats, scalar_wall = _charging_storm(ScalarPIMSystem)
    vector_stats, vector_wall = _charging_storm(PIMSystem)

    assert scalar_stats.to_dict() == vector_stats.to_dict()

    speedup = scalar_wall / vector_wall
    print(f"\npaper-scale core: scalar {scalar_wall:.2f}s, "
          f"vector {vector_wall:.2f}s, speedup {speedup:.1f}x "
          f"({ROUNDS} rounds x {P} modules)")
    assert speedup >= MIN_SPEEDUP, (
        f"vector core only {speedup:.1f}x faster than the scalar oracle at "
        f"P={P} (need >= {MIN_SPEEDUP}x): scalar {scalar_wall:.2f}s vs "
        f"vector {vector_wall:.2f}s"
    )
