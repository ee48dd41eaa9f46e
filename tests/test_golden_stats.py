"""Golden-file snapshots of full PIMStats for three canned workloads.

Every counter the simulator produces (aggregate and per-phase) is pinned
to a checked-in JSON file, and both execution engines — production and
the scalar oracle of ``tests/exec_oracle.py`` — must reproduce it
exactly — counters are sums of integer-valued per-element charges, so
float64 equality is well-defined and platform-stable.  Any change to
charging, round structure, phase attribution, routing, or the group
kernels shows up here as a precise per-phase diff.

Regenerating after an *intentional* cost-model change:

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_stats.py

(then review and commit the updated ``tests/golden/*.json``).  The files
are regenerated from the scalar oracle (the ``reference`` cases), and the
test asserts that both engines match them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib

import numpy as np
import pytest

from repro.core.geometry import Box
from repro.eval.harness import PIMZdTreeAdapter

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
REGEN = bool(os.environ.get("REGEN_GOLDEN"))


# ----------------------------------------------------------------------
# canned workloads (deterministic; rng.random/rng.integers only, whose
# streams are stable across numpy versions)
# ----------------------------------------------------------------------
def _boxes(centers: np.ndarray, side: float) -> list[Box]:
    return [Box(c - side / 2, c + side / 2) for c in centers]


def workload_uniform3d_queries() -> PIMZdTreeAdapter:
    """Read-mostly: kNN + range over a static uniform 3-D cloud."""
    rng = np.random.default_rng(1001)
    pts = rng.random((1500, 3))
    ad = PIMZdTreeAdapter(pts, n_modules=8, seed=3)
    q = pts[rng.integers(0, len(pts), size=64)] + rng.random((64, 3)) * 1e-4
    ad.tree.knn(np.clip(q, 0.0, 1.0), 8)
    boxes = _boxes(pts[rng.integers(0, len(pts), size=24)], 0.2)
    ad.tree.box_count(boxes)
    ad.tree.box_fetch(boxes)
    return ad


def workload_updates2d() -> PIMZdTreeAdapter:
    """Update-heavy: interleaved insert/delete/search on a 2-D cloud."""
    rng = np.random.default_rng(2002)
    pts = rng.random((1200, 2))
    ad = PIMZdTreeAdapter(pts, n_modules=8, variant="throughput", seed=4)
    ad.tree.insert(rng.random((300, 2)))
    ad.tree.search(pts[:100])
    ad.tree.delete(pts[rng.integers(0, len(pts), size=200)])
    ad.tree.knn(pts[rng.integers(0, len(pts), size=32)], 4)
    return ad


def workload_skewed5d() -> PIMZdTreeAdapter:
    """Adversarial: all queries and updates in one tiny 5-D corner."""
    rng = np.random.default_rng(3003)
    pts = rng.random((900, 5))
    ad = PIMZdTreeAdapter(pts, n_modules=8, variant="skew", seed=5)
    anchor = pts[0]
    q = np.clip(anchor + rng.random((48, 5)) * 1e-3, 0.0, 1.0)
    ad.tree.knn(q, 6)
    ad.tree.box_fetch(_boxes(np.tile(anchor, (12, 1)), 4e-3))
    ad.tree.insert(np.clip(anchor + rng.random((150, 5)) * 1e-3, 0.0, 1.0))
    ad.tree.box_count(_boxes(np.tile(anchor, (12, 1)), 4e-3))
    return ad


WORKLOADS = {
    "uniform3d-queries": workload_uniform3d_queries,
    "updates2d": workload_updates2d,
    "skewed5d": workload_skewed5d,
}


# ----------------------------------------------------------------------
def stats_to_jsonable(stats) -> dict:
    def counters(c) -> dict:
        return {k: float(v) if not isinstance(v, int) else v
                for k, v in dataclasses.asdict(c).items()}

    return {
        "total": counters(stats.total),
        "phases": {lab: counters(c) for lab, c in sorted(stats.phases.items())},
        "mux_switches": stats.mux_switches,
    }


def run_workload(name: str) -> dict:
    ad = WORKLOADS[name]()
    return stats_to_jsonable(ad.system.stats)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("engine", ["reference", "vectorized"], indirect=True)
def test_golden_stats(name: str, engine: str):
    path = GOLDEN_DIR / f"{name}.json"
    got = run_workload(name)
    if REGEN:
        if engine == "reference":  # golden files come from the oracle
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden file {path}; regenerate with "
        "REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_stats.py"
    )
    want = json.loads(path.read_text())
    if got != want:
        lines = [f"{name} [{engine}] diverges from {path.name}:"]
        for lab in sorted(set(got["phases"]) | set(want["phases"])):
            a, b = want["phases"].get(lab), got["phases"].get(lab)
            if a != b:
                lines.append(f"  phase {lab}:\n    want={a}\n    got ={b}")
        if got["total"] != want["total"]:
            lines.append(f"  total:\n    want={want['total']}\n"
                         f"    got ={got['total']}")
        raise AssertionError("\n".join(lines))
