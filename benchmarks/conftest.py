"""Shared benchmark infrastructure.

Each figure and table benchmark regenerates one table or figure of the
paper's §7 evaluation by calling its runner in ``repro.eval.experiments``
(the same function ``python -m repro.cli <name>`` runs), records the
*simulated* metrics (throughput, traffic per element) in
``benchmark.extra_info``, and prints the paper-style rows so the run log
can be compared against the paper (see EXPERIMENTS.md for the recorded
comparison).  The fixtures below serve the benches that have no runner
(ablations, cost-model robustness, execution-engine smoke).

Scale: warmups default to 40k points (the paper uses 300M on real silicon;
DESIGN.md documents the joint machine scaling that keeps the shape
comparable), with P = 64 simulated modules.
"""

from __future__ import annotations

import pytest

from repro.eval import calibrate_box_side, fresh_points
from repro.eval.experiments import DATASETS

WARMUP_N = 40_000
BATCH = 512
N_MODULES = 64
SEED = 7

_NAMES = ("uniform", "cosmos", "osm")


@pytest.fixture(scope="session")
def datasets():
    return {name: DATASETS[name](WARMUP_N, 3, seed=SEED) for name in _NAMES}


@pytest.fixture(scope="session")
def fresh_points_factory():
    """Per-dataset fresh-point sources (:func:`repro.eval.fresh_points`):
    each call returns a new source, so two built the same way produce
    identical streams."""
    return lambda name: fresh_points(name, SEED)


@pytest.fixture(scope="session")
def box_sides(datasets):
    """Calibrated box sides per dataset per target coverage (§7.2)."""
    out = {}
    for name, data in datasets.items():
        out[name] = {
            t: calibrate_box_side(data, t, seed=SEED) for t in (1, 10, 100)
        }
    return out
