"""The pinned serving workloads and the rig that builds one fresh rep.

A workload fixes everything but the seed: dataset family and size, module
count, request mix, query-box side, the *absolute* offered rate (requests
per simulated second) and the latency limit a request must meet.  Rates
and limits were chosen once, against the code at the commit that added
this benchmark, and are never re-derived from the code under test — a
change that speeds the simulated machine up must show as lower latency at
the same offered load, not as a higher load.  ``bench/README.md`` records
how each number was derived.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.eval.experiments import DATASETS
from repro.eval.harness import make_adapter
from repro.serve import AdmissionQueue, ServeLoop, make_requests
from repro.store import DurableStore, FileBackend
from repro.tune import apply_serving_config, default_space
from repro.workloads import poisson_arrivals

from . import REPO

__all__ = ["Workload", "Scale", "WORKLOADS", "SCALES", "Rig", "serving_config",
           "build_rig"]

# The dataset is part of the workload, like a benchmark's fixed corpus:
# ``--seed`` moves placement, arrivals and payloads, not the points.  (A
# Varden cloud's filament count swings ~3x with its generator seed, which
# alone moved comm words per request by 19% from seed to seed.)
DATA_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str            # key of repro.eval.experiments.DATASETS
    n_points: int
    n_modules: int
    mix: dict               # request kind -> weight
    box_side: float         # cube side covering ~10 points (Fig. 5's bc-10/bf-10)
    rate: float             # pinned offered load, requests per simulated second
    latency_limit_ms: float  # a request answered later than this has failed
    everything_on: bool = False  # replicas + route filters + rebalancer + store


@dataclass(frozen=True)
class Scale:
    requests: int           # offered per rep, one Poisson stream
    shrink: int             # dataset size divisor
    micro_keys: int         # keys per Morton micro-benchmark call
    # Batches left out of the latency percentiles.  The adaptive batcher
    # starts cold, probes sizes 1, 2, 4, ... and fits t(B) over a window
    # of 32 observations; at P=2048 the backlog that builds meanwhile, not
    # the steady state, set p99 (2.0 ms with a 10-25% seed-to-seed spread
    # against 1.0 ms and 3-4% once 1.5 windows have passed).
    warmup_batches: int

    @property
    def counted(self) -> int:
        """Head of the stream served under the profiler (~1.5x host time)."""
        return self.requests // 3

    @property
    def short(self) -> int:
        """Head of the stream served by the proxy-transparency pair and the
        overload burst.  A sixth keeps every run under half a minute."""
        return self.requests // 6


SCALES = {
    "full": Scale(requests=6000, shrink=1, micro_keys=1_000_000,
                  warmup_batches=48),
    # Smoke size for bench/test_bench.py.
    "tiny": Scale(requests=300, shrink=10, micro_keys=10_000,
                  warmup_batches=4),
}

_QUERY_MIX = {"knn": 70, "bc": 15, "bf": 10, "insert": 5}

WORKLOADS = {w.name: w for w in (
    Workload("knn_uniform_p64", "uniform", 40_000, 64, _QUERY_MIX,
             box_side=0.0625, rate=70_000.0, latency_limit_ms=0.6),
    Workload("knn_varden_p2048", "varden", 100_000, 2048, _QUERY_MIX,
             box_side=0.0007, rate=300_000.0, latency_limit_ms=6.0),
    Workload("insert_uniform_p64", "uniform", 40_000, 64,
             {"knn": 20, "bc": 10, "insert": 70},
             box_side=0.0625, rate=120_000.0, latency_limit_ms=0.5),
    Workload("full_varden_p256", "varden", 60_000, 256,
             {"knn": 50, "bc": 10, "bf": 10, "insert": 30},
             box_side=0.0007, rate=150_000.0, latency_limit_ms=5.0,
             everything_on=True),
)}


@dataclass
class Rig:
    """One rep's fresh world: data, adapter, serve loop, request stream."""

    workload: Workload
    data: object
    adapter: object
    loop: object
    requests: list
    rebalancer: object      # None unless the workload runs everything
    store: object           # likewise
    stages: dict            # set-up stage -> host seconds
    _tmpdir: Path | None

    @property
    def setup_s(self) -> float:
        return sum(self.stages.values())

    def close(self) -> None:
        if self._tmpdir is not None:
            shutil.rmtree(self._tmpdir, ignore_errors=True)
            self._tmpdir = None


def serving_config(w: Workload) -> dict:
    """The knob settings ``w`` serves under: the shipped defaults, plus
    every optional tier for the everything-on workload."""
    config = default_space().default_config()
    if w.everything_on:
        # At the default checkpoint budget (0.05) a 6000-request run takes
        # 2-3 snapshots, each a ~1 ms stall, and how many fall inside the
        # run decided p50 and p99 (17% seed-to-seed spread each).  At 0.2
        # it takes 9-10: the store is sampled often enough to be measured
        # and the spreads fall to 6-7%.
        config.update({"replicate.k": 2, "replicate.write_policy": "write-all",
                       "route.enabled": True, "rebalance.enabled": True,
                       "checkpoint.budget_fraction": 0.2})
    return config


def build_rig(w: Workload, seed: int, scale: Scale, *,
              rate_mult: float = 1.0, wrap=None) -> Rig:
    """Build everything one rep needs, timing each set-up stage.

    ``wrap(layer, obj)``, when given, replaces every object handed to
    ``ServeLoop`` (and the store's backend); the traced rep passes the
    tracer's proxy factory, the timed reps pass nothing.  The caller owns
    the rig and must ``close()`` it (the store's directory lives under
    ``.bench_tmp/`` in the checkout).
    """
    if wrap is None:
        def wrap(layer, obj):
            return obj

    stages: dict[str, float] = {}
    t = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal t
        now = time.perf_counter()
        stages[stage] = now - t
        t = now

    data = DATASETS[w.dataset](w.n_points // scale.shrink, 3, seed=DATA_SEED)
    lap("gen")
    adapter = make_adapter("pim", data, n_modules=w.n_modules, seed=seed)
    lap("build")

    config = serving_config(w)
    rebalancer = store = tmpdir = None
    parts = apply_serving_config(adapter, config, filter_seed=seed)
    if w.everything_on:
        rebalancer = parts["rebalancer"]
        root = REPO / ".bench_tmp"
        root.mkdir(exist_ok=True)
        tmpdir = Path(tempfile.mkdtemp(prefix=w.name + "-", dir=root))
        store = DurableStore(
            wrap("store.backend", FileBackend(tmpdir)),
            budget_fraction=config["checkpoint.budget_fraction"])
        store.attach(adapter.tree)
    loop = ServeLoop(
        wrap("adapter", adapter),
        wrap("queue", AdmissionQueue(1024)),
        wrap("policy", parts["policy"]),
        rebalancer=None if rebalancer is None else wrap("rebalancer", rebalancer),
        store=None if store is None else wrap("store", store))
    lap("hooks")

    arrivals = poisson_arrivals(w.rate * rate_mult, scale.requests,
                                seed=seed * 10 + 1)
    requests = make_requests(data, arrivals, mix=w.mix, k=10,
                             box_side=w.box_side, seed=seed * 10 + 2)
    lap("requests")
    return Rig(w, data, adapter, loop, requests, rebalancer, store, stages,
               tmpdir)
