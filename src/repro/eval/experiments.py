"""The paper's §7 experiments, one function each.

Each ``run_*`` function reproduces one table or figure of the paper and
returns an :class:`ExperimentResult`: the printed table (headers + rows),
the paper reference, and in ``raw`` the unrounded values the figure
benchmarks assert on.  ``python -m repro.cli <name>`` and
``benchmarks/test_<figure>.py`` both call these functions, so both print
the same numbers.  Parameters default to the benchmarks' scaled-down
sizes (DESIGN.md) and can be raised toward paper scale on bigger
machines.

Every index, variant or ablation compared in one run inserts the same
points: each gets its own :func:`fresh_points` source for the dataset.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core import throughput_optimized
from ..workloads import (
    cosmos_like_points,
    osm_like_points,
    uniform_points,
    varden_points,
    zipf_mix_queries,
)
from .harness import (
    FIG5_OPS,
    PIMZdTreeAdapter,
    calibrate_box_side,
    make_adapter,
    run_op,
    run_suite,
)
from .metrics import percentile
from .report import (
    bar_chart,
    fig5_rows,
    format_table,
    phase_breakdown_table,
    speedup_summary,
)

__all__ = [
    "ExperimentResult",
    "DATASETS",
    "TABLE3_ABLATIONS",
    "fresh_points",
    "run_fig5",
    "run_latency",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_table2",
    "run_table3",
    "ALL_EXPERIMENTS",
]

DATASETS: dict[str, Callable] = {
    "uniform": uniform_points,
    "cosmos": cosmos_like_points,
    "osm": osm_like_points,
    "varden": varden_points,
}


@dataclass
class ExperimentResult:
    """One regenerated table/figure."""

    name: str
    paper_ref: str
    headers: list[str]
    rows: list[list]
    notes: str = ""
    raw: dict = field(default_factory=dict)

    def table(self) -> str:
        return format_table(self.headers, self.rows)

    def __str__(self) -> str:
        out = f"=== {self.name} ({self.paper_ref}) ===\n{self.table()}"
        if self.notes:
            out += f"\n{self.notes}"
        return out


def _generator(name: str) -> Callable:
    try:
        return DATASETS[name]
    except KeyError:
        raise ValueError(f"unknown dataset {name!r}; choose from {sorted(DATASETS)}")


def _dataset(name: str, n: int, seed: int) -> np.ndarray:
    return _generator(name)(n, 3, seed=seed)


def fresh_points(dataset: str, seed: int) -> Callable[[int], np.ndarray]:
    """A source of points to insert, drawn from ``dataset``'s distribution.

    ``fresh(m)`` returns the next ``m`` points of one seeded stream per
    ``(seed, dataset)``.  Two sources built with the same arguments yield
    the same points, so each side of a comparison gets its own.
    """
    gen = _generator(dataset)
    rng = np.random.default_rng((seed, sorted(DATASETS).index(dataset)))
    return lambda m: gen(m, 3, seed=rng)


def _box_sides(data: np.ndarray, ops: Sequence[str], seed: int) -> dict[int, float]:
    """Calibrated box sides for every box op's target coverage (§7.2)."""
    targets = sorted({int(o.split("-")[1]) for o in ops if o.startswith(("bc-", "bf-"))})
    return {t: calibrate_box_side(data, t, seed=seed) for t in targets}


# ======================================================================
# Fig. 5 — the end-to-end comparison
# ======================================================================
def run_fig5(
    dataset: str = "uniform",
    *,
    n: int = 40_000,
    batch: int = 512,
    n_modules: int = 64,
    seed: int = 7,
    ops: Sequence[str] = FIG5_OPS,
    indexes: Sequence[str] = ("pim", "pkd", "zd"),
) -> ExperimentResult:
    """Throughput + per-element traffic for all operations and indexes."""
    data = _dataset(dataset, n, seed)
    sides = _box_sides(data, ops, seed)
    results = {}
    for kind in indexes:
        adapter = make_adapter(kind, data, n_modules=n_modules)
        results[adapter.name] = run_suite(
            adapter, data=data, ops=ops, batch=batch, seed=seed,
            fresh_points=fresh_points(dataset, seed), box_sides=sides,
        )
        del adapter
        gc.collect()
    headers, rows = fig5_rows(results)
    # A terminal rendition of the Fig. 5 bars for one representative op.
    names = list(results)
    chart = bar_chart(
        names, [results[nm][-1].throughput / 1e6 for nm in names],
        unit=" MOp/s", log=True,
    )
    notes = f"throughput, {ops[-1]} (log-scale bars):\n{chart}"
    if "pim-zd-tree" in results and len(results) > 1:
        notes = f"{speedup_summary(results)}\n{notes}"
    return ExperimentResult(
        name=f"fig5-{dataset}",
        paper_ref="Fig. 5",
        headers=headers,
        rows=rows,
        notes=notes,
        raw=results,
    )


# ======================================================================
# §7.2 latency
# ======================================================================
def run_latency(
    dataset: str = "osm",
    *,
    n: int = 40_000,
    batch: int = 96,
    n_batches: int = 24,
    n_modules: int = 64,
    seed: int = 7,
    k: int = 1,
) -> ExperimentResult:
    """P50/P99 per-batch kNN latency for the three indexes."""
    data = _dataset(dataset, n, seed)
    rows = []
    p50: dict[str, float] = {}
    p99: dict[str, float] = {}
    for kind in ("pim", "pkd", "zd"):
        adapter = make_adapter(kind, data, n_modules=n_modules)
        rng = np.random.default_rng(seed + 1)
        lats = []
        for _ in range(n_batches):
            q = data[rng.integers(0, len(data), batch)]
            lats.append(adapter.measure(lambda: adapter.knn(q, k)).sim_time_s)
        p50[kind], p99[kind] = percentile(lats, 50), percentile(lats, 99)
        rows.append(
            [adapter.name, round(p50[kind] * 1e3, 3), round(p99[kind] * 1e3, 3)]
        )
        del adapter
        gc.collect()
    return ExperimentResult(
        name=f"latency-{dataset}",
        paper_ref="§7.2 latency",
        headers=["index", "P50 ms", "P99 ms"],
        rows=rows,
        notes="paper (absolute, full scale): pim 32.5 ms, pkd 44.9 ms, zd 210 ms",
        raw={"p50_s": p50, "p99_s": p99},
    )


# ======================================================================
# Fig. 6 — runtime breakdown
# ======================================================================
def run_fig6(
    *,
    n: int = 40_000,
    batch: int = 512,
    n_modules: int = 64,
    seed: int = 7,
    ops: Sequence[str] = ("insert", "bc-1", "bc-100", "bf-100", "100-nn"),
) -> ExperimentResult:
    """CPU / PIM / communication shares and per-phase attribution per op."""
    data = _dataset("uniform", n, seed)
    adapter = make_adapter("pim", data, n_modules=n_modules)
    sides = _box_sides(data, ops, seed)
    fresh = fresh_points("uniform", seed)
    ms = [
        run_op(adapter, op, data=data, batch=batch, seed=seed,
               box_sides=sides, fresh_points=fresh)
        for op in ops
    ]
    return ExperimentResult(
        name="fig6",
        paper_ref="Fig. 6",
        headers=["op", "cpu", "pim", "comm"],
        rows=[[m.op, *m.breakdown_fractions().values()] for m in ms],
        notes=f"per-phase attribution (charge-time):\n{phase_breakdown_table(ms)}",
        raw={"measurements": ms},
    )


# ======================================================================
# Fig. 7 — batch-size sensitivity
# ======================================================================
def run_fig7(
    *,
    n: int = 40_000,
    batch_sizes: Sequence[int] = (128, 256, 512, 1024, 2048, 4096),
    n_modules: int = 64,
    seed: int = 7,
) -> ExperimentResult:
    """INSERT throughput and traffic per op versus batch size."""
    data = _dataset("uniform", n, seed)
    rows = []
    for batch in batch_sizes:
        adapter = make_adapter("pim", data, n_modules=n_modules)
        fresh = uniform_points(batch, 3, seed=seed * 31 + batch)
        m = adapter.measure(lambda: adapter.insert(fresh))
        rows.append([batch, m.throughput / 1e6, m.traffic_bytes / batch])
        del adapter
        gc.collect()
    return ExperimentResult(
        name="fig7",
        paper_ref="Fig. 7",
        headers=["batch", "MOp/s", "traffic B/op"],
        rows=rows,
    )


# ======================================================================
# Fig. 8 — dataset-size sensitivity
# ======================================================================
def run_fig8(
    *,
    sizes: Sequence[int] = (10_000, 20_000, 40_000, 80_000),
    batch: int = 384,
    n_modules: int = 64,
    seed: int = 7,
) -> ExperimentResult:
    """1-NN throughput and traffic per element versus dataset size."""
    tp: dict[str, list[float]] = {}
    traffic: dict[str, list[float]] = {}
    for kind in ("pim", "pkd", "zd"):
        tp[kind], traffic[kind] = [], []
        for n in sizes:
            data = uniform_points(n, 3, seed=seed)
            adapter = make_adapter(kind, data, n_modules=n_modules)
            rng = np.random.default_rng(seed + n)
            q = data[rng.integers(0, n, batch)]
            m = adapter.measure(lambda: adapter.knn(q, 1))
            tp[kind].append(m.throughput / 1e6)
            traffic[kind].append(m.traffic_per_element)
            del adapter
            gc.collect()
    return ExperimentResult(
        name="fig8",
        paper_ref="Fig. 8",
        headers=["index"] + [f"n={n}" for n in sizes],
        rows=[[kind] + [round(v, 3) for v in tps] for kind, tps in tp.items()],
        notes="paper: PIM stable; Pkd degrades 1.4x, zd 1.6x over a 15x sweep",
        raw={"throughput": tp, "traffic": traffic},
    )


# ======================================================================
# Fig. 9 — skew resistance
# ======================================================================
def run_fig9(
    *,
    n: int = 40_000,
    batch: int = 768,
    fractions: Sequence[float] = (0.0, 0.002, 0.02, 0.2, 1.0),
    n_modules: int = 64,
    seed: int = 7,
) -> ExperimentResult:
    """1-NN throughput of both variants under Uniform+Varden query mixes."""
    data = _dataset("uniform", n, seed)
    tp: dict[str, list[float]] = {}
    rows = []
    for variant in ("pim", "pim-skew"):
        adapter = make_adapter(variant, data, n_modules=n_modules)
        tp[variant] = []
        for i, frac in enumerate(fractions):
            q = zipf_mix_queries(data, batch, frac, seed=seed * 100 + i)
            m = adapter.measure(lambda: adapter.knn(q, 1))
            tp[variant].append(m.throughput / 1e6)
        rows.append([adapter.variant] + [round(v, 3) for v in tp[variant]])
        # One tree at a time; a tree is cyclic, so only a collection frees it.
        del adapter
        gc.collect()
    return ExperimentResult(
        name="fig9",
        paper_ref="Fig. 9",
        headers=["variant"] + [f"varden={f:g}" for f in fractions],
        rows=rows,
        notes="paper: skew-resistant fluctuates <= 4.1%; throughput-optimized "
              "degrades 10.66x at 2% Varden",
        raw={"throughput": tp},
    )


# ======================================================================
# Table 2 — configuration properties
# ======================================================================
def run_table2(
    *,
    n: int = 40_000,
    batch: int = 512,
    n_modules: int = 64,
    seed: int = 7,
) -> ExperimentResult:
    """Space, and words and rounds per SEARCH / INSERT / 10-NN, per variant."""
    data = _dataset("uniform", n, seed)
    rng = np.random.default_rng(seed)

    def comm_per_op(adapter, fn, nops):
        snap = adapter.system.snapshot()
        fn()
        d = adapter.system.stats.diff(snap).total
        return d.comm_words / nops, d.rounds

    rows = []
    for variant in ("pim", "pim-skew"):
        adapter = make_adapter(variant, data, n_modules=n_modules)
        space = adapter.tree.space_words()["total"]
        point_words = len(data) * (adapter.tree.dims + 1)
        q = data[rng.integers(0, len(data), batch)]
        search_w, search_r = comm_per_op(adapter, lambda: adapter.tree.search(q), batch)
        fresh = uniform_points(batch, 3, seed=seed + 5)
        ins_w, _ = comm_per_op(adapter, lambda: adapter.insert(fresh), batch)
        kq = q[:128]
        knn_w, _ = comm_per_op(adapter, lambda: adapter.knn(kq, 10), len(kq))
        rows.append([
            adapter.variant, round(space / point_words, 2), round(search_w, 1),
            search_r, round(ins_w, 1), round(knn_w, 1),
        ])
        del adapter
        gc.collect()
    return ExperimentResult(
        name="table2",
        paper_ref="Table 2",
        headers=["config", "space/points", "search w/op", "rounds",
                 "insert w/op", "knn-10 w/op"],
        rows=rows,
    )


# ======================================================================
# Table 3 — implementation-technique ablations
# ======================================================================
TABLE3_ABLATIONS = {
    "lazy-counter": {"lazy_counters": False},
    "fast-zorder": {"fast_zorder": False},
    "fast-l2": {"fast_l2": False},
    "direct-api": {"direct_api": False},
}


def run_table3(
    *,
    n: int = 40_000,
    batch: int = 256,
    n_modules: int = 64,
    seed: int = 7,
    ops: Sequence[str] = ("insert", "bc-10", "bf-10", "10-nn"),
) -> ExperimentResult:
    """Per-element slowdown when each implementation technique is removed."""
    data = _dataset("uniform", n, seed)
    sides = _box_sides(data, ops, seed)

    def suite(**cfg_over) -> dict[str, float]:
        cfg = throughput_optimized(len(data), n_modules, **cfg_over)
        adapter = PIMZdTreeAdapter(data, n_modules=n_modules, config=cfg)
        fresh = fresh_points("uniform", seed)
        out = {}
        for op in ops:
            m = run_op(
                adapter, op, data=data, batch=batch, seed=seed,
                box_sides=sides, fresh_points=fresh,
            )
            out[op] = m.sim_time_s / max(1, m.elements)
        return out

    base = suite()
    slowdown = {}
    for name, over in TABLE3_ABLATIONS.items():
        abl = suite(**over)
        slowdown[name] = {op: abl[op] / base[op] for op in ops}
    return ExperimentResult(
        name="table3",
        paper_ref="Table 3",
        headers=["technique removed"] + list(ops),
        rows=[[name] + [round(s[op], 3) for op in ops] for name, s in slowdown.items()],
        notes="paper: lazy 1.49x insert; fast z-order 1.99/1.58/1.31/1.67x; "
              "fast l2 1.58x knn; direct API 1.06-1.09x",
        raw={"slowdown": slowdown},
    )


ALL_EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig5": run_fig5,
    "latency": run_latency,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "table2": run_table2,
    "table3": run_table3,
}
