"""Experiment harness: index adapters, box calibration, operation suites.

The harness abstracts the three indexes behind one interface so every
benchmark (one per paper table/figure) runs the identical workload script:

* :class:`PIMZdTreeAdapter` — measures through the PIM simulator's
  counters and the UPMEM cost model;
* :class:`ZdTreeAdapter` / :class:`PkdTreeAdapter` — measure through the
  baseline CPU meter and the Xeon cost model.

Operation naming follows Fig. 5: ``insert``, ``bc-K`` (BoxCount covering
on average K points), ``bf-K`` (BoxFetch), ``K-nn``.  Query boxes are
centred on sampled data points with sides calibrated per dataset so the
average result size matches K, as in §7.2.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..baselines import CPUCostMeter, PkdTree, ZdTree
from ..baselines.cpu_cost import XEON_BASELINE
from ..core import Box, PIMZdTree, throughput_optimized, skew_resistant
from ..faults.errors import FaultError
from ..pim import PIMSystem
from .metrics import OpMeasurement

__all__ = [
    "PIMZdTreeAdapter",
    "ZdTreeAdapter",
    "PkdTreeAdapter",
    "calibrate_box_side",
    "make_boxes",
    "run_suite",
    "FIG5_OPS",
    "make_adapter",
]

# Joint machine scaling (see DESIGN.md): the paper runs 2048 modules and
# 300M-point warmups; the simulation runs P modules and n points.  Both
# machines are scaled by f = P/2048 (threads, bandwidths, per-round
# overheads) and both LLCs by the dataset ratio so the cache-to-working-set
# pressure — the memory wall the paper is about — is preserved.
PAPER_WARMUP_N = 300_000_000
PAPER_MODULES = 2048
_CACHE_PRESSURE_C = 4
_LLC_FLOOR_BYTES = 32 * 2**10


def machine_scale(n_modules: int) -> float:
    return n_modules / PAPER_MODULES


def scaled_llc_bytes(machine_llc_bytes: int, n_points: int) -> int:
    scale = n_points / PAPER_WARMUP_N * _CACHE_PRESSURE_C
    return max(_LLC_FLOOR_BYTES, int(machine_llc_bytes * scale))


FIG5_OPS = (
    "insert",
    "bc-1",
    "bc-10",
    "bc-100",
    "bf-1",
    "bf-10",
    "bf-100",
    "1-nn",
    "10-nn",
    "100-nn",
)


# ======================================================================
# adapters
# ======================================================================
class PIMZdTreeAdapter:
    """PIM-zd-tree under the UPMEM-like cost model."""

    def __init__(
        self,
        points: np.ndarray,
        *,
        n_modules: int = 64,
        variant: str = "throughput",
        seed: int = 0,
        config=None,
        bounds=None,
        llc_bytes: int | None = None,
        cost_model=None,
        tracer=None,
        fault_plan=None,
    ) -> None:
        if llc_bytes is None:
            llc_bytes = scaled_llc_bytes(22 * 2**20, len(points))
        if config is None:
            if variant == "throughput":
                config = throughput_optimized(len(points), n_modules)
            elif variant == "skew":
                config = skew_resistant(n_modules)
            else:
                raise ValueError(f"unknown variant {variant!r}")
        # The fault plan is attached only after construction: the machine
        # is healthy at load time, and the build/upload charges stay
        # byte-identical to a fault-free adapter's.
        self.system = PIMSystem(n_modules, seed=seed, llc_bytes=llc_bytes,
                                tracer=tracer)
        if cost_model is not None:
            cost_model = cost_model.scaled(n_modules)
        self.tree = PIMZdTree(points, config=config, system=self.system,
                              bounds=bounds, cost_model=cost_model)
        if fault_plan is not None:
            self.system.attach_faults(fault_plan)
        self.name = "pim-zd-tree"
        self.variant = config.name

    @property
    def size(self) -> int:
        return self.tree.size

    def measure(self, fn: Callable[[], int]) -> OpMeasurement:
        """Run ``fn`` and convert the counter delta to simulated metrics.

        ``fn`` returns the number of elements produced.  Besides the
        aggregate CPU/PIM/comm split, the per-phase counters (charge-time
        attribution, see ``repro.pim.model``) are converted to seconds and
        carried in :attr:`OpMeasurement.phases` for the Fig. 6 breakdown.

        If ``fn`` hits an injected fault, the work charged *up to* the
        fault is measured and attached to the raised
        :class:`~repro.faults.FaultError` as ``e.measurement`` — a failed
        attempt still spent simulated time, and the serving layer bills it
        to the retry.
        """
        start = self.system.snapshot()
        try:
            elements = fn()
        except FaultError as e:
            e.measurement = self._measurement_since(start, 0)
            raise
        return self._measurement_since(start, elements)

    def _measurement_since(self, start, elements: int) -> OpMeasurement:
        # One pricing pass over the delta ledger: row 0 is the total, then
        # one row per phase label, in first-booking order.
        delta = self.system.stats.diff(start)
        priced = self.tree.cost_model.price(delta)
        cpu_s, pim_s, comm_s, total_s, traffic = priced[0]
        return OpMeasurement(
            index=self.name,
            op="",
            ops=0,
            elements=elements,
            sim_time_s=total_s,
            traffic_bytes=traffic,
            cpu_s=cpu_s,
            pim_s=pim_s,
            comm_s=comm_s,
            phases={label: {"cpu_s": p[0], "pim_s": p[1], "comm_s": p[2]}
                    for label, p in zip(delta.labels, priced[1:])
                    if p[3] > 0},
        )

    # -- operation surface ------------------------------------------------
    def insert(self, pts: np.ndarray) -> int:
        self.tree.insert(pts)
        return len(pts)

    def delete(self, pts: np.ndarray) -> int:
        return self.tree.delete(pts)

    def knn(self, queries: np.ndarray, k: int) -> int:
        out = self.tree.knn(queries, k)
        return sum(len(d) for d, _ in out)

    def box_count(self, boxes: Sequence[Box]) -> int:
        self.tree.box_count(boxes)
        return len(boxes)

    def box_fetch(self, boxes: Sequence[Box]) -> int:
        out = self.tree.box_fetch(boxes)
        return sum(len(a) for a in out)

    def fail_over(self, mid: int) -> int:
        """Rebuild module ``mid``'s shard on live modules (see
        :func:`repro.faults.fail_over`); returns meta-nodes moved."""
        return self.tree.fail_over(mid)["metas_moved"]

    def crash_restart(self, store, *, tracer=None) -> tuple[float, dict]:
        """Restart from the durable tier after a whole-machine kill.

        Recovers tree + system from ``store`` (a
        :class:`repro.store.DurableStore`), swaps them into the adapter,
        and re-attaches the old system's fault plan (its fired
        ``machine_killed`` flag prevents an immediate re-kill).  Returns
        ``(restart seconds, recovery info)``: the recovered system is
        fresh, so *every* counter on it is restart cost — converting its
        stats through the cost model gives the time-to-first-query
        denominator directly.
        """
        plan = self.system.fault_plan
        res = store.recover(tracer=tracer, cost_model=self.tree.cost_model)
        self.system = res.system
        self.tree = res.tree
        if plan is not None:
            self.system.attach_faults(plan)
        t = self.tree.cost_model.time(self.system.stats.total)
        info = {
            "replayed": res.replayed,
            "skipped_uncommitted": res.skipped_uncommitted,
            "wal_records": res.wal_records,
            "snapshot_words": res.snapshot_words,
            "torn_tail": res.torn_tail is not None,
        }
        return t.total_s, info


class _BaselineAdapter:
    """Common measurement plumbing for the shared-memory baselines."""

    def __init__(self, n_points: int, scale_to_modules: int) -> None:
        f = machine_scale(scale_to_modules)
        cache_scale = scaled_llc_bytes(XEON_BASELINE.llc_bytes, n_points) / (
            XEON_BASELINE.llc_bytes
        )
        self.meter = CPUCostMeter(XEON_BASELINE.scaled(f, cache_scale))
        self.tree = None
        self.name = "baseline"

    @property
    def size(self) -> int:
        return self.tree.size

    def measure(self, fn: Callable[[], int]) -> OpMeasurement:
        start = self.meter.snapshot()
        elements = fn()
        delta = self.meter.measure_since(start)
        t = self.meter.time_s(delta)
        return OpMeasurement(
            index=self.name,
            op="",
            ops=0,
            elements=elements,
            sim_time_s=t,
            traffic_bytes=self.meter.traffic_bytes(delta),
            cpu_s=t,
        )

    def insert(self, pts: np.ndarray) -> int:
        self.tree.insert(pts)
        return len(pts)

    def delete(self, pts: np.ndarray) -> int:
        return self.tree.delete(pts)

    def knn(self, queries: np.ndarray, k: int) -> int:
        out = self.tree.knn_batch(queries, k)
        return sum(len(d) for d, _ in out)

    def box_count(self, boxes: Sequence[Box]) -> int:
        for b in boxes:
            self.tree.box_count(b)
        return len(boxes)

    def box_fetch(self, boxes: Sequence[Box]) -> int:
        return sum(len(self.tree.box_fetch(b)) for b in boxes)


class ZdTreeAdapter(_BaselineAdapter):
    """Shared-memory zd-tree baseline [12]."""

    def __init__(self, points: np.ndarray, *, bounds=None,
                 scale_to_modules: int = 64, **kw) -> None:
        super().__init__(len(points), scale_to_modules)
        self.tree = ZdTree(points, meter=self.meter, bounds=bounds, **kw)
        self.name = "zd-tree"


class PkdTreeAdapter(_BaselineAdapter):
    """Pkd-tree baseline [63]."""

    def __init__(self, points: np.ndarray, *, bounds=None,
                 scale_to_modules: int = 64, **kw) -> None:
        super().__init__(len(points), scale_to_modules)
        self.tree = PkdTree(points, meter=self.meter, **kw)
        self.name = "pkd-tree"


# Kwargs only meaningful for the PIM adapter.  The baselines ignore them so
# one sweep dict can drive all four kinds through :func:`make_adapter`.
_PIM_ONLY_KWARGS = ("seed", "cost_model", "tracer", "llc_bytes", "config",
                    "variant", "fault_plan")


def make_adapter(kind: str, points: np.ndarray, **kw):
    """Factory: ``kind`` ∈ {"pim", "pim-skew", "zd", "pkd"}.

    Accepts one shared kwargs dict for every kind: PIM-only knobs
    (``cost_model=``, ``tracer=``, ``llc_bytes=``, ``config=``, ...) are
    dropped for the CPU baselines instead of raising ``TypeError``.
    """
    if kind == "pim":
        return PIMZdTreeAdapter(points, variant="throughput", **kw)
    if kind == "pim-skew":
        return PIMZdTreeAdapter(points, variant="skew", **kw)
    if kind == "zd":
        nm = kw.pop("n_modules", 64)
        for name in _PIM_ONLY_KWARGS:
            kw.pop(name, None)
        return ZdTreeAdapter(points, scale_to_modules=nm, **kw)
    if kind == "pkd":
        nm = kw.pop("n_modules", 64)
        kw.pop("bounds", None)
        for name in _PIM_ONLY_KWARGS:
            kw.pop(name, None)
        return PkdTreeAdapter(points, scale_to_modules=nm, **kw)
    raise ValueError(f"unknown adapter kind {kind!r}")


# ======================================================================
# query-box calibration (§7.2: boxes covering on average 1/10/100 points)
# ======================================================================
def calibrate_box_side(points: np.ndarray, target: float, *, n_probe: int = 48,
                       seed: int = 0, tol: float = 0.15) -> float:
    """Binary-search a box side so boxes centred on data points cover
    ``target`` points on average.

    Raises :class:`ValueError` on degenerate inputs (zero extent along
    every axis — e.g. all-duplicate points — which would otherwise
    silently calibrate a zero-sided box); warns if the search has not
    converged to within ``tol`` after 40 bisections and returns the
    midpoint of the final bracket.
    """
    rng = np.random.default_rng(seed)
    points = np.asarray(points, dtype=np.float64)
    n, dims = points.shape
    centers = points[rng.integers(0, n, size=n_probe)]

    def avg_count(side: float) -> float:
        half = side / 2.0
        total = 0
        for c in centers:
            inside = np.all(np.abs(points - c) <= half, axis=1)
            total += int(inside.sum())
        return total / n_probe

    lo_s, hi_s = 0.0, float(np.ptp(points, axis=0).max()) * 2.0
    if hi_s <= 0.0:
        raise ValueError(
            "calibrate_box_side: degenerate point set (zero extent on every "
            "axis); cannot calibrate a query-box side"
        )
    for _ in range(40):
        mid = (lo_s + hi_s) / 2.0
        got = avg_count(mid)
        if abs(got - target) <= tol * target:
            return mid
        if got < target:
            lo_s = mid
        else:
            hi_s = mid
    import warnings

    warnings.warn(
        f"calibrate_box_side: no convergence to target={target} within 40 "
        f"bisections (bracket [{lo_s:.3g}, {hi_s:.3g}]); returning midpoint",
        RuntimeWarning,
        stacklevel=2,
    )
    return (lo_s + hi_s) / 2.0


def make_boxes(points: np.ndarray, side: float, m: int, seed: int = 0) -> list[Box]:
    """``m`` axis-aligned cubes of the given side centred on data samples."""
    rng = np.random.default_rng(seed)
    points = np.asarray(points, dtype=np.float64)
    centers = points[rng.integers(0, len(points), size=m)]
    half = side / 2.0
    return [Box(c - half, c + half) for c in centers]


# ======================================================================
# operation suites
# ======================================================================
def run_op(adapter, op: str, *, data: np.ndarray, batch: int, seed: int = 0,
           box_sides: dict[int, float] | None = None,
           fresh_points: Callable[[int], np.ndarray] | None = None,
           n_batches: int = 1) -> OpMeasurement:
    """Run ``n_batches`` batches of one Fig. 5 operation; aggregate metrics."""
    rng = np.random.default_rng(seed)
    agg: OpMeasurement | None = None
    for b in range(n_batches):
        if op == "insert":
            assert fresh_points is not None, "insert needs a point source"
            pts = fresh_points(batch)
            m = adapter.measure(lambda: adapter.insert(pts))
        elif op.endswith("-nn"):
            k = int(op.split("-")[0])
            q = data[rng.integers(0, len(data), size=batch)]
            q = q + rng.normal(scale=1e-4, size=q.shape)
            m = adapter.measure(lambda: adapter.knn(q, k))
        elif op.startswith("bc-") or op.startswith("bf-"):
            target = int(op.split("-")[1])
            assert box_sides is not None and target in box_sides
            boxes = make_boxes(data, box_sides[target], batch, seed=seed * 997 + b)
            if op.startswith("bc-"):
                m = adapter.measure(lambda: adapter.box_count(boxes))
            else:
                m = adapter.measure(lambda: adapter.box_fetch(boxes))
        else:
            raise ValueError(f"unknown op {op!r}")
        m.op = op
        m.ops = batch
        if agg is None:
            agg = m
            agg.batch_times_s = [m.sim_time_s]
        else:
            agg.elements += m.elements
            agg.sim_time_s += m.sim_time_s
            agg.traffic_bytes += m.traffic_bytes
            agg.cpu_s += m.cpu_s
            agg.pim_s += m.pim_s
            agg.comm_s += m.comm_s
            agg.ops += batch
            agg.batch_times_s.append(m.sim_time_s)
            agg.merge_phases(m)
    return agg


def run_suite(adapter, *, data: np.ndarray, ops: Sequence[str] = FIG5_OPS,
              batch: int = 1000, seed: int = 0,
              fresh_points: Callable[[int], np.ndarray] | None = None,
              box_sides: dict[int, float] | None = None,
              n_batches: int = 1) -> list[OpMeasurement]:
    """Run the full Fig. 5 operation suite on one index."""
    if box_sides is None and any(o.startswith(("bc-", "bf-")) for o in ops):
        targets = sorted({int(o.split("-")[1]) for o in ops if o.startswith(("bc-", "bf-"))})
        box_sides = {t: calibrate_box_side(data, t, seed=seed) for t in targets}
    out = []
    for op in ops:
        out.append(
            run_op(
                adapter, op, data=data, batch=batch, seed=seed,
                box_sides=box_sides, fresh_points=fresh_points,
                n_batches=n_batches,
            )
        )
    return out
