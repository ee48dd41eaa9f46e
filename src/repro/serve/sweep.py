"""Multiprocess sweep runner: paper-scale serve runs sharded over processes.

The vector simulator core removes the per-module Python overhead, but a
1M+-request open-loop run is still bounded by the serving loop itself
(batch forming, per-request bookkeeping).  The sweep runner shards the
offered load across worker processes: shard ``i`` of ``S`` models an
independent serving replica that owns ``1/S`` of the traffic — its own
session from :func:`repro.serve.session.build_session` (same dataset,
same index), its own arrival process and request stream drawn from a
per-shard seed (``seed + 1000·i``), and its own virtual clock.

Sharding semantics, not a simulation of one bigger machine: latencies are
pooled across shards before the percentile summary (every request's
latency counts once), counts are summed, and the aggregate rate is the
sum of per-shard rates — the standard way replicated serving deployments
report fleet throughput.  Because each shard is deterministic given its
seed and the merge is by shard index, the merged result is byte-stable no
matter how the OS schedules the workers.

Workers are plain ``multiprocessing`` processes (fork where available,
spawn otherwise); ``procs <= 1`` runs every shard inline in this process,
which is what CI uses for reproducibility checks.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from .stats import latency_summary

__all__ = ["SweepResult", "SweepShardError", "run_shard", "run_sweep"]


class SweepShardError(RuntimeError):
    """One shard of a sweep failed.

    Raised by :func:`run_sweep` in the *calling* process whichever way the
    shard ran (inline or in a worker), so a failure surfaces as one
    exception naming the shard index and its seed — enough to re-run just
    that shard with ``run_shard`` — instead of a bare multiprocessing
    traceback with no indication of which replica died.  The worker-side
    traceback is preserved on ``worker_traceback``.
    """

    def __init__(self, shard_index: int, seed: int, message: str,
                 worker_traceback: str | None = None) -> None:
        super().__init__(
            f"sweep shard {shard_index} (seed {seed}) failed: {message}"
        )
        self.shard_index = int(shard_index)
        self.seed = int(seed)
        self.worker_traceback = worker_traceback


@dataclass
class SweepResult:
    """Merged outcome of one sharded serve sweep."""

    n_shards: int
    n_offered: int
    n_done: int
    n_failed: int
    n_timed_out: int
    n_rejected: int
    n_shed: int
    aggregate_throughput: float     # sum of per-shard completed/makespan
    aggregate_goodput: float
    latency: dict[str, float]       # pooled percentiles, seconds
    queue: dict[str, float]
    service: dict[str, float]
    wall_s: float                   # end-to-end wall-clock of the sweep
    shard_wall_s: list[float] = field(default_factory=list)
    shard_seeds: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def table(self) -> str:
        lines = [
            f"shards            {self.n_shards}",
            f"offered           {self.n_offered:,}",
            f"completed         {self.n_done:,}",
            f"rejected/shed     {self.n_rejected:,}/{self.n_shed:,}",
            f"failed/timed-out  {self.n_failed:,}/{self.n_timed_out:,}",
            f"agg throughput    {self.aggregate_throughput:,.0f} req/s",
            f"agg goodput       {self.aggregate_goodput:,.0f} req/s",
            f"latency p50/p99   {self.latency['p50'] * 1e3:.3f}ms / "
            f"{self.latency['p99'] * 1e3:.3f}ms",
            f"wall clock        {self.wall_s:.1f}s "
            f"(slowest shard {max(self.shard_wall_s):.1f}s)"
            if self.shard_wall_s else f"wall clock        {self.wall_s:.1f}s",
        ]
        return "\n".join(lines)


# ======================================================================
# one shard (module-level so it pickles under spawn)
# ======================================================================
def run_shard(spec: dict) -> dict:
    """Run one serve shard described by ``spec``; returns a plain dict.

    ``spec`` holds :class:`~repro.serve.session.ServeSpec` fields (absent
    ones take the spec's defaults, except ``queue_depth``: 4096) plus an
    optional ``shard`` index; the shard is built by
    :func:`~repro.serve.session.build_session`, so it means exactly what
    the same spec means to ``repro serve``.  Any other key is a
    ``ValueError`` naming it.  Everything in and out is picklable.
    """
    from .request import DEGRADED, DONE
    from .session import ServeSpec, build_session

    t0 = time.perf_counter()
    fields = {"queue_depth": 4096, **spec}
    fields.pop("shard", None)
    unknown = sorted(set(fields) - {f.name for f in
                                    dataclasses.fields(ServeSpec)})
    if unknown:
        raise ValueError(f"unknown shard spec key(s): {', '.join(unknown)}")
    result = build_session(ServeSpec(**fields)).run()
    s = result.stats
    answered = sorted(
        (r for r in result.requests if r.status in (DONE, DEGRADED)),
        key=lambda r: r.rid)
    return {
        "seed": int(spec["seed"]),
        "wall_s": time.perf_counter() - t0,
        "n_offered": s.n_offered,
        "n_done": s.n_done,
        "n_failed": s.n_failed,
        "n_timed_out": s.n_timed_out,
        "n_rejected": s.n_rejected,
        "n_shed": s.n_shed,
        "throughput": s.throughput,
        "goodput": s.goodput,
        "latency_s": [r.latency_s for r in answered],
        "queue_s": [r.queue_s for r in answered],
        "service_s": [r.service_s for r in answered],
    }


def _run_shard_trapped(spec: dict) -> dict:
    """``run_shard`` with failures reified as a picklable marker dict.

    A worker process cannot raise a rich exception across the pool
    boundary without losing the shard identity, so failures travel home
    as data and :func:`run_sweep` re-raises them as
    :class:`SweepShardError`.  Module-level so it pickles under spawn;
    dispatches through the module global so tests can monkeypatch
    ``run_shard`` (fork workers inherit the patch).
    """
    try:
        return run_shard(spec)
    except Exception as exc:  # noqa: BLE001 - reified, re-raised by caller
        return {
            "shard_error": {
                "shard_index": int(spec.get("shard", -1)),
                "seed": int(spec["seed"]),
                "message": f"{type(exc).__name__}: {exc}",
                "worker_traceback": traceback.format_exc(),
            }
        }


def _map_specs(fn, specs: list[dict], procs: int) -> list[dict]:
    """``[fn(s) for s in specs]``, over a worker pool when ``procs > 1``.

    ``pool.map`` keeps input order, so the result does not depend on how
    the OS schedules the workers.  ``fn`` must be module-level (it is
    pickled by import path); fork where available, spawn otherwise.
    """
    if procs <= 1 or len(specs) <= 1:
        return [fn(s) for s in specs]
    import multiprocessing as mp

    try:
        ctx = mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = mp.get_context("spawn")
    with ctx.Pool(processes=min(procs, len(specs))) as pool:
        return pool.map(fn, specs)


def _raise_if_failed(shards: list[dict]) -> None:
    for s in shards:
        err = s.get("shard_error")
        if err is not None:
            raise SweepShardError(**err)


# ======================================================================
# the sweep
# ======================================================================
def _shard_specs(*, procs: int, total_requests: int, seed: int,
                 spec_kw: dict) -> list[dict]:
    """Split ``total_requests`` over up to ``procs`` shard specs.

    Earlier shards take the remainder (sizes differ by at most one);
    shard ``i`` serves with seed ``seed + 1000·i``.  Zero-request shards
    are dropped, so ``procs > total_requests`` yields one single-request
    shard per request.
    """
    n_shards = max(1, min(int(procs), int(total_requests)))
    base, extra = divmod(int(total_requests), n_shards)
    specs = []
    for i in range(n_shards):
        reqs = base + (1 if i < extra else 0)
        if reqs == 0:
            continue
        specs.append({**spec_kw, "shard": i, "seed": int(seed + 1000 * i),
                      "requests": reqs})
    return specs


def run_sweep(
    *,
    dataset: str = "uniform",
    n: int = 20_000,
    n_modules: int = 2048,
    index: str = "pim",
    total_requests: int = 1_000_000,
    rate: float,
    procs: int | None = None,
    seed: int = 7,
    mix: dict[str, float] | None = None,
    k: int = 10,
    deadline_s: float = math.inf,
    queue_depth: int = 4096,
    overflow: str = "reject",
    arrival: str = "poisson",
    tenants: dict[str, float] | None = None,
    tune_config: dict | None = None,
    staleness_s: float = 1e-3,
) -> SweepResult:
    """Shard ``total_requests`` across ``procs`` serve replicas and merge.

    ``rate`` is the *per-shard* offered rate (each replica sees its own
    independent arrival process at this rate).  ``procs`` defaults to
    ``os.cpu_count()`` capped at 8; each shard gets seed ``seed + 1000·i``
    for its arrival/request streams while sharing the dataset (drawn from
    ``seed`` so every replica serves the same index).  ``tune_config`` is
    a resolved :mod:`repro.tune` config dict (``None``: the shipped
    defaults) and ``staleness_s`` the primary-async staleness bound; the
    keywords are the :class:`~repro.serve.session.ServeSpec` fields a
    sharded sweep can honour, and every shard is built from them by
    :func:`~repro.serve.session.build_session`.
    """
    if procs is None:
        procs = min(8, os.cpu_count() or 1)
    procs = max(1, int(procs))
    spec_kw = {
        "dataset": dataset, "n": int(n), "data_seed": int(seed),
        "n_modules": int(n_modules), "index": index,
        "rate": float(rate), "mix": mix, "k": int(k),
        "deadline_s": float(deadline_s),
        "queue_depth": int(queue_depth), "overflow": overflow,
        "arrival": arrival, "tenants": tenants,
        "config": tune_config, "staleness_s": float(staleness_s),
    }
    specs = _shard_specs(procs=procs, total_requests=total_requests,
                         seed=seed, spec_kw=spec_kw)

    t0 = time.perf_counter()
    shards = _map_specs(_run_shard_trapped, specs, procs)
    _raise_if_failed(shards)
    wall = time.perf_counter() - t0

    lat = np.concatenate([np.asarray(s["latency_s"]) for s in shards]) \
        if shards else np.empty(0)
    que = np.concatenate([np.asarray(s["queue_s"]) for s in shards]) \
        if shards else np.empty(0)
    srv = np.concatenate([np.asarray(s["service_s"]) for s in shards]) \
        if shards else np.empty(0)
    return SweepResult(
        n_shards=len(shards),
        n_offered=sum(s["n_offered"] for s in shards),
        n_done=sum(s["n_done"] for s in shards),
        n_failed=sum(s["n_failed"] for s in shards),
        n_timed_out=sum(s["n_timed_out"] for s in shards),
        n_rejected=sum(s["n_rejected"] for s in shards),
        n_shed=sum(s["n_shed"] for s in shards),
        aggregate_throughput=sum(s["throughput"] for s in shards),
        aggregate_goodput=sum(s["goodput"] for s in shards),
        latency=latency_summary(lat),
        queue=latency_summary(que),
        service=latency_summary(srv),
        wall_s=wall,
        shard_wall_s=[s["wall_s"] for s in shards],
        shard_seeds=[s["seed"] for s in shards],
    )
