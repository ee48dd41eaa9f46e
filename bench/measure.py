"""The rep protocol: what one ``--trace 0`` and one ``--trace 1`` run do.

Both clocks are read on the same rep.  The *simulated* clock is a pure
function of (workload, seed), so its metrics are exact; the *host* clock
is the wall time ``ServeLoop.run`` took to produce them.
"""

from __future__ import annotations

import cProfile
import gc
import resource
import statistics
import time
from dataclasses import dataclass

from repro.eval.metrics import percentile
from repro.serve.request import DEGRADED, DONE

from .layers import (Tracer, install_metrics, layer_metrics, micro_metrics,
                     span_cost_s)
from .oracle import check_answers, sim_digest
from .workloads import Rig, Scale, Workload, build_rig

__all__ = ["END_TO_END_UNITS", "EXACT", "RunOutput", "run_untraced",
           "run_traced"]

END_TO_END_UNITS = {
    "setup_s": "s",
    "host_us_per_req": "us",
    "py_calls_per_req": "count",
    "peak_rss_mb": "MiB",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "sim_service_us_per_req": "us",
    "sim_comm_words_per_req": "words",
}
# Pure functions of (workload, seed): equal to the last digit on a re-run.
EXACT = ("py_calls_per_req", "sim_p50_ms", "sim_p99_ms",
         "sim_service_us_per_req", "sim_comm_words_per_req")


@dataclass
class RunOutput:
    metrics: dict           # name -> (value, unit)
    attempted: int
    failed: int
    problems: list          # correctness failures; empty means correct
    notes: dict             # sample counts behind the metrics, same shape


@dataclass
class Rep:
    rig: Rig
    result: object          # repro.serve.ServeResult
    wall_s: float           # host seconds inside ServeLoop.run
    delta: object           # PIMStats charged during the run
    loads: object           # per-module PIM cycles charged during the run

    @property
    def ok(self) -> int:
        """Requests answered in full within the workload's latency limit."""
        limit_s = self.rig.workload.latency_limit_ms * 1e-3
        return sum(1 for r in self.result.requests
                   if r.status == DONE and r.latency_s <= limit_s)


def _serve(w: Workload, seed: int, scale: Scale, *, limit: int | None = None,
           rate_mult: float = 1.0, tracer: Tracer | None = None,
           profile: cProfile.Profile | None = None) -> Rep:
    """Build a fresh rig and serve its stream (or its first ``limit``
    requests) once.  Caller closes the rig."""
    rig = build_rig(w, seed, scale, rate_mult=rate_mult,
                    wrap=None if tracer is None else tracer.proxy)
    requests = rig.requests[:limit]
    system = rig.adapter.system
    start, loads0 = system.snapshot(), system.module_loads()
    gc.collect()
    t0 = time.perf_counter()
    if tracer is not None:
        result = tracer.run(rig.loop, requests)
    elif profile is not None:
        result = profile.runcall(rig.loop.run, requests)
    else:
        result = rig.loop.run(requests)
    wall_s = time.perf_counter() - t0
    return Rep(rig, result, wall_s, system.stats.diff(start),
               system.module_loads() - loads0)


def run_untraced(w: Workload, seed: int, seconds: float, scale: Scale
                 ) -> RunOutput:
    """End-to-end metrics: timed reps with nothing attached, then a count.

    The first rep gives every simulated metric and the first host-time
    sample.  While ``seconds`` is not used up the same stream is served
    again on a fresh rig: one more host-time sample, and a check that the
    replay is byte-identical.  A last rep serves the head of the stream
    under the profiler for the exact call count.
    """
    problems: list[str] = []
    walls, setups = [], []
    began = time.perf_counter()
    while True:
        rep = _serve(w, seed, scale)
        try:
            walls.append(rep.wall_s)
            setups.append(rep.rig.setup_s)
            digest = sim_digest(rep.rig, rep.result)
            if len(walls) == 1:
                first, stats = digest, rep.result.stats
                ok = rep.ok
                steady = [r.latency_s for r in rep.result.requests
                          if r.status in (DONE, DEGRADED)
                          and r.batch_id >= scale.warmup_batches]
                service_s = sum(b.service_s for b in rep.result.batches)
                comm_words = rep.delta.total.comm_words
                problems += check_answers(rep.rig, rep.result, seed)
            elif digest != first:
                problems.append("replaying the stream changed the simulated "
                                "output")
        finally:
            rep.rig.close()
        if time.perf_counter() - began + setups[-1] + walls[-1] > seconds:
            break

    profile = cProfile.Profile()
    rep = _serve(w, seed, scale, limit=scale.counted, profile=profile)
    try:
        setups.append(rep.rig.setup_s)
        calls = sum(entry.callcount for entry in profile.getstats())
        counted = len(rep.result.requests)
    finally:
        rep.rig.close()

    values = {
        "setup_s": statistics.median(setups),
        "host_us_per_req": statistics.median(walls) / stats.n_offered * 1e6,
        "py_calls_per_req": calls / counted,
        # ru_maxrss is KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_p50_ms": percentile(steady, 50.0) * 1e3,
        "sim_p99_ms": percentile(steady, 99.0) * 1e3,
        "sim_service_us_per_req": service_s / max(1, stats.n_done) * 1e6,
        "sim_comm_words_per_req": comm_words / max(1, stats.n_done),
    }
    metrics = {name: (values[name], unit)
               for name, unit in END_TO_END_UNITS.items()}
    notes = {"timed_reps": (len(walls), "count"),
             "latency_samples": (len(steady), "count"),
             "counted_requests": (counted, "count")}
    return RunOutput(metrics, stats.n_offered, stats.n_offered - ok,
                     problems, notes)


def run_traced(w: Workload, seed: int, scale: Scale, trace_out=None
               ) -> RunOutput:
    """Per-layer metrics from one rep served behind timing proxies.

    First the head of the stream is served twice, plain and behind
    proxies: the two must be byte-identical on the simulated clock (the
    proxies may time the run, never steer it).  A last, plain rep offers
    the head of the stream at 1.1x the pinned rate, for the simulated
    clock only.
    """
    problems: list[str] = []
    metrics = micro_metrics(scale)

    plain = _serve(w, seed, scale, limit=scale.short)
    try:
        reference = sim_digest(plain.rig, plain.result)
    finally:
        plain.rig.close()
    probe = _serve(w, seed, scale, limit=scale.short, tracer=Tracer())
    try:
        if sim_digest(probe.rig, probe.result) != reference:
            problems.append("the timing proxies changed the simulated output")
    finally:
        probe.rig.close()

    tracer = Tracer()
    rep = _serve(w, seed, scale, tracer=tracer)
    try:
        metrics.update(layer_metrics(tracer, rep))
        # Spans cost ~1 us each against ~2 ms of work per request, far
        # below what a difference of two noisy walls could resolve: the
        # overhead is the span count times a calibrated cost per span.
        spent = len(tracer.spans) * span_cost_s()
        metrics["bench.trace_overhead_frac"] = (
            spent / (rep.wall_s - spent), "share")
        metrics.update(install_metrics(w, rep.rig.data, seed,
                                       rep.rig.adapter.tree))
        attempted = len(rep.result.requests)
        failed = attempted - rep.ok
    finally:
        rep.rig.close()
    if trace_out is not None:
        tracer.write_chrome_trace(trace_out)

    over = _serve(w, seed, scale, limit=scale.short, rate_mult=1.1)
    try:
        stats = over.result.stats
        metrics["serve.loop.overload_p99_ms"] = (
            stats.latency["p99"] * 1e3, "ms")
        metrics["serve.queue.overload_reject_frac"] = (
            (stats.n_rejected + stats.n_shed) / stats.n_offered, "share")
    finally:
        over.rig.close()
    notes = {"spans": (len(tracer.spans), "count")}
    return RunOutput(metrics, attempted, failed, problems, notes)
