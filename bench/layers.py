"""Per-layer timing from outside: proxies, spans, micro-benchmarks.

The traced rep hands ``ServeLoop`` proxies of its collaborators.  A proxy
forwards everything to the real object and records a span — name, start,
end, parent span, batch id — around the handful of methods that mark a
layer boundary.  Spans stay in memory until the run ends.  Layer names
are the ``repro`` module that owns the code behind the boundary.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
from repro.core.morton import morton_decode, morton_encode
from repro.eval.harness import make_adapter
from repro.eval.metrics import percentile
from repro.obs.export import latency_json
from repro.pim import PIMSystem
from repro.serve import LatencyStats
from repro.store import encode_tree
from repro.tune import attach_replication, attach_route_filters

from .workloads import serving_config

__all__ = ["Tracer", "span_cost_s", "layer_metrics", "micro_metrics",
           "install_metrics"]

# layer -> {method: span name}.  ``head_group`` is the first call of every
# batch-forming iteration of ServeLoop.run, so it opens a new batch id.
_BOUNDARIES = {
    "adapter": {"measure": "eval.harness.measure",
                "knn": "core.knn",
                "box_count": "core.range_query.bc",
                "box_fetch": "core.range_query.bf",
                "insert": "core.update.insert",
                "delete": "core.update.delete"},
    "queue": {"head_group": "serve.queue.head_group",
              "backlog": "serve.queue.backlog",
              "offer": "serve.queue.offer",
              "take": "serve.queue.take"},
    "policy": {"batch_size": "serve.batcher.batch_size",
               "observe": "serve.batcher.observe"},
    "rebalancer": {"step": "balance.step"},
    "store": {"checkpoint": "store.checkpoint"},
    "store.backend": {"wal_append": "store.wal.append"},
}
_ROOT = "serve.loop.run"


class _Proxy:
    """Stands in for ``target``: named methods are timed, the rest pass
    straight through (reads and writes), so the loop cannot tell."""

    def __init__(self, target, timed: dict) -> None:
        self.__dict__["_target"] = target
        self.__dict__.update(timed)

    def __getattr__(self, name):
        return getattr(self._target, name)

    def __setattr__(self, name, value) -> None:
        setattr(self._target, name, value)


class Tracer:
    """In-memory span recorder for one traced rep."""

    def __init__(self) -> None:
        # [name, start_s, end_s, parent span index or -1, batch id]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.batch = -1
        self.wal_bytes = 0

    def timed(self, name: str, fn, *, opens_batch: bool = False):
        spans, open_ = self.spans, self._open

        def call(*args, **kwargs):
            if opens_batch:
                self.batch += 1
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.batch]
            open_.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()

        return call

    def proxy(self, layer: str, obj):
        """The ``wrap`` callback of :func:`bench.workloads.build_rig`."""
        timed = {}
        for method, name in _BOUNDARIES[layer].items():
            fn = getattr(obj, method)
            if method == "wal_append":
                fn = self._counting_append(fn)
            timed[method] = self.timed(name, fn,
                                       opens_batch=method == "head_group")
        return _Proxy(obj, timed)

    def _counting_append(self, append):
        def counted(data: bytes):
            self.wal_bytes += len(data)
            return append(data)

        return counted

    def run(self, loop, requests):
        return self.timed(_ROOT, loop.run)(requests)

    def write_chrome_trace(self, path) -> None:
        """Chrome trace-event JSON (loads in Perfetto / chrome://tracing)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
             "args": {"span": i, "parent": parent, "batch": batch}}
            for i, (name, start, end, parent, batch) in enumerate(self.spans)
        ]
        Path(path).write_text(json.dumps({"traceEvents": events}))


def span_cost_s(calls: int = 20_000) -> float:
    """Host seconds one span adds to the call it wraps."""
    def noop():
        pass

    timed = Tracer().timed("calibration", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        timed()
    return max(0.0, (time.perf_counter() - t1) - (t1 - t0)) / calls


def layer_metrics(tracer: Tracer, rep) -> dict:
    """Everything the traced rep says about single layers.

    ``rep`` is the :class:`bench.measure.Rep` of the traced run.  Returns
    ``{metric name: (value, unit)}``.
    """
    result, rig = rep.result, rep.rig
    stats = result.stats
    offered = len(result.requests)
    done = max(1, stats.n_done)

    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    covered: dict[int, float] = defaultdict(float)  # span -> time in children
    for name, start, end, parent, _ in tracer.spans:
        busy[name] += end - start
        calls[name] += 1
        if parent >= 0:
            covered[parent] += end - start
    root = next(i for i, s in enumerate(tracer.spans) if s[0] == _ROOT)
    root_s = tracer.spans[root][2] - tracer.spans[root][1]

    def per_call_us(name: str) -> float:
        return busy[name] / calls[name] * 1e6 if calls[name] else 0.0

    out: dict[str, tuple[float, str]] = {}

    # adapter.measure minus the operation it measured: the snapshot/diff/
    # cost-model conversion the harness adds around every dispatch.
    overhead = sum((s[2] - s[1]) - covered[i]
                   for i, s in enumerate(tracer.spans)
                   if s[0] == "eval.harness.measure")
    n_measure = calls["eval.harness.measure"]
    out["eval.harness.measure_overhead_us"] = (
        overhead / n_measure * 1e6 if n_measure else 0.0, "us")
    out["eval.harness.measure_calls"] = (n_measure, "count")

    # Per request kind: host time from the adapter-method spans, simulated
    # time from the batch log.
    reqs: dict[str, int] = defaultdict(int)
    sim_s: dict[str, float] = defaultdict(float)
    for b in result.batches:
        reqs[b.kind] += b.size
        sim_s[b.kind] += b.service_s
    for kind, span, prefix in (
            ("knn", "core.knn", "core.knn."),
            ("bc", "core.range_query.bc", "core.range_query.bc_"),
            ("bf", "core.range_query.bf", "core.range_query.bf_"),
            ("insert", "core.update.insert", "core.update.insert_")):
        n = reqs[kind]
        out[prefix + "host_us_per_req"] = (
            busy[span] / n * 1e6 if n else 0.0, "us")
        out[prefix + "sim_us_per_req"] = (
            sim_s[kind] / n * 1e6 if n else 0.0, "us")
    out["core.knn.calls"] = (calls["core.knn"], "count")

    out["core.tree.build_ms"] = (rig.stages["build"] * 1e3, "ms")
    out["workloads.gen_ms"] = (rig.stages["gen"] * 1e3, "ms")
    out["serve.request.make_us_per_req"] = (
        rig.stages["requests"] / offered * 1e6, "us")

    # The simulated machine's own counters over the run, through the cost
    # model: the Fig. 6 CPU / PIM / communication split.
    c = rep.delta.total
    t = rig.adapter.tree.cost_model.time(c)
    out["pim.rounds_per_req"] = (c.rounds / done, "count")
    out["pim.pim_cycles_per_req"] = (c.pim_cycles / done, "cycles")
    out["pim.cpu_ops_per_req"] = (c.cpu_ops / done, "ops")
    out["pim.dram_words_per_req"] = (c.dram_words / done, "words")
    out["pim.comm_max_words_per_round"] = (
        c.comm_max_words / c.rounds if c.rounds else 0.0, "words")
    out["pim.mux_switches"] = (rep.delta.mux_switches, "count")
    out["pim.sim_cpu_share"] = (t.cpu_s / t.total_s, "share")
    out["pim.sim_pim_share"] = (t.pim_s / t.total_s, "share")
    out["pim.sim_comm_share"] = (t.comm_s / t.total_s, "share")
    out["pim.module_load_max_over_mean"] = (
        float(rep.loads.max() / rep.loads.mean()), "ratio")

    out["serve.queue.offer_us"] = (per_call_us("serve.queue.offer"), "us")
    out["serve.queue.take_us"] = (per_call_us("serve.queue.take"), "us")
    out["serve.batcher.busy_ms"] = (
        (busy["serve.batcher.batch_size"] + busy["serve.batcher.observe"])
        * 1e3, "ms")
    out["serve.batcher.mean_batch"] = (stats.mean_batch, "requests")
    out["serve.loop.batches"] = (stats.n_batches, "count")
    out["serve.loop.self_ms"] = ((root_s - covered[root]) * 1e3, "ms")

    # Host time of one loop iteration: first to last top-level span that
    # carries the batch's id (dispatch, the arrivals admitted during its
    # service, and any rebalance step or checkpoint that followed it).
    first: dict[int, float] = {}
    last: dict[int, float] = {}
    for _, start, end, parent, batch in tracer.spans:
        if parent == root and batch >= 0:
            first.setdefault(batch, start)
            last[batch] = end
    per_batch_ms = [(last[b] - first[b]) * 1e3 for b in first]
    out["serve.loop.host_batch_ms_p50"] = (percentile(per_batch_ms, 50.0), "ms")
    # p90 needs ten samples beyond it; 0 says the run was too short for it.
    out["serve.loop.host_batch_ms_p90"] = (
        percentile(per_batch_ms, 90.0) if len(per_batch_ms) >= 100 else 0.0,
        "ms")
    out["serve.loop.host_batch_samples"] = (len(per_batch_ms), "count")
    out["serve.loop.queue_wait_p99_ms"] = (stats.queue["p99"] * 1e3, "ms")

    # LatencyStats.compute runs inside ServeLoop.run, out of a proxy's
    # reach: time a second, direct call on the same inputs.
    t0 = time.perf_counter()
    LatencyStats.compute(result.requests, result.batches)
    t1 = time.perf_counter()
    json.dumps(latency_json(stats, batches=result.batches))
    t2 = time.perf_counter()
    out["serve.stats.compute_ms"] = ((t1 - t0) * 1e3, "ms")
    out["obs.export.latency_json_ms"] = ((t2 - t1) * 1e3, "ms")

    # Subsystems only full_varden_p256 switches on; 0 everywhere else
    # (the result line must carry every declared metric).
    flt = stats.filters or {}
    probes = flt.get("probes", 0)
    pruned = flt.get("queries_pruned", 0)
    out["route.filters.queries_pruned"] = (pruned, "count")
    out["route.filters.words_saved"] = (flt.get("words_saved", 0.0), "words")
    out["route.filters.prune_ratio"] = (
        pruned / probes if probes else 0.0, "ratio")
    out["route.filters.fp_probes"] = (flt.get("fp_probes", 0), "count")
    rep_ = stats.replication or {}
    out["replicate.flush_calls"] = (rep_.get("flushes", 0), "count")
    out["replicate.fanout_words"] = (rep_.get("words_fanned", 0.0), "words")
    n_ckpt = calls["store.checkpoint"]
    out["store.checkpoints"] = (n_ckpt, "count")
    out["store.checkpoint_ms"] = (
        busy["store.checkpoint"] / n_ckpt * 1e3 if n_ckpt else 0.0, "ms")
    out["store.wal_bytes_per_insert"] = (
        tracer.wal_bytes / reqs["insert"] if reqs["insert"] else 0.0, "bytes")
    snaps = [e["bytes_total"] for e in getattr(rig.store, "events", [])
             if e["kind"] == "checkpoint"]
    out["store.snapshot_bytes"] = (snaps[-1] if snaps else 0, "bytes")
    out["store.wal.append_us"] = (per_call_us("store.wal.append"), "us")
    n_steps = calls["balance.step"]
    out["balance.steps"] = (n_steps, "count")
    out["balance.step_ms"] = (
        busy["balance.step"] / n_steps * 1e3 if n_steps else 0.0, "ms")
    out["balance.moves"] = (getattr(rig.rebalancer, "migrations", 0), "count")
    return out


def _median_ms(fn, reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _round_us(n_modules: int, rounds: int = 300) -> float:
    """Host cost of one BSP round that charges 32 modules, array path."""
    system = PIMSystem(n_modules, seed=0)
    mids = np.arange(32) * (n_modules // 32)
    cycles = np.full(32, 100.0)
    words = np.full(32, 8.0)
    t0 = time.perf_counter()
    for _ in range(rounds):
        with system.round():
            system.charge_pim_array(mids, cycles)
            system.send_array(mids, words)
            system.recv_array(mids, words)
    return (time.perf_counter() - t0) / rounds * 1e6


def micro_metrics(scale) -> dict:
    """Direct-call micro-benchmarks that do not depend on the workload."""
    n, bits = scale.micro_keys, 21
    grid = np.random.default_rng(0).integers(0, 2**bits, size=(n, 3))
    keys = morton_encode(grid, bits)
    return {
        "core.morton.encode_ns_per_key": (
            _median_ms(lambda: morton_encode(grid, bits)) * 1e6 / n, "ns"),
        "core.morton.decode_ns_per_key": (
            _median_ms(lambda: morton_decode(keys, 3, bits)) * 1e6 / n, "ns"),
        "pim.model.round_us_p64": (_round_us(64), "us"),
        "pim.model.round_us_p2048": (_round_us(2048), "us"),
    }


def install_metrics(w, data, seed: int, tree) -> dict:
    """Timed direct calls into the install paths of the optional tiers.

    ``apply_serving_config`` installs replicas and filters in one call, so
    each is timed on its own against a throwaway adapter; the snapshot
    encoder is timed on the served ``tree``.  All 0 on workloads that run
    without these tiers.
    """
    names = ("replicate.install_ms", "route.filters.build_ms",
             "store.snapshot.encode_ms")
    if not w.everything_on:
        return {name: (0.0, "ms") for name in names}
    config = serving_config(w)
    adapter = make_adapter("pim", data, n_modules=w.n_modules, seed=seed)
    t0 = time.perf_counter()
    attach_replication(adapter, config)
    t1 = time.perf_counter()
    attach_route_filters(adapter, config, seed=seed)
    t2 = time.perf_counter()
    return dict(zip(names, (
        ((t1 - t0) * 1e3, "ms"),
        ((t2 - t1) * 1e3, "ms"),
        (_median_ms(lambda: encode_tree(tree)), "ms"),
    )))
