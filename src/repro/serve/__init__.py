"""Open-loop serving layer over the measured index adapters (``repro.serve``).

Closed-loop benchmarks (one pre-formed batch at a time) reproduce the
paper's throughput figures but cannot speak to tail latency, queueing or
saturation — the metrics a serving stack is judged on.  This package adds
the missing layer on top of the existing harness adapters:

* arrival processes live in ``repro.workloads.arrivals`` (Poisson /
  bursty / diurnal-replay);
* :class:`AdmissionQueue` — bounded depth, explicit backpressure
  (reject or shed-oldest; never a silent drop);
* :class:`AdaptiveBatchPolicy` / :class:`FixedBatchPolicy` — continuous
  batch forming, with the adaptive policy tuning batch size online from
  the cost model's round-overhead amortisation curve (Fig. 7);
* :class:`ServeLoop` — an event-loop scheduler advancing a virtual clock
  by each batch's measured :class:`~repro.pim.SimTime`, stamping
  per-request enqueue/dispatch/complete times;
* :class:`LatencyStats` — p50/p90/p99/p999 latency, time-in-queue vs
  time-in-service, goodput under deadline; exported as JSON/CSV through
  ``repro.obs`` and surfaced by ``python -m repro.cli serve``;
* :class:`ServeSpec` / :func:`build_session` (``repro.serve.session``) —
  the one place a serving run is assembled from a description; the CLI,
  sweep shards and the tuner's evaluator all go through it;
* :class:`TenantPolicy` (``repro.serve.tenants``) — multi-tenant
  admission: weighted-fair dequeue with SLO-class weights, fair-share
  shedding, and per-tenant latency/goodput breakdowns in the stats;
  composes with K-way chunk replication (``repro.replicate``) for the
  tenant-isolation story.

Under a :class:`repro.faults.FaultPlan` the loop is *resilient*: typed
faults from the simulator are retried with exponential backoff, a dead
module's shard is failed over (rebuilt from the host-resident index,
charged under the ``"recovery"`` phase), queued requests expire after a
per-request timeout, and exhausted query batches complete with partial
results — every request still ends in exactly one terminal state, and
:class:`LatencyStats` reports availability alongside goodput.  Driven
from the CLI via ``python -m repro.cli faults``.

Everything runs on the simulated clock, so serve runs are deterministic:
identical inputs produce byte-identical stats.
"""

from .batcher import AdaptiveBatchPolicy, FixedBatchPolicy
from .loop import BatchRecord, ServeLoop, ServeResult
from .queue import AdmissionQueue, OVERFLOW_POLICIES
from .request import KINDS, Request, make_requests
from .session import ServeSpec, _make_loop, build_session, resolve_rate
from .stats import LatencyStats, latency_summary
from .sweep import SweepResult, SweepShardError, run_shard, run_sweep
from .tenants import DEFAULT_TENANT, SLO_CLASSES, TenantPolicy

__all__ = [
    "AdaptiveBatchPolicy",
    "AdmissionQueue",
    "BatchRecord",
    "DEFAULT_TENANT",
    "FixedBatchPolicy",
    "KINDS",
    "LatencyStats",
    "OVERFLOW_POLICIES",
    "Request",
    "SLO_CLASSES",
    "ServeLoop",
    "ServeResult",
    "ServeSpec",
    "SweepResult",
    "SweepShardError",
    "TenantPolicy",
    "build_session",
    "calibrate_capacity",
    "latency_summary",
    "make_requests",
    "resolve_rate",
    "run_shard",
    "run_sweep",
    "serve",
]


def calibrate_capacity(adapter, data, *, kind: str = "knn", k: int = 10,
                       batch: int = 256, seed: int = 0) -> float:
    """Measured service capacity (requests/s) at a reference batch size.

    Runs one batch of ``kind`` through ``adapter.measure`` and returns
    ``batch / service_seconds`` — the sustained rate at good amortisation,
    used to express offered load as a fraction of capacity.  Queries are
    read-only but do warm the adapter's simulated LLC; calibrate on a
    throwaway adapter when byte-exact downstream stats matter.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    if kind == "knn":
        q = data[rng.integers(0, len(data), size=batch)]
        q = q + rng.normal(scale=1e-4, size=q.shape)
        m = adapter.measure(lambda: adapter.knn(q, k))
    elif kind == "insert":
        lo, hi = data.min(axis=0), data.max(axis=0)
        pts = lo + rng.random((batch, data.shape[1])) * (hi - lo)
        m = adapter.measure(lambda: adapter.insert(pts))
    else:
        raise ValueError(f"cannot calibrate capacity on kind {kind!r}")
    if m.sim_time_s <= 0:
        raise RuntimeError("calibration batch took zero simulated time")
    return batch / m.sim_time_s


def serve(adapter, requests, *, queue_depth: int = 1024,
          overflow: str = "reject", policy=None,
          max_retries: int = 3, backoff_s: float = 1e-4,
          timeout_s: float | None = None, degraded_mode: bool = True,
          failover: bool = True, rebalancer=None,
          tenants=None, replication=None) -> ServeResult:
    """One-call serve run over a caller-built adapter and request list
    (:func:`repro.serve.session.build_session` builds those too).

    The fault-resilience knobs (``max_retries``, ``backoff_s``,
    ``timeout_s``, ``degraded_mode``, ``failover``) are forwarded to
    :class:`ServeLoop`; all are inert on a fault-free adapter except
    ``timeout_s``, which expires over-age queued requests regardless.
    ``rebalancer`` (a :class:`repro.balance.OnlineRebalancer`) enables
    budget-capped background migration between batches.

    ``tenants`` (a :class:`TenantPolicy` or a tenant→weight dict) turns
    the admission queue into weighted-fair dequeue with fair-share
    shedding.  ``replication`` (a
    :class:`repro.replicate.ReplicationConfig`) attaches a ReplicaSet to
    the adapter's tree and installs the initial K-way copies (charged)
    before serving starts.
    """
    if policy is None:
        policy = AdaptiveBatchPolicy()
    if replication is not None:
        from ..replicate import ReplicaSet

        ReplicaSet(adapter.tree, replication).replicate_all()
    loop = _make_loop(adapter, policy, queue_depth=queue_depth,
                      overflow=overflow, tenants=tenants,
                      max_retries=max_retries, backoff_s=backoff_s,
                      timeout_s=timeout_s, degraded_mode=degraded_mode,
                      failover=failover, rebalancer=rebalancer)
    return loop.run(requests)
