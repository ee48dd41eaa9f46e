"""One way to build and run a serving session (``repro.serve.session``).

Every serving entry point — ``repro serve`` / ``faults`` / ``tune apply``
/ ``store demo``, each ``sweep`` shard, the tuner's candidate evaluator —
assembles the same pipeline, and this module is the only place it is
written down: dataset → offered rate (given, or ``load`` × capacity
calibrated on a throwaway probe adapter) → arrivals → requests → index
adapter → replicas → route filters → rebalancer → durable store →
admission queue + batch policy + :class:`ServeLoop`.

:class:`ServeSpec` is the typed, picklable description of one run and
:func:`build_session` turns it (plus the live objects a spec cannot
carry: fault plan, tracer, storage backend) into a :class:`Session`.
Seed discipline, which makes two sessions from one spec byte-identical:
the dataset is drawn from ``data_seed``, the adapter's placement and the
calibration batch from ``seed``, arrivals from ``seed + 1``, request
payloads from ``seed + 2``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from ..eval.experiments import _dataset
from ..eval.harness import make_adapter
from ..tune.apply import apply_serving_config, make_index_config
from ..tune.space import default_space
from ..workloads import ARRIVALS
from .loop import ServeLoop, ServeResult
from .queue import AdmissionQueue
from .request import KINDS, make_requests
from .tenants import TenantPolicy

__all__ = ["ServeSpec", "Session", "build_session", "resolve_rate"]


@dataclass(frozen=True)
class ServeSpec:
    """Everything that determines one serving run (all picklable)."""

    # the world being served
    dataset: str = "uniform"
    n: int = 20_000
    n_modules: int = 32
    index: str = "pim"
    seed: int = 7
    data_seed: int | None = None    # None ⇒ ``seed``; sweep shards share one
    # offered traffic
    arrival: str = "poisson"
    requests: int = 2000
    rate: float | None = None       # req/s of simulated time; None ⇒ ``load``
    load: float = 0.8               # fraction of calibrated capacity
    mix: dict | None = None         # kind → weight (None ⇒ make_requests')
    k: int = 10
    deadline_s: float = math.inf
    tenants: dict | None = None     # tenant → weight (None ⇒ single tenant)
    # admission
    queue_depth: int = 1024
    overflow: str = "reject"
    # knobs: a repro.tune config dict (None ⇒ the shipped defaults)
    config: dict | None = None
    staleness_s: float = 1e-3
    # fault resilience / durability (ServeLoop keywords)
    max_retries: int = 3
    backoff_s: float = 1e-4
    timeout_s: float | None = None
    degraded_mode: bool = True
    failover: bool = True
    max_restarts: int = 4
    # online controller
    adapt: bool = False
    adapt_window: int = 32

    def validate(self) -> "ServeSpec":
        """Check every field; returns the spec with ``config`` completed
        and ``data_seed`` resolved.  Raises :class:`ValueError` with a
        one-line message — cheap, so it runs before any data exists."""
        for name in ("n", "n_modules", "requests", "k", "queue_depth",
                     "adapt_window", "rate", "load", "deadline_s",
                     "timeout_s"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ValueError(f"{name} must be positive (got {v})")
        for name in ("staleness_s", "max_retries", "backoff_s",
                     "max_restarts"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0 (got {getattr(self, name)})")
        mix = self.mix
        if mix is not None and (set(mix) - set(KINDS) or sum(mix.values()) <= 0
                                or min(mix.values()) < 0):
            raise ValueError(f"mix must give request kinds {KINDS} weights "
                             f">= 0 with a positive sum (got {mix})")
        if self.tenants is not None:
            TenantPolicy(weights=dict(self.tenants))  # positive weights
        config = default_space().validate(self.config or {})
        if self.index in ("zd", "pkd"):
            # The CPU baselines have no PIM tree to hang mechanisms on.
            on = [name for name, off in (("rebalance.enabled", False),
                                         ("replicate.k", 1),
                                         ("route.enabled", False))
                  if config[name] != off]
            if on:
                raise ValueError(f"{', '.join(on)} need a pim index adapter "
                                 f"(got --index {self.index!r})")
        return dataclasses.replace(
            self, config=config,
            data_seed=self.seed if self.data_seed is None else self.data_seed)


@dataclass
class Session:
    """A built serving run: call :meth:`run` (once) to serve it."""

    spec: ServeSpec             # validated, ``rate`` resolved
    capacity: float | None      # calibrated req/s (None: rate was given)
    adapter: object
    loop: ServeLoop
    requests: list
    parts: dict                 # apply_serving_config's dict + store, controller

    def run(self) -> ServeResult:
        return self.loop.run(self.requests)


def _make_loop(adapter, policy, *, queue_depth: int = 1024,
               overflow: str = "reject", tenants=None, **loop_kw) -> ServeLoop:
    """Admission queue + serve loop over ``adapter`` (``loop_kw`` are
    :class:`ServeLoop` keywords)."""
    return ServeLoop(
        adapter, AdmissionQueue(queue_depth, overflow=overflow,
                                tenants=tenants),
        policy, **loop_kw)


def _resolve(spec: ServeSpec):
    """``(spec, capacity, data)``: ``spec`` validated with its ``rate``
    pinned, and the dataset it serves.  A spec without a rate offers
    ``load`` × capacity, measured at a well-amortised reference batch on a
    throwaway fault-free adapter — so the serving adapter starts cold and
    capacity means the healthy machine's (``None`` when a rate was given).
    """
    spec = spec.validate()
    data = _dataset(spec.dataset, spec.n, spec.data_seed)
    if spec.rate is not None:
        return spec, None, data
    from . import calibrate_capacity

    probe = make_adapter(spec.index, data, n_modules=spec.n_modules,
                         seed=spec.seed)
    capacity = calibrate_capacity(probe, data, k=spec.k, seed=spec.seed)
    return dataclasses.replace(spec, rate=spec.load * capacity), capacity, data


def resolve_rate(spec: ServeSpec) -> tuple[ServeSpec, float | None]:
    """Validate ``spec`` and pin its ``rate`` without building the run
    (for callers that fan one spec out); also returns the calibrated
    capacity (``None`` when the spec already named a rate)."""
    return _resolve(spec)[:2]


def build_session(spec: ServeSpec, *, fault_plan=None, tracer=None,
                  backend=None) -> Session:
    """Assemble one serving run from ``spec``.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) and ``tracer`` (a
    :class:`repro.obs.TraceCollector`) ride on the serving adapter only,
    never the calibration probe.  ``backend`` (a ``repro.store`` backend)
    attaches a :class:`~repro.store.DurableStore` checkpointing under the
    config's ``checkpoint.budget_fraction``.  Attach order is fixed —
    replicas, route filters, rebalancer, store — because filters index
    replica copies and the store's first snapshot must see all of them.
    Route filters hash with seed 0 whatever ``spec.seed`` is, so every
    entry point (and every sweep shard) builds the same Bloom family.
    """
    spec, capacity, data = _resolve(spec)
    config = spec.config
    arrivals = ARRIVALS[spec.arrival](spec.rate, spec.requests,
                                      seed=spec.seed + 1)
    requests = make_requests(data, arrivals, mix=spec.mix, k=spec.k,
                             deadline_s=spec.deadline_s, seed=spec.seed + 2,
                             tenants=spec.tenants)
    adapter = make_adapter(
        spec.index, data, n_modules=spec.n_modules, seed=spec.seed,
        fault_plan=fault_plan, tracer=tracer,
        config=make_index_config(config, kind=spec.index, n_points=len(data),
                                 n_modules=spec.n_modules))
    parts = apply_serving_config(adapter, config,
                                 staleness_s=spec.staleness_s)
    store = controller = None
    if backend is not None:
        from ..store import DurableStore

        store = DurableStore(
            backend, budget_fraction=config["checkpoint.budget_fraction"])
        store.attach(adapter.tree)
    if spec.adapt:
        from ..tune.online import OnlineController

        controller = OnlineController(window=spec.adapt_window)
    loop = _make_loop(
        adapter, parts["policy"], queue_depth=spec.queue_depth,
        overflow=spec.overflow, tenants=spec.tenants,
        max_retries=spec.max_retries, backoff_s=spec.backoff_s,
        timeout_s=spec.timeout_s, degraded_mode=spec.degraded_mode,
        failover=spec.failover, rebalancer=parts["rebalancer"], store=store,
        controller=controller, max_restarts=spec.max_restarts)
    return Session(spec=spec, capacity=capacity, adapter=adapter, loop=loop,
                   requests=requests,
                   parts={**parts, "store": store, "controller": controller})
