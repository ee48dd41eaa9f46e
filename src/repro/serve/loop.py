"""Event-loop scheduler: a virtual clock over the measured adapters.

The loop is *open-loop*: arrival times are fixed in advance by the
arrival process and do not react to server progress.  The server is the
BSP machine behind one harness adapter, which executes one batch at a
time (the simulator's rounds are globally synchronised), so the loop is a
single-server queueing system:

1. admit every arrival with ``arrival_s <= now`` into the admission
   queue (the queue applies its overflow policy — reject or shed);
2. expire queued requests past their timeout (``timeout_s``), then, if
   the queue is empty, advance the clock to the next arrival;
3. otherwise form a batch — the batching group of the *oldest* queued
   request (FIFO across groups), sized by the batch policy — dispatch it
   through ``adapter.measure``, and advance the virtual clock by the
   measured :class:`~repro.pim.SimTime` total;
4. stamp every request in the batch with dispatch/complete times; admit
   the arrivals that landed during the service interval at their own
   arrival instants.

**Fault resilience.**  When the adapter's simulator carries a
:class:`~repro.faults.FaultPlan`, a dispatch can raise a typed
:class:`~repro.faults.FaultError`.  The loop then:

* bills the simulated time the failed attempt burned (attached to the
  error by ``adapter.measure``) to the batch — wasted work is part of
  the latency the clients see;
* on :class:`~repro.faults.ModuleFailure`, triggers **failover** (once
  per module): ``adapter.fail_over`` rebuilds the dead module's shard
  from the host-resident index, charged under the ``"recovery"`` phase;
* rolls back any partial insert (a measured, fault-suppressed
  compensating delete) so a retry never double-inserts and the logical
  point set stays byte-identical to a fault-free run's;
* retries up to ``max_retries`` times with exponential backoff
  (``backoff_s * 2**attempt`` of virtual time);
* when retries are exhausted, completes query batches in **degraded
  mode** (partial results, status DEGRADED) or fails them (FAILED);
  inserts always fail atomically (compensated first).

Every offered request still ends in exactly one terminal state.  Every
timestamp is simulated seconds; no wall clock is read, so a run is a pure
function of (adapter construction, request sequence, queue configuration,
batch policy, fault plan) and two identical runs produce byte-identical
:class:`~repro.serve.stats.LatencyStats`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..faults.errors import FaultError, MachineKill, ModuleFailure
from .queue import AdmissionQueue
from .request import DEGRADED, DONE, FAILED, Request
from .stats import LatencyStats

__all__ = ["BatchRecord", "ServeResult", "ServeLoop"]


@dataclass
class BatchRecord:
    """One dispatched batch (for the batch-size/amortisation analysis)."""

    bid: int
    kind: str
    k: int
    size: int
    dispatch_s: float
    service_s: float
    elements: int
    status: str = DONE          # terminal state of the batch's requests
    retries: int = 0            # fault retries this batch consumed

    def to_dict(self) -> dict:
        return {
            "bid": self.bid, "kind": self.kind, "k": self.k,
            "size": self.size, "dispatch_s": self.dispatch_s,
            "service_s": self.service_s, "elements": self.elements,
            "status": self.status, "retries": self.retries,
        }


@dataclass
class ServeResult:
    """A finished run: stamped requests, batch log, aggregate stats."""

    requests: list[Request]
    batches: list[BatchRecord]
    stats: LatencyStats = field(init=False)

    def __post_init__(self) -> None:
        self.stats = LatencyStats.compute(self.requests, self.batches)


class ServeLoop:
    """Single-server continuous-batching scheduler on a virtual clock.

    **Between batches** the loop runs up to four background stages, always
    in this order: rebalance, checkpoint, primary-async replica flush,
    online controller.  Each is one :meth:`_background` step: the stage's
    work goes through ``adapter.measure``, its simulated seconds advance
    the clock (admitting whatever arrives meanwhile), and — for the two
    stages with no trigger of their own, rebalance and checkpoint — one
    shared gate skips the step while the stage's cumulative time exceeds
    its ``budget_fraction`` of cumulative service time.  A stage whose
    collaborator is ``None`` costs nothing and changes nothing.

    Fault-resilience knobs (all inert on a fault-free adapter):

    max_retries:
        Dispatch attempts after the first before giving up on a batch.
    backoff_s:
        Base of the exponential backoff added to the virtual clock after
        a failed attempt (``backoff_s * 2**attempt``).
    timeout_s:
        Per-request queue timeout; ``None`` disables expiry.
    degraded_mode:
        Exhausted query batches complete with partial results (DEGRADED)
        instead of failing outright.
    failover:
        Rebuild a dead module's shard on the first ModuleFailure naming
        it (disable to study unrecovered degradation).
    rebalancer:
        A :class:`repro.balance.OnlineRebalancer` stepped between batches
        (``None`` disables — the default, with zero behavioral change),
        gated by the rebalancer's ``budget_fraction`` so migration is
        amortised against the work it speeds up.
    store:
        A :class:`repro.store.DurableStore` already attached to the
        adapter's tree (``None`` disables durability — the default, with
        zero behavioral change).  Two effects: snapshot checkpoints run
        between batches under the store's ``budget_fraction`` gate
        (skipped while the journal is clean), and a whole-machine
        :class:`~repro.faults.MachineKill` triggers a charged crash
        restart (``adapter.crash_restart``) instead of killing the run —
        the killed batch retries on the recovered machine, and because
        its uncommitted journal record is skipped on replay, the retry is
        exactly-once.  Restart wall-clock (virtual) is billed to the
        batch and recorded in :attr:`restarts`.
    controller:
        A :class:`repro.tune.OnlineController` consulted between batches
        at phase boundaries (``None`` disables — the default).  With an
        empty whitelist the controller is inert: it is never invoked and
        the run stays byte-identical to one without it.  When it adapts,
        any charged work it triggers runs on the virtual clock, and its
        audit trail (plus the batch policy snapshot) is attached as
        ``stats.config``.
    max_restarts:
        Machine restarts tolerated before the kill propagates (safety
        valve against a kill-loop).
    """

    def __init__(self, adapter, queue: AdmissionQueue, policy, *,
                 max_retries: int = 3, backoff_s: float = 1e-4,
                 timeout_s: float | None = None, degraded_mode: bool = True,
                 failover: bool = True, rebalancer=None, store=None,
                 controller=None, max_restarts: int = 4) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        self.adapter = adapter
        self.queue = queue
        self.policy = policy
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.timeout_s = timeout_s
        self.degraded_mode = bool(degraded_mode)
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self.failover = bool(failover)
        self.rebalancer = rebalancer
        self.store = store
        self.controller = controller
        self.max_restarts = int(max_restarts)
        self._recovered: set[int] = set()  # modules already failed over
        # Cumulative virtual seconds: service vs rebalance/checkpoint
        # (both budget-gated against service time).
        self.service_time_s = 0.0
        self.rebalance_time_s = 0.0
        self.rebalance_steps = 0
        self.checkpoint_time_s = 0.0
        self.checkpoints = 0
        self.restarts: list[dict] = []  # one record per machine restart
        # Arrivals not yet admitted (sorted), and the head of that stream.
        self._arrivals = iter(())
        self._next: Request | None = None

    # ------------------------------------------------------------------
    def run(self, requests: list[Request]) -> ServeResult:
        """Serve ``requests`` (any order; sorted by arrival internally)."""
        pending = sorted(requests, key=lambda r: (r.arrival_s, r.rid))
        self._arrivals = iter(pending)
        self._next = next(self._arrivals, None)
        now = 0.0
        batches: list[BatchRecord] = []
        while True:
            if self.timeout_s is not None:
                self.queue.expire(now, self.timeout_s)
            if self.queue.is_empty:
                if self._next is None:
                    break
                # Idle server: jump to the next arrival.
                now = self._advance(max(now, self._next.arrival_s))
                continue
            assert not self.queue.is_empty, "batch forming on empty queue"
            group = self.queue.head_group()
            size = self.policy.batch_size(group, self.queue.backlog(group))
            batch = self.queue.take(group, size)
            reps = self._replicas()
            if reps is not None:
                # Keep the replica registry's virtual clock current so
                # primary-async writes age against the staleness bound.
                reps.clock = now
            service_s, elements, status, retries = self._dispatch(batch, now)
            end = now + service_s
            for r in batch:
                r.dispatch_s = now
                r.complete_s = end
                r.status = status
                r.batch_id = len(batches)
            if status == DONE and retries == 0:
                # Only clean dispatches feed the amortisation fit: a
                # retried batch's service time includes wasted attempts,
                # backoff and recovery, which would poison t(B) = a + bB.
                self.policy.observe(group, len(batch), service_s)
            batches.append(
                BatchRecord(
                    bid=len(batches), kind=batch[0].kind, k=batch[0].k,
                    size=len(batch), dispatch_s=now, service_s=service_s,
                    elements=elements, status=status, retries=retries,
                )
            )
            now = self._advance(end)
            self.service_time_s += service_s
            # Background stages, in a fixed order (class docstring).
            if self.rebalancer is not None:
                now, spent = self._background(
                    now, lambda: 0 if self.rebalancer.step() is None else 1,
                    self.rebalance_time_s,
                    getattr(self.rebalancer, "budget_fraction", 0.05))
                if spent is not None:
                    self.rebalance_steps += 1
                    self.rebalance_time_s += spent
            # Checkpoint only records the last snapshot doesn't cover.
            if self.store is not None and self.store.dirty_records > 0:
                now, spent = self._background(
                    now,
                    lambda: (self.store.checkpoint(self.adapter.tree), 0)[1],
                    self.checkpoint_time_s, self.store.budget_fraction)
                if spent is not None:
                    self.checkpoints += 1
                    self.checkpoint_time_s += spent
            # Primary-async replica flush: once the oldest pending
            # secondary update reaches the staleness bound, ship the
            # backlog as one charged round.
            reps = self._replicas()
            if reps is not None and reps.flush_due(now):
                now, _ = self._background(
                    now, lambda: (reps.flush(now), 0)[1])
            # Online tuning at phase boundaries — between batches, so
            # never mid-round.  Charged work it triggers (a route-filter
            # FPR rebuild) is billed like the stages above.  An inactive
            # controller (empty whitelist) is never called.
            if self.controller is not None and self.controller.due(
                    len(batches)):
                now, _ = self._background(
                    now, lambda: self.controller.adapt(self))
        # Drain any remaining async backlog so the staleness accounting
        # covers every fanned write (no latency impact — all requests are
        # already terminal).
        reps = self._replicas()
        if reps is not None and reps.pending:
            self.adapter.measure(lambda: (reps.flush(now), 0)[1])
        result = ServeResult(requests=pending, batches=batches)
        if reps is not None:
            result.stats.replication = reps.summary()
        rf = self._route_filters()
        if rf is not None:
            result.stats.filters = rf.summary()
        if self.controller is not None and self.controller.active:
            snap = getattr(self.policy, "snapshot", None)
            result.stats.config = {
                "policy": (snap() if snap is not None
                           else {"name": getattr(self.policy, "name", "?")}),
                "controller": self.controller.audit(),
            }
        return result

    def _advance(self, to: float) -> float:
        """Move the virtual clock to ``to``: every arrival up to that
        instant is admitted at its *own* arrival time (queue-state order
        matters for the overflow policy).  Returns ``to``."""
        r = self._next
        while r is not None and r.arrival_s <= to:
            self.queue.offer(r, r.arrival_s)
            r = next(self._arrivals, None)
        self._next = r
        return to

    def _background(self, now: float, work, spent_s: float = 0.0,
                    fraction: float | None = None
                    ) -> tuple[float, float | None]:
        """One between-batch stage step (see the class docstring).

        With a ``fraction``, the budget gate skips the stage once its
        cumulative ``spent_s`` exceeds that share of cumulative service
        time.  Returns ``(now, charged seconds)``; the latter is ``None``
        when the gate skipped the stage.
        """
        if fraction is not None and spent_s > fraction * self.service_time_s:
            return now, None
        m = self.adapter.measure(work)
        if m.sim_time_s > 0.0:
            now = self._advance(now + m.sim_time_s)
        return now, m.sim_time_s

    def _replicas(self):
        """The adapter tree's ReplicaSet, or None (re-read every time —
        a crash restart swaps the tree out from under the loop)."""
        return getattr(getattr(self.adapter, "tree", None), "replicas", None)

    def _route_filters(self):
        """The adapter tree's RouteFilterSet, or None (re-read like
        :meth:`_replicas` — recovery reattaches filters to a fresh tree)."""
        return getattr(
            getattr(self.adapter, "tree", None), "route_filters", None)

    # ------------------------------------------------------------------
    def _dispatch(self, batch: list[Request], now: float = 0.0
                  ) -> tuple[float, int, str, int]:
        """Execute one batch with retry/failover/degradation/restart.

        Returns ``(service seconds, elements, terminal status, retries)``.
        The service time accumulates every failed attempt, recovery,
        compensation, backoff and machine restart — the full price the
        batch paid.  ``now`` is the batch's dispatch instant, used to
        stamp restart records in virtual time.
        """
        kind = batch[0].kind
        total_s = 0.0
        attempt = 0
        while True:
            try:
                service_s, elements = self._execute(batch)
                return total_s + service_s, elements, DONE, attempt
            except MachineKill as e:
                # The whole machine is gone: every in-memory structure is
                # lost.  With a durable store attached, restart from disk
                # (charged — the recovered system's counters convert to
                # the restart seconds billed here) and retry the batch.
                # The killed batch's journal record is uncommitted, so
                # replay skipped it and this retry is exactly-once.
                m = getattr(e, "measurement", None)
                if m is not None:
                    total_s += m.sim_time_s
                if (self.store is None
                        or not hasattr(self.adapter, "crash_restart")
                        or len(self.restarts) >= self.max_restarts):
                    raise
                killed_at = now + total_s
                restart_s, info = self.adapter.crash_restart(self.store)
                total_s += restart_s
                if self.rebalancer is not None:
                    # The restart built a fresh tree *and* a fresh system
                    # whose cumulative load counters restart near zero; a
                    # rebalancer still pointed at the old objects would
                    # observe a huge negative delta and poison its EWMA.
                    self.rebalancer.rebind(self.adapter.tree)
                self.restarts.append({
                    "killed_at_s": killed_at,
                    "recovered_at_s": killed_at + restart_s,
                    "restart_s": restart_s,
                    "batch_kind": kind,
                    **info,
                })
            except FaultError as e:
                m = getattr(e, "measurement", None)
                if m is not None:
                    total_s += m.sim_time_s
                total_s += self._recover(e)
                if kind == "insert":
                    # Roll back whatever the failed attempt inserted so a
                    # retry never double-inserts (and a FAILED batch
                    # leaves the logical point set untouched).
                    total_s += self._compensate_insert(batch)
                if attempt >= self.max_retries:
                    if kind != "insert" and self.degraded_mode:
                        # Partial results: answered from whatever the
                        # attempts produced before faulting.
                        return total_s, 0, DEGRADED, attempt
                    return total_s, 0, FAILED, attempt
                total_s += self.backoff_s * (2 ** attempt)
                attempt += 1

    def _recover(self, exc: FaultError) -> float:
        """Failover after a ModuleFailure (once per module); returns the
        simulated seconds recovery charged."""
        if not (self.failover and isinstance(exc, ModuleFailure)):
            return 0.0
        mid = exc.mid
        if mid in self._recovered or not hasattr(self.adapter, "fail_over"):
            return 0.0
        self._recovered.add(mid)
        m = self.adapter.measure(lambda: self.adapter.fail_over(mid))
        return m.sim_time_s

    def _compensate_insert(self, batch: list[Request]) -> float:
        """Measured, fault-suppressed delete of the batch's points."""
        pts = np.stack([r.payload for r in batch])
        with self._faults_suppressed():
            try:
                m = self.adapter.measure(lambda: self.adapter.delete(pts))
            except FaultError as e:
                # Without failover a dead module can make even the
                # rollback fail; bill the attempt and move on (the
                # no-failover configuration forfeits oracle equality).
                m = getattr(e, "measurement", None)
                return m.sim_time_s if m is not None else 0.0
        return m.sim_time_s

    def _faults_suppressed(self):
        system = getattr(self.adapter, "system", None)
        if system is not None and hasattr(system, "faults_suppressed"):
            return system.faults_suppressed()
        return nullcontext()

    # ------------------------------------------------------------------
    def _execute(self, batch: list[Request]) -> tuple[float, int]:
        """Dispatch one same-group batch; returns (service seconds, elements)."""
        kind = batch[0].kind
        if kind == "insert":
            pts = np.stack([r.payload for r in batch])
            m = self.adapter.measure(lambda: self.adapter.insert(pts))
        elif kind == "knn":
            q = np.stack([r.payload for r in batch])
            k = batch[0].k
            m = self.adapter.measure(lambda: self.adapter.knn(q, k))
        elif kind == "bc":
            boxes = [r.payload for r in batch]
            m = self.adapter.measure(lambda: self.adapter.box_count(boxes))
        elif kind == "bf":
            boxes = [r.payload for r in batch]
            m = self.adapter.measure(lambda: self.adapter.box_fetch(boxes))
        else:
            raise ValueError(f"unknown request kind {kind!r}")
        return m.sim_time_s, m.elements
