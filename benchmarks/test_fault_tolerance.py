"""Fault tolerance: goodput/availability degradation under injected faults.

Sweeps transient message-loss rate × admission-queue overflow policy
through the resilient serving loop (``repro.serve`` + ``repro.faults``)
and runs the kill-1-of-P failover scenario:

* with no faults, availability is 1.0 and nothing fails, times out or
  degrades;
* as the drop rate rises 0 → 10%, retries/backoff inflate service times
  and goodput falls — *gracefully*: every request still lands in exactly
  one terminal state and availability stays well above the drop rate's
  naive compounding;
* killing 1 of P modules mid-run triggers one failover whose rebuild cost
  is visible in the ``"recovery"`` phase of the simulator's charge-time
  attribution, and the recovered index keeps serving.
"""

from __future__ import annotations

import pytest

from repro.eval import make_adapter
from repro.faults import FaultPlan
from repro.serve import AdaptiveBatchPolicy, AdmissionQueue, ServeLoop, make_requests
from repro.workloads import poisson_arrivals, uniform_points

N = 6_000
N_MODULES = 16
SEED = 7
K = 10
REQUESTS = 400
RATE = 40_000.0           # req/s, comfortably below capacity when healthy
DEADLINE_S = 0.02
QUEUE_DEPTH = 256
TIMEOUT_S = 0.01
DROP_RATES = (0.0, 0.02, 0.05, 0.10)
OVERFLOWS = ("reject", "shed-oldest")
TERMINAL_COUNTS = ("n_done", "n_rejected", "n_shed", "n_failed",
                   "n_timed_out", "n_degraded")


@pytest.fixture(scope="module")
def fault_data():
    return uniform_points(N, 3, seed=SEED)


def _faulty_run(data, *, drop_rate, overflow, crash_at=None):
    plan = FaultPlan(seed=SEED, drop_rate=drop_rate, crash_at=crash_at)
    adapter = make_adapter("pim", data, n_modules=N_MODULES, seed=SEED,
                           fault_plan=plan)
    arrivals = poisson_arrivals(RATE, REQUESTS, seed=SEED + 1)
    requests = make_requests(data, arrivals, k=K, deadline_s=DEADLINE_S,
                             seed=SEED + 2)
    loop = ServeLoop(adapter, AdmissionQueue(QUEUE_DEPTH, overflow=overflow),
                     AdaptiveBatchPolicy(), backoff_s=1e-5, timeout_s=TIMEOUT_S)
    res = loop.run(requests)
    return res, adapter, plan


def test_goodput_degrades_gracefully(benchmark, fault_data):
    """Drop-rate × overflow sweep: graceful degradation, no lost requests."""
    sweep: dict[tuple, object] = {}

    def run():
        for overflow in OVERFLOWS:
            for rate in DROP_RATES:
                res, _, plan = _faulty_run(fault_data, drop_rate=rate,
                                           overflow=overflow)
                sweep[(overflow, rate)] = (res.stats, plan.summary())
        return sweep

    benchmark.pedantic(run, rounds=1, iterations=1)

    print("\n=== fault tolerance — drop-rate sweep "
          f"(knn-{K}, uniform n={N}, P={N_MODULES}, {REQUESTS} req @ "
          f"{RATE:,.0f}/s) ===")
    print("  policy       drop   goodput req/s   p99 ms   avail %   "
          "failed  timed-out  degraded  drops")
    for overflow in OVERFLOWS:
        for rate in DROP_RATES:
            s, events = sweep[(overflow, rate)]
            print(f"  {overflow:11s} {rate:5.2f} {s.goodput:15,.0f} "
                  f"{s.latency['p99'] * 1e3:8.3f} "
                  f"{s.availability * 100:8.2f} {s.n_failed:8d} "
                  f"{s.n_timed_out:10d} {s.n_degraded:9d} "
                  f"{events.get('drop', 0):6d}")
    benchmark.extra_info["sweep"] = {
        f"{overflow}@{rate}": sweep[(overflow, rate)][0].to_dict()
        for overflow in OVERFLOWS for rate in DROP_RATES
    }

    for overflow in OVERFLOWS:
        healthy = sweep[(overflow, 0.0)][0]
        worst = sweep[(overflow, DROP_RATES[-1])][0]
        # No-fault run is clean.
        assert healthy.n_failed == 0 and healthy.n_degraded == 0
        assert healthy.availability == 1.0
        # Every request ends in exactly one terminal state at every rate.
        for rate in DROP_RATES:
            s = sweep[(overflow, rate)][0]
            d = s.to_dict()
            assert sum(d[k] for k in TERMINAL_COUNTS) == s.n_offered, (
                f"requests went missing at {overflow}@{rate}"
            )
            assert 0.0 <= s.availability <= 1.0
        # Degradation is graceful, not a cliff: even at a 10% drop rate
        # retries keep most answers flowing.
        assert worst.availability >= 0.5, (
            f"availability collapsed under {overflow}: {worst.availability}"
        )
        assert worst.goodput <= healthy.goodput, "faults cannot help goodput"


def test_kill_one_of_p_recovery_cost_visible(benchmark, fault_data):
    """Mid-run module kill: failover succeeds and its cost is attributed."""
    out: dict[str, object] = {}

    def run():
        res, adapter, plan = _faulty_run(fault_data, drop_rate=0.0,
                                         overflow="reject",
                                         crash_at={3: 40})
        out["res"], out["adapter"], out["plan"] = res, adapter, plan
        return res

    benchmark.pedantic(run, rounds=1, iterations=1)
    res, adapter, plan = out["res"], out["adapter"], out["plan"]
    stats = adapter.system.stats
    assert 3 in plan.crashed
    assert adapter.system.dead_modules == frozenset({3})
    assert adapter.system.n_live == N_MODULES - 1
    assert all(m.module != 3 for m in adapter.tree.metas)

    cm = adapter.tree.cost_model
    total_s = cm.time(stats.total).total_s
    recovery_s = cm.time(stats.phases["recovery"]).total_s
    assert 0.0 < recovery_s < total_s
    retried = sum(1 for b in res.batches if b.retries > 0)
    assert retried >= 1, "the crash must surface as at least one retry"
    s = res.stats
    d = s.to_dict()
    assert sum(d[k] for k in TERMINAL_COUNTS) == s.n_offered

    print(f"\n=== kill 1 of {N_MODULES} (module 3 @ round 40) ===")
    print(f"  terminal: done {s.n_done} | failed {s.n_failed} | "
          f"timed out {s.n_timed_out} | degraded {s.n_degraded} | "
          f"availability {s.availability * 100:.2f}%")
    print(f"  recovery phase: {recovery_s * 1e3:.3f} ms "
          f"({recovery_s / total_s * 100:.2f}% of {total_s * 1e3:.3f} ms "
          "total sim time)")
    print(f"  retried batches: {retried} | p99 "
          f"{s.latency['p99'] * 1e3:.3f} ms")
    benchmark.extra_info["recovery_share"] = recovery_s / total_s
    benchmark.extra_info["stats"] = s.to_dict()
