"""Tenant isolation under replication: an adversarial flood must not
degrade a victim's tail latency.

The serving story this PR adds — weighted-fair admission
(``repro.serve.tenants``) composed with K-way chunk replication
(``repro.replicate``) — is judged by one number: the victim tenant's p99
with an adversary flooding at **10x its fair share** must stay within
**1.5x** of the victim-alone baseline.  Three deterministic runs on the
same machine shape:

* ``baseline`` — the gold-SLO victim alone at 0.4x capacity;
* ``fair``     — victim + bronze adversary offering 10x its weighted
  fair share, weighted-fair dequeue + fair-share shedding + K=2
  replicas: the flood sheds itself, the victim's p99 holds;
* ``fifo``     — the same flood with tenancy off (plain FIFO,
  shed-oldest): the victim's queued work is evicted alongside the
  flood's, so its completed share collapses — the no-isolation foil.
"""

from __future__ import annotations

import pytest

from repro.eval import make_adapter
from repro.replicate import ReplicaSet, ReplicationConfig
from repro.serve import (
    AdmissionQueue,
    FixedBatchPolicy,
    ServeLoop,
    TenantPolicy,
    calibrate_capacity,
    make_requests,
)
from repro.workloads import poisson_arrivals, uniform_points

N = 8_000
N_MODULES = 16
SEED = 7
K = 10
QUEUE_DEPTH = 256
# Per-request dispatch: the service quantum is identical across the three
# runs, so the victim's p99 shift measures *queueing* isolation alone —
# with batched dispatch the flood also inflates the victim's batch
# service time and the comparison conflates the two effects.
BATCH = 1
VICTIM_LOAD = 0.4        # fraction of calibrated capacity
N_VICTIM = 250
OVERSHARE = 10.0         # adversary offers 10x its weighted fair share
WEIGHTS = {"victim": 4.0, "adv": 1.0}   # gold vs bronze SLO classes
P99_BOUND = 1.5


@pytest.fixture(scope="module")
def data():
    return uniform_points(N, 3, seed=SEED)


@pytest.fixture(scope="module")
def capacity(data):
    probe = make_adapter("pim", data, n_modules=N_MODULES, seed=SEED)
    return calibrate_capacity(probe, data, k=K, batch=BATCH, seed=SEED)


def _tagged(data, rate, n, tenant, arrival_seed, payload_seed):
    arrivals = poisson_arrivals(rate, n, seed=arrival_seed)
    return make_requests(data, arrivals, mix={"knn": 1.0}, k=K,
                         deadline_s=0.05, seed=payload_seed,
                         tenants={tenant: 1.0})


def _merge(*streams):
    merged = sorted((r for s in streams for r in s),
                    key=lambda r: (r.arrival_s, r.tenant, r.rid))
    for rid, r in enumerate(merged):
        r.rid = rid
    return merged


def _victim_stream(data, capacity):
    return _tagged(data, VICTIM_LOAD * capacity, N_VICTIM, "victim",
                   SEED + 1, SEED + 2)


def _attack_stream(data, capacity):
    # The adversary's weighted fair share of capacity, then 10x it.  Its
    # request count covers the victim's whole arrival horizon.
    share = WEIGHTS["adv"] / sum(WEIGHTS.values())
    rate = OVERSHARE * share * capacity
    horizon = N_VICTIM / (VICTIM_LOAD * capacity)
    n_adv = int(rate * horizon)
    return _tagged(data, rate, n_adv, "adv", SEED + 3, SEED + 4)


def _run(data, requests, *, tenants):
    adapter = make_adapter("pim", data, n_modules=N_MODULES, seed=SEED)
    ReplicaSet(adapter.tree, ReplicationConfig(k=2)).replicate_all()
    queue = AdmissionQueue(QUEUE_DEPTH, overflow="shed-oldest", tenants=tenants)
    return ServeLoop(adapter, queue, FixedBatchPolicy(BATCH)).run(requests).stats


def test_victim_p99_survives_adversarial_flood(benchmark, data, capacity):
    out: dict[str, object] = {}

    def run():
        victim = _victim_stream(data, capacity)
        flood = _attack_stream(data, capacity)
        policy = TenantPolicy.from_classes(
            {"victim": "gold", "adv": "bronze"})
        out["baseline"] = _run(data, _merge(victim), tenants=policy)
        out["fair"] = _run(data, _merge(victim, flood), tenants=policy)
        out["fifo"] = _run(data, _merge(victim, flood), tenants=None)
        return out

    benchmark.pedantic(run, rounds=1, iterations=1)

    base = out["baseline"].by_tenant["victim"]
    fair = out["fair"].by_tenant["victim"]
    fifo = out["fifo"].by_tenant["victim"]
    adv = out["fair"].by_tenant["adv"]

    print("\n=== tenant isolation under a 10x-fair-share flood "
          f"(knn-{K}, uniform n={N}, P={N_MODULES}, K=2 replicas, "
          f"depth={QUEUE_DEPTH}) ===")
    print(f"  capacity ≈ {capacity:,.0f} req/s; victim at "
          f"{VICTIM_LOAD:.0%}, adversary at {OVERSHARE:.0f}x its "
          f"{WEIGHTS['adv'] / sum(WEIGHTS.values()):.0%} share")
    print("  run        victim p99 ms   victim done   victim shed   "
          "adv done   adv shed")
    for name, v in (("baseline", base), ("fair", fair), ("fifo", fifo)):
        a = out[name.replace("baseline", "fair")].by_tenant.get("adv", {}) \
            if name != "baseline" else {}
        print(f"  {name:9s} {v['latency_s']['p99'] * 1e3:14.3f} "
              f"{v['n_done']:13d} {v['n_shed']:13d} "
              f"{a.get('n_done', 0):10d} {a.get('n_shed', 0):10d}")
    benchmark.extra_info["victim_p99_baseline_s"] = base["latency_s"]["p99"]
    benchmark.extra_info["victim_p99_fair_s"] = fair["latency_s"]["p99"]
    benchmark.extra_info["victim_p99_fifo_s"] = fifo["latency_s"]["p99"]
    benchmark.extra_info["replication"] = out["fair"].replication

    # Replication was actually on for the serving runs.
    assert out["fair"].replication["chunks_replicated"] > 0

    # The acceptance bound: a 10x-fair-share flood moves the gold
    # victim's p99 by at most 1.5x.
    ratio = fair["latency_s"]["p99"] / base["latency_s"]["p99"]
    assert ratio <= P99_BOUND, (
        f"victim p99 degraded {ratio:.2f}x under flood "
        f"({base['latency_s']['p99']:.6f}s -> "
        f"{fair['latency_s']['p99']:.6f}s), bound is {P99_BOUND}x"
    )

    # Fair-share shedding makes the flood pay for its own overflow: the
    # victim keeps (nearly) all of its completions, the adversary sheds.
    assert fair["n_shed"] == 0, "victim work was shed despite fair share"
    assert adv["n_shed"] > 0, "the flood must absorb the shedding"
    assert fair["n_done"] == base["n_done"]

    # The no-isolation foil: plain FIFO shed-oldest evicts the victim's
    # queued work along with the flood's, collapsing its completed share.
    assert fifo["n_done"] < fair["n_done"], (
        f"FIFO should hurt the victim: done {fifo['n_done']} vs fair "
        f"{fair['n_done']}"
    )
