"""Skew-aware rebalancing: throughput recovery on an adversarial hot shard.

The acceptance experiment for ``repro.balance``: on Varden (Gini >= 0.9)
with several popular chunks hash-colocated on one module, a range-count
workload striking those chunks is straggler-bound — every BSP round is
gated by the hot module's cycles.  With the online rebalancer attached,
the first detection migrates the colocated chunks apart as charged BSP
work under the ``"rebalance"`` phase, and steady-state throughput must
recover to at least 2x the rebalance-off baseline at equal offered load.

Both runs are fully traced; the charge-time timeline must reconcile
bit-exactly against the simulator's own totals, migration cost included.
"""

from __future__ import annotations

import pytest

from repro.balance import BalanceConfig, OnlineRebalancer
from repro.eval.harness import PIMZdTreeAdapter
from repro.eval.skewbench import (
    boxes_under_metas,
    hottest_colocated_metas,
    steady_state_throughput,
    throughput_timeline,
)
from repro.obs import TraceCollector
from repro.workloads import bin_points, gini_coefficient, varden_points

N = 16_000
N_MODULES = 16
SEED = 8
STEPS = 12
BATCH = 64


@pytest.fixture(scope="module")
def skewed_data():
    data = varden_points(N, 3, seed=SEED)
    gini = gini_coefficient(bin_points(data))
    assert gini >= 0.9, f"Varden workload not skewed enough: gini={gini:.3f}"
    return data


def _build(data):
    tracer = TraceCollector()
    adapter = PIMZdTreeAdapter(data, n_modules=N_MODULES, seed=SEED,
                               tracer=tracer)
    return adapter, tracer


def test_rebalance_recovers_throughput_2x(benchmark, skewed_data):
    """Steady-state serving throughput: rebalance-on >= 2x rebalance-off."""
    out: dict[str, object] = {}

    def run():
        adapter_off, tracer_off = _build(skewed_data)
        hot_mid, hot_metas = hottest_colocated_metas(adapter_off.tree)
        boxes = boxes_under_metas(adapter_off.tree, hot_metas, 256,
                                  seed=SEED + 1)
        rows_off = throughput_timeline(adapter_off, boxes, steps=STEPS,
                                       batch=BATCH, kind="bc")
        adapter_on, tracer_on = _build(skewed_data)
        rebalancer = OnlineRebalancer(adapter_on.tree, BalanceConfig())
        rows_on = throughput_timeline(adapter_on, boxes, steps=STEPS,
                                      batch=BATCH, kind="bc",
                                      rebalancer=rebalancer)
        out.update(adapter_off=adapter_off, tracer_off=tracer_off,
                   adapter_on=adapter_on, tracer_on=tracer_on,
                   rebalancer=rebalancer, rows_off=rows_off,
                   rows_on=rows_on, hot_mid=hot_mid,
                   hot_chunks=len(hot_metas))
        return rows_on

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows_off, rows_on = out["rows_off"], out["rows_on"]
    rebalancer = out["rebalancer"]
    off = steady_state_throughput(rows_off)
    on = steady_state_throughput(rows_on)
    speedup = on / off

    print(f"\n=== rebalancing — varden n={N}, P={N_MODULES}, "
          f"box-count batch={BATCH}, hot module {out['hot_mid']} "
          f"({out['hot_chunks']} colocated chunks) ===")
    print("  step   off req/s    on req/s   reb ms  moves")
    for a, b in zip(rows_off, rows_on):
        print(f"  {a['step']:4d} {a['throughput']:11,.0f} "
              f"{b['throughput']:11,.0f} {b['rebalance_s'] * 1e3:8.3f} "
              f"{b['migrations']:6d}")
    print(f"  steady state: off {off:,.0f} req/s, on {on:,.0f} req/s "
          f"— {speedup:.2f}x")
    benchmark.extra_info["steady_off"] = off
    benchmark.extra_info["steady_on"] = on
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["migrations"] = rebalancer.migrations

    # The acceptance criterion: >= 2x recovery at equal offered load.
    assert speedup >= 2.0, f"rebalancing speedup only {speedup:.2f}x"
    assert rebalancer.migrations > 0
    # Recovery converges: no migrations in the trailing half.
    tail = rows_on[STEPS // 2:]
    assert all(r["migrations"] == tail[0]["migrations"] for r in tail)

    # Migration is charged work, attributed to the "rebalance" phase...
    stats_on = out["adapter_on"].system.stats
    reb = stats_on.phases.get("rebalance")
    assert reb is not None and reb.pim_cycles > 0 and reb.comm_words > 0
    cm = out["adapter_on"].tree.cost_model
    reb_s = cm.time(reb).total_s
    total_s = cm.time(stats_on.total).total_s
    print(f"  rebalance phase: {reb_s * 1e3:.3f} ms "
          f"({reb_s / total_s * 100:.2f}% of {total_s * 1e3:.3f} ms total)")
    assert 0.0 < reb_s < total_s
    benchmark.extra_info["rebalance_share"] = reb_s / total_s

    # ...and the off run never entered it.
    assert "rebalance" not in out["adapter_off"].system.stats.phases

    # Charge-time reconciliation stays bit-exact for both runs.
    assert not out["tracer_off"].timeline.reconcile(
        out["adapter_off"].system.stats)
    assert not out["tracer_on"].timeline.reconcile(stats_on)
