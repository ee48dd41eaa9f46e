"""Fig. 6: runtime breakdown (CPU / PIM / CPU↔PIM communication).

The paper's breakdown shows INSERT with a significant CPU share (batch
preprocessing), BoxFetch-100 dominated by communication (large output over
the bus), and the remaining operations dominated by PIM execution — the
design goal of offloading computation to the PIM side.

The breakdown is read from the charge-time per-phase attribution
(``OpMeasurement.phases``): each charge is booked to the phase active
when it happened, so an op's time lands in its own phase label rather
than whatever phase was live when its BSP round closed.
"""

from repro.eval import run_fig6

OPS = ("insert", "bc-1", "bc-100", "bf-100", "100-nn")

# Which phase label should dominate each op under charge-time attribution.
PRIMARY_PHASE = {
    "insert": "insert",
    "bc-1": "boxcount",
    "bc-100": "boxcount",
    "bf-100": "boxfetch",
    "100-nn": "knn",
}


def test_fig6_breakdown(benchmark):
    res = benchmark.pedantic(run_fig6, kwargs={"ops": OPS}, rounds=1, iterations=1)
    _MEASUREMENTS = res.raw["measurements"]
    _BREAKDOWN = {m.op: m.breakdown_fractions() for m in _MEASUREMENTS}
    for op, frac in _BREAKDOWN.items():
        for part, v in frac.items():
            benchmark.extra_info[f"{op}:{part}"] = round(v, 3)
    for m in _MEASUREMENTS:
        for ph, v in m.phase_fractions().items():
            benchmark.extra_info[f"{m.op}:phase:{ph}"] = round(v, 3)

    assert set(_BREAKDOWN) == set(OPS)
    print(f"\n{res}")

    # BoxFetch-100's output volume makes communication its largest share
    # relative to the small box ops (paper: "high CPU-PIM communication
    # time, as its computation is simple but the output size is large").
    assert _BREAKDOWN["bf-100"]["comm"] > _BREAKDOWN["bc-1"]["comm"] - 0.05
    assert _BREAKDOWN["bf-100"]["comm"] >= 0.3
    # INSERT has a visible CPU component (batch preprocessing).
    assert _BREAKDOWN["insert"]["cpu"] >= _BREAKDOWN["bc-1"]["cpu"]
    # Every operation runs a real PIM component.
    for op in OPS:
        assert _BREAKDOWN[op]["pim"] > 0.02, op

    # Charge-time per-phase attribution: each op's own phase owns the
    # bulk of its time (routing/rechunk overheads land under "other").
    by_op = {m.op: m for m in _MEASUREMENTS}
    assert set(by_op) == set(OPS)
    for op, want in PRIMARY_PHASE.items():
        fr = by_op[op].phase_fractions()
        assert fr, f"{op}: no phase data"
        assert max(fr, key=fr.get) == want, (op, fr)
        assert fr[want] >= 0.75, (op, fr)
