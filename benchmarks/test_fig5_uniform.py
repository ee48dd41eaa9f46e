"""Fig. 5(a): throughput + memory traffic on uniform random workloads.

Regenerates the ten-operation comparison (INSERT, BoxCount-{1,10,100},
BoxFetch-{1,10,100}, {1,10,100}-NN) of PIM-zd-tree vs Pkd-tree vs zd-tree
on the uniform microbenchmark (§7.2), printing the throughput/traffic rows
and asserting the headline shape: PIM-zd-tree leads on every operation
family and reduces memory traffic across the board.
"""

from repro.eval import geomean, run_fig5


def test_fig5_uniform(benchmark):
    res = benchmark.pedantic(run_fig5, args=("uniform",), rounds=1, iterations=1)
    _RESULTS = res.raw
    for name, ms in _RESULTS.items():
        for m in ms:
            benchmark.extra_info[f"{name}:{m.op}:mops"] = round(m.throughput / 1e6, 4)
            benchmark.extra_info[f"{name}:{m.op}:B/elem"] = round(m.traffic_per_element, 2)
        assert all(m.throughput > 0 for m in ms)

    # Printed table + the paper's qualitative claims.
    assert set(_RESULTS) == {"pim-zd-tree", "pkd-tree", "zd-tree"}
    print(f"\n{res}")

    pim = {m.op: m for m in _RESULTS["pim-zd-tree"]}
    pkd = {m.op: m for m in _RESULTS["pkd-tree"]}
    zd = {m.op: m for m in _RESULTS["zd-tree"]}

    # Headline shape (paper: 1.82x/4.25x/3.08x/1.46x over Pkd-tree and
    # 1.49x/518x/99x/3.46x over zd-tree, geometric means per family).
    for fam, pred in {
        "insert": lambda op: op == "insert",
        "bc": lambda op: op.startswith("bc-"),
        "bf": lambda op: op.startswith("bf-"),
        "nn": lambda op: op.endswith("-nn"),
    }.items():
        for other in (pkd, zd):
            ratio = geomean(
                [pim[o].throughput / other[o].throughput for o in pim if pred(o)]
            )
            assert ratio > 1.0, (fam, ratio)

    # zd-tree's interval-scan box queries are catastrophically slower.
    zd_bc = geomean([pim[o].throughput / zd[o].throughput for o in pim if o.startswith("bc-")])
    assert zd_bc > 30
    zd_bf = geomean([pim[o].throughput / zd[o].throughput for o in pim if o.startswith("bf-")])
    assert zd_bf > 10

    # Traffic reduction across all ops (paper: 3.5x vs Pkd, 18.8x vs zd).
    t_pkd = geomean(
        [pkd[o].traffic_per_element / pim[o].traffic_per_element for o in pim]
    )
    t_zd = geomean(
        [zd[o].traffic_per_element / pim[o].traffic_per_element for o in pim]
    )
    print(f"traffic reduction geomean: vs pkd x{t_pkd:.2f}, vs zd x{t_zd:.2f}")
    assert t_pkd > 1.5
    assert t_zd > 3.0
