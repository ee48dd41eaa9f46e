"""Fig. 5(b): throughput + memory traffic on the COSMOS-like dataset.

The real COSMOS catalogue exhibits moderate spatial skew (Gini ≈ 0.287
over 2048 bins); the synthetic stand-in is calibrated to the same
statistic (see ``repro.workloads.cosmos_like_points`` and DESIGN.md).
"""

from repro.eval import geomean, run_fig5

# A representative subset keeps the three-index suite affordable while
# covering every operation family of Fig. 5(b).
OPS = ("insert", "bc-1", "bc-100", "bf-10", "bf-100", "1-nn", "10-nn")


def test_fig5_cosmos(benchmark):
    res = benchmark.pedantic(run_fig5, args=("cosmos",), kwargs={"ops": OPS},
                             rounds=1, iterations=1)
    _RESULTS = res.raw
    for name, ms in _RESULTS.items():
        for m in ms:
            benchmark.extra_info[f"{name}:{m.op}:mops"] = round(m.throughput / 1e6, 4)
            benchmark.extra_info[f"{name}:{m.op}:B/elem"] = round(m.traffic_per_element, 2)
        assert all(m.elements > 0 for m in ms)

    assert set(_RESULTS) == {"pim-zd-tree", "pkd-tree", "zd-tree"}
    print(f"\n{res}")
    pim = {m.op: m for m in _RESULTS["pim-zd-tree"]}
    for other_name in ("pkd-tree", "zd-tree"):
        other = {m.op: m for m in _RESULTS[other_name]}
        overall = geomean([pim[o].throughput / other[o].throughput for o in pim])
        assert overall > 1.0, (other_name, overall)
        traffic = geomean(
            [other[o].traffic_per_element / pim[o].traffic_per_element for o in pim]
        )
        assert traffic > 1.0
