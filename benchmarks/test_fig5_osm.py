"""Fig. 5(c): throughput + memory traffic on the OSM-like dataset.

OSM North America road data is extremely skewed (Gini ≈ 0.967 over 2048
bins); the synthetic stand-in matches the statistic (DESIGN.md).  The
batches of the paper's §7.2 real-world runs query the warmed-up data's own
distribution, so queries here are sampled from the dataset itself.
"""

from repro.eval import geomean, run_fig5

OPS = ("insert", "bc-1", "bc-100", "bf-10", "bf-100", "1-nn", "10-nn")


def test_fig5_osm(benchmark):
    res = benchmark.pedantic(run_fig5, args=("osm",), kwargs={"ops": OPS},
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
