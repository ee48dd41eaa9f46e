"""§7.2 latency results: P99 batch latency of 1-NN on the OSM-like data.

The paper reports P99 latencies of 0.0325 s (PIM-zd-tree), 0.0449 s
(Pkd-tree) and 0.210 s (zd-tree) for 1-NN on OSM, i.e. PIM-zd-tree <
Pkd-tree < zd-tree.  We reproduce the *ordering* on per-batch simulated
latencies (absolute values scale with the simulated batch size).
"""

from repro.eval import run_latency


def test_latency(benchmark):
    res = benchmark.pedantic(run_latency, args=("osm",), rounds=1, iterations=1)
    _P99 = res.raw["p99_s"]
    for kind in _P99:
        benchmark.extra_info[f"{kind}:p99_s"] = _P99[kind]
        benchmark.extra_info[f"{kind}:p50_s"] = res.raw["p50_s"][kind]
        assert _P99[kind] > 0

    assert set(_P99) == {"pim", "pkd", "zd"}
    print(f"\n{res}")
    assert _P99["pim"] < _P99["pkd"] < _P99["zd"]
