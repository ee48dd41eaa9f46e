"""Fig. 8: 1-NN throughput and traffic versus base dataset size.

Theory (§5): PIM-zd-tree's communication is bounded by P, independent of
n, so its performance stays flat as the dataset grows; the shared-memory
baselines' search paths lengthen with log n and their cache hit rates
fall, so their throughput degrades (paper: 1.4–1.6× over a 15× size range)
and traffic grows (1.3–1.5×).
"""

from repro.eval import run_fig8

SIZES = (10_000, 20_000, 40_000, 80_000)


def test_fig8_dataset_size(benchmark):
    res = benchmark.pedantic(run_fig8, kwargs={"sizes": SIZES}, rounds=1, iterations=1)
    _TP = res.raw["throughput"]
    _TRAFFIC = res.raw["traffic"]
    for kind, tps in _TP.items():
        for n, tp in zip(SIZES, tps):
            benchmark.extra_info[f"{kind}:n{n}:mops"] = round(tp, 4)

    assert set(_TP) == {"pim", "pkd", "zd"}
    print(f"\n{res}")

    def degradation(kind):
        return max(_TP[kind]) / max(min(_TP[kind]), 1e-12)

    # PIM-zd-tree stays flat; the baselines degrade more with n.
    pim_var = degradation("pim")
    print(
        f"degradation over the sweep: pim x{pim_var:.2f}, "
        f"pkd x{degradation('pkd'):.2f}, zd x{degradation('zd'):.2f} "
        f"(paper: stable vs 1.4x / 1.6x)"
    )
    assert pim_var < 2.0
    assert degradation("pkd") > pim_var * 0.9
    assert degradation("zd") > pim_var * 0.9
    # Baseline throughput is monotone-ish decreasing over the sweep.
    assert _TP["pkd"][-1] < _TP["pkd"][0]
    assert _TP["zd"][-1] < _TP["zd"][0]
    # Baseline traffic per element grows with n.
    assert _TRAFFIC["pkd"][-1] > _TRAFFIC["pkd"][0]
