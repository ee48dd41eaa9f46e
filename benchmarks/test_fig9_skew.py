"""Fig. 9: 1-NN throughput under Uniform+Varden query mixes.

The skew-resistant PIM-zd-tree stays stable as the fraction of Varden
(extremely skewed) queries grows, while the throughput-optimized variant
degrades sharply once more than ~0.1% of the batch is skewed (paper:
≤4.1% fluctuation vs 10.66× degradation at 2%).
"""

from repro.eval import run_fig9

FRACTIONS = (0.0, 0.002, 0.02, 0.2, 1.0)


def test_fig9_skew(benchmark):
    res = benchmark.pedantic(run_fig9, kwargs={"fractions": FRACTIONS},
                             rounds=1, iterations=1)
    _TP = res.raw["throughput"]
    for variant, tps in _TP.items():
        for frac, tp in zip(FRACTIONS, tps):
            benchmark.extra_info[f"{variant}:varden{frac}:mops"] = round(tp, 4)

    assert set(_TP) == {"pim", "pim-skew"}
    print(f"\n{res}")

    skew_tp = _TP["pim-skew"]
    thr_tp = _TP["pim"]
    # Skew-resistant: never degrades below its uniform throughput (paper:
    # ≤ 4.1% fluctuation; at 100% Varden the pull-to-host path can even
    # speed it up, so the guarantee asserted is no-degradation).
    assert min(skew_tp) > 0.8 * skew_tp[0]
    # Throughput-optimized: clear degradation at high skew fractions
    # (paper: 10.66x at 2% Varden with P=2048; the straggler effect needs
    # proportionally larger fractions at P=64 — see DESIGN.md scaling).
    assert thr_tp[0] > 1.5 * thr_tp[-1]
    # Crossover: under heavy skew the skew-resistant variant wins.
    assert skew_tp[-1] > thr_tp[-1]
