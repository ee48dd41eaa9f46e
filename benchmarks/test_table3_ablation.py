"""Table 3: slowdown when each implementation technique is removed.

Paper numbers (geometric means across query sizes, uniform workloads):

    technique     | INSERT  BoxCount  BoxFetch  kNN
    lazy counter  | 1.49x   N.A.      N.A.      N.A.
    fast z-order  | 1.99x   1.58x     1.31x     1.67x
    fast l2-norm  | N.A.    N.A.      N.A.      1.58x
    direct API    | 1.06x   1.07x     1.09x     1.09x

Each technique is disabled through its config switch (lazy_counters,
fast_zorder, fast_l2) or the cost-model flag (direct_api); the bench
reports measured slowdowns and asserts each targeted operation slows
down when its technique is removed.
"""

from repro.eval import TABLE3_ABLATIONS as ABLATIONS
from repro.eval import geomean, run_table3


def test_table3_ablation(benchmark):
    res = benchmark.pedantic(run_table3, rounds=1, iterations=1)
    _SLOWDOWN = res.raw["slowdown"]
    for name, per_op in _SLOWDOWN.items():
        for op, s in per_op.items():
            benchmark.extra_info[f"{name}:{op}"] = round(s, 3)

    assert set(_SLOWDOWN) == set(ABLATIONS)
    print(f"\n{res}")

    # Lazy counters target INSERT (paper 1.49x).
    assert _SLOWDOWN["lazy-counter"]["insert"] > 1.05
    # Fast z-order helps every operation that encodes query keys.
    assert _SLOWDOWN["fast-zorder"]["insert"] > 1.0
    assert geomean(
        [_SLOWDOWN["fast-zorder"][op] for op in ("bc-10", "10-nn")]
    ) >= 1.0
    # Fast l2-norm targets kNN (paper 1.58x).
    assert _SLOWDOWN["fast-l2"]["10-nn"] > 1.02
    # Direct API is a small but consistent win (paper 1.06-1.09x).
    assert geomean(list(_SLOWDOWN["direct-api"].values())) > 1.0
    assert geomean(list(_SLOWDOWN["direct-api"].values())) < 1.5
