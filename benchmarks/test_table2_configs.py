"""Table 2: properties of the two implemented configurations.

Checks the measurable columns of Table 2 at simulation scale: O(n) space
for both configurations, O(1) communication per SEARCH/INSERT for the
throughput-optimized layout, and the (slightly larger but bounded)
O(log_B log_B P)-style communication of the skew-resistant layout.
"""

from repro.eval import run_table2


def test_table2_configs(benchmark):
    res = benchmark.pedantic(run_table2, rounds=1, iterations=1)
    _ROWS = res.rows
    for row in _ROWS:
        benchmark.extra_info[f"{row[0]}:space_x"] = row[1]
        benchmark.extra_info[f"{row[0]}:search_w"] = row[2]

    assert len(_ROWS) == 2
    print(f"\n{res}")
    thr, skw = _ROWS
    # Space O(n) for both (Theorem 5.1): within a constant of raw points.
    assert thr[1] < 10 and skw[1] < 10
    # Throughput-optimized: O(1) search comm, single-digit words per op.
    assert thr[2] < 20
    assert thr[3] <= 2  # one push round end-to-end
    # Skew-resistant pays more rounds/communication, but stays bounded.
    assert skw[3] >= thr[3]
    assert skw[2] < 40 * max(1.0, thr[2])
