"""Fig. 7: INSERT performance versus batch size.

Larger batches amortise the mux-switch / per-round overheads, raising
throughput; beyond a point the batch's auxiliary structures spill the LLC
and memory traffic per operation grows (paper: > 200k ops at full scale —
proportionally smaller here because the LLC is scaled with the dataset,
DESIGN.md).
"""

from repro.eval import run_fig7

# Scaled-down analogue of the paper's 50k…2M sweep.
BATCH_SIZES = (128, 256, 512, 1024, 2048, 4096)


def test_fig7_batch_size(benchmark):
    res = benchmark.pedantic(run_fig7, kwargs={"batch_sizes": BATCH_SIZES},
                             rounds=1, iterations=1)
    _ROWS = res.rows
    for batch, mops, traffic in _ROWS:
        benchmark.extra_info[f"batch{batch}:mops"] = round(mops, 4)
        benchmark.extra_info[f"batch{batch}:B/op"] = round(traffic, 1)

    assert len(_ROWS) == len(BATCH_SIZES)
    print(f"\n{res}")

    mops = [r[1] for r in _ROWS]
    traffic = [r[2] for r in _ROWS]
    # Throughput improves substantially from the smallest to the largest
    # batch (mux/round amortisation).
    assert max(mops[-2:]) > 1.3 * mops[0]
    # Traffic per op does not keep improving at the largest batches: the
    # LLC-spill effect puts the minimum strictly before the end.
    assert min(traffic) < traffic[-1] * 1.05
