"""Tests for the evaluation harness, metrics and report rendering."""

import numpy as np
import pytest

from repro.eval import (
    FIG5_OPS,
    bar_chart,
    OpMeasurement,
    calibrate_box_side,
    fig5_table,
    format_table,
    geomean,
    make_adapter,
    make_boxes,
    percentile,
    run_op,
    run_suite,
    speedup_summary,
)
from repro.eval.harness import machine_scale, scaled_llc_bytes
from repro.workloads import uniform_points


@pytest.fixture(scope="module")
def data():
    return uniform_points(8000, 3, seed=11)


class TestScaling:
    def test_machine_scale(self):
        assert machine_scale(2048) == 1.0
        assert machine_scale(64) == pytest.approx(1 / 32)

    def test_llc_scaling_floor(self):
        assert scaled_llc_bytes(22 * 2**20, 100) == 32 * 2**10

    def test_llc_scaling_monotone(self):
        a = scaled_llc_bytes(50 * 2**20, 10_000_000)
        b = scaled_llc_bytes(50 * 2**20, 100_000_000)
        assert b > a


class TestBoxCalibration:
    @pytest.mark.parametrize("target", [1, 10, 100])
    def test_side_hits_target_coverage(self, data, target):
        side = calibrate_box_side(data, target, seed=3)
        boxes = make_boxes(data, side, 64, seed=4)
        counts = [
            int(((data >= b.lo) & (data <= b.hi)).all(axis=1).sum()) for b in boxes
        ]
        avg = float(np.mean(counts))
        assert target / 3 <= avg <= target * 3

    def test_larger_target_larger_side(self, data):
        s1 = calibrate_box_side(data, 1, seed=1)
        s100 = calibrate_box_side(data, 100, seed=1)
        assert s100 > s1

    def test_make_boxes_shape(self, data):
        boxes = make_boxes(data, 0.1, 7, seed=0)
        assert len(boxes) == 7
        for b in boxes:
            np.testing.assert_allclose(b.hi - b.lo, 0.1)

    def test_degenerate_points_raise(self):
        # All-duplicate points have zero extent on every axis; before the
        # guard this silently calibrated a zero-sided box.
        dup = np.ones((200, 3))
        with pytest.raises(ValueError, match="degenerate"):
            calibrate_box_side(dup, 10)

    def test_nonconvergence_warns(self, data):
        # avg coverage can never drop below 1 (each box is centred on a
        # data point), so a target far under 1 is unreachable within tol
        # and must warn instead of silently returning the midpoint.
        with pytest.warns(RuntimeWarning, match="no convergence"):
            calibrate_box_side(data, 0.2, seed=3)


class TestAdapters:
    @pytest.mark.parametrize("kind", ["pim", "pim-skew", "zd", "pkd"])
    def test_adapter_measures_positive_time(self, data, kind):
        a = make_adapter(kind, data, n_modules=8)
        q = data[:64]
        m = a.measure(lambda: a.knn(q, 5))
        assert m.elements == 64 * 5
        assert m.sim_time_s > 0
        assert m.traffic_bytes > 0

    def test_unknown_kind(self, data):
        with pytest.raises(ValueError):
            make_adapter("btree", data)

    def test_one_shared_kwargs_dict_drives_all_kinds(self, data):
        # One sweep dict — including PIM-only knobs — must construct every
        # kind without TypeError (baselines drop what they don't take).
        from repro.obs import TraceCollector
        from repro.pim.cost_model import upmem_scaled

        shared = dict(
            n_modules=8,
            seed=3,
            llc_bytes=1 << 20,
            cost_model=upmem_scaled(2048),
            tracer=TraceCollector(capacity=1024),
        )
        names = set()
        for kind in ("pim", "pim-skew", "zd", "pkd"):
            a = make_adapter(kind, data, **dict(shared))
            names.add(a.name)
            m = a.measure(lambda: a.knn(data[:8], 3))
            assert m.sim_time_s > 0
        assert names == {"pim-zd-tree", "zd-tree", "pkd-tree"}

    def test_shared_kwargs_reach_the_pim_adapter(self, data):
        from repro.obs import TraceCollector

        tracer = TraceCollector(capacity=1024)
        a = make_adapter("pim", data, n_modules=8, tracer=tracer,
                         llc_bytes=1 << 20)
        assert a.system.tracer is tracer
        b = make_adapter("zd", data, n_modules=8, tracer=tracer,
                         llc_bytes=1 << 20)
        assert not hasattr(b, "system")

    def test_pim_adapter_breakdown_components(self, data):
        a = make_adapter("pim", data, n_modules=8)
        m = a.measure(lambda: a.knn(data[:32], 3))
        assert m.sim_time_s == pytest.approx(m.cpu_s + m.pim_s + m.comm_s)
        assert m.pim_s > 0 and m.comm_s > 0

    def test_insert_and_delete_roundtrip(self, data):
        a = make_adapter("pim", data, n_modules=8)
        extra = uniform_points(200, 3, seed=99)
        assert a.insert(extra) == 200
        assert a.delete(extra) == 200

    def test_variants(self, data):
        t = make_adapter("pim", data, n_modules=8)
        s = make_adapter("pim-skew", data, n_modules=8)
        assert t.variant == "throughput-optimized"
        assert s.variant == "skew-resistant"


class TestRunOp:
    def test_insert_op(self, data):
        a = make_adapter("pim", data, n_modules=8)
        m = run_op(
            a, "insert", data=data, batch=128, seed=1,
            fresh_points=lambda n: uniform_points(n, 3, seed=5),
        )
        assert m.op == "insert"
        assert m.elements == 128
        assert m.throughput > 0

    def test_knn_op(self, data):
        a = make_adapter("pkd", data)
        m = run_op(a, "10-nn", data=data, batch=32, seed=1)
        assert m.elements == 320

    def test_box_ops(self, data):
        a = make_adapter("pkd", data)
        side = calibrate_box_side(data, 10, seed=1)
        m = run_op(a, "bc-10", data=data, batch=32, seed=1, box_sides={10: side})
        assert m.elements == 32
        m = run_op(a, "bf-10", data=data, batch=32, seed=1, box_sides={10: side})
        assert m.elements > 32  # ~10 points per box

    def test_multi_batch_aggregates(self, data):
        a = make_adapter("pkd", data)
        m = run_op(a, "1-nn", data=data, batch=16, seed=1, n_batches=3)
        assert m.ops == 48
        assert len(m.batch_times_s) == 3

    def test_unknown_op(self, data):
        a = make_adapter("pkd", data)
        with pytest.raises(ValueError):
            run_op(a, "scan", data=data, batch=4)


class TestSuiteAndReport:
    def test_run_suite_subset(self, data):
        a = make_adapter("pim", data, n_modules=8)
        ms = run_suite(
            a, data=data, ops=("insert", "bc-10", "1-nn"), batch=32, seed=2,
            fresh_points=lambda n: uniform_points(n, 3, seed=3),
        )
        assert [m.op for m in ms] == ["insert", "bc-10", "1-nn"]

    def test_fig5_ops_list(self):
        assert len(FIG5_OPS) == 10  # the ten Fig. 5 operation types

    def test_fig5_table_renders(self):
        m = OpMeasurement("x", "insert", 10, 10, 1e-3, 100.0)
        table = fig5_table({"x": [m]})
        assert "insert" in table and "x MOp/s" in table

    def test_speedup_summary(self):
        fast = OpMeasurement("a", "insert", 10, 10, 1e-4, 50.0)
        slow = OpMeasurement("b", "insert", 10, 10, 1e-3, 500.0)
        out = speedup_summary({"a": [fast], "b": [slow]}, subject="a")
        assert "x  10.00" in out or "10.0" in out

    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 0.001]])
        lines = out.splitlines()
        assert len(lines) == 4


class TestMetrics:
    def test_throughput_and_traffic(self):
        m = OpMeasurement("x", "op", 100, 200, 2.0, 800.0)
        assert m.throughput == 100.0
        assert m.traffic_per_element == 4.0

    def test_zero_time_guard(self):
        m = OpMeasurement("x", "op", 1, 1, 0.0, 1.0)
        assert m.throughput == float("inf")

    def test_breakdown_fractions(self):
        m = OpMeasurement("x", "op", 1, 1, 4.0, 1.0, cpu_s=1.0, pim_s=1.0, comm_s=2.0)
        frac = m.breakdown_fractions()
        assert frac["comm"] == pytest.approx(0.5)
        assert sum(frac.values()) == pytest.approx(1.0)

    def test_percentile_nearest_rank(self):
        vals = list(range(1, 101))
        assert percentile(vals, 99) == 99
        assert percentile(vals, 50) == 50
        assert percentile([], 99) != percentile([], 99)  # NaN

    def test_geomean(self):
        assert geomean([1, 100]) == pytest.approx(10.0)
        assert np.isnan(geomean([]))

    def test_bar_chart_linear(self):
        out = bar_chart(["a", "bb"], [2.0, 1.0], width=10)
        lines = out.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5
        assert "2" in lines[0]

    def test_bar_chart_log(self):
        out = bar_chart(["x", "y"], [1000.0, 1.0], width=40, log=True)
        lines = out.splitlines()
        # Log scale keeps the small bar visible.
        assert lines[1].count("█") > 5

    def test_bar_chart_empty(self):
        assert bar_chart([], []) == ""
