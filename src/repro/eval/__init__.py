"""Evaluation harness: adapters, metrics, experiments, report tables (§7)."""

from .experiments import (
    ALL_EXPERIMENTS,
    TABLE3_ABLATIONS,
    ExperimentResult,
    fresh_points,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_latency,
    run_table2,
    run_table3,
)
from .harness import (
    FIG5_OPS,
    PIMZdTreeAdapter,
    PkdTreeAdapter,
    ZdTreeAdapter,
    calibrate_box_side,
    make_adapter,
    make_boxes,
    run_op,
    run_suite,
)
from .metrics import OpMeasurement, percentile
from .report import (
    bar_chart,
    fig5_table,
    format_table,
    geomean,
    phase_breakdown_table,
    speedup_summary,
)

__all__ = [
    "FIG5_OPS",
    "OpMeasurement",
    "PIMZdTreeAdapter",
    "PkdTreeAdapter",
    "ZdTreeAdapter",
    "calibrate_box_side",
    "fig5_table",
    "format_table",
    "geomean",
    "make_adapter",
    "make_boxes",
    "percentile",
    "phase_breakdown_table",
    "run_op",
    "run_suite",
    "speedup_summary",
]
