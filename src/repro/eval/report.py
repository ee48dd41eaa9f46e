"""Plain-text table rendering for the benchmark reports.

Each benchmark module prints the rows the corresponding paper table or
figure reports (throughput bars + traffic scatter of Fig. 5, breakdown of
Fig. 6, …) so the reproduction can be eyeballed against the paper, and
EXPERIMENTS.md records the paper-vs-measured comparison.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .metrics import OpMeasurement

__all__ = [
    "format_table",
    "fig5_rows",
    "fig5_table",
    "phase_breakdown_table",
    "speedup_summary",
    "geomean",
    "bar_chart",
]


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    rows = [[_fmt(c) for c in r] for r in rows]
    widths = [len(h) for h in headers]
    for r in rows:
        for i, c in enumerate(r):
            widths[i] = max(widths[i], len(c))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), sep] + [line(r) for r in rows])


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.01:
            return f"{v:.3g}"
        return f"{v:.3f}"
    return str(v)


def fig5_rows(measurements: dict[str, list[OpMeasurement]]) -> tuple[list, list]:
    """Fig. 5 layout: one row per op, one (MOp/s, B/elem) column pair per
    index; returns ``(headers, rows)``."""
    indexes = list(measurements)
    ops = [m.op for m in measurements[indexes[0]]]
    headers = ["op"]
    for ix in indexes:
        headers += [f"{ix} MOp/s", f"{ix} B/elem"]
    rows = []
    for i, op in enumerate(ops):
        row = [op]
        for ix in indexes:
            m = measurements[ix][i]
            row += [m.throughput / 1e6, m.traffic_per_element]
        rows.append(row)
    return headers, rows


def fig5_table(measurements: dict[str, list[OpMeasurement]]) -> str:
    """Render a Fig. 5 style table (:func:`fig5_rows`)."""
    return format_table(*fig5_rows(measurements))


def phase_breakdown_table(measurements: Iterable[OpMeasurement]) -> str:
    """Per-op × per-phase time shares (the fine-grained Fig. 6 view).

    Each cell is the fraction of the op's summed per-phase time attributed
    to that phase at charge time (``OpMeasurement.phases``); phases an op
    never touched render as 0.
    """
    ms = list(measurements)
    labels = sorted({ph for m in ms for ph in m.phases})
    headers = ["op"] + labels
    rows = []
    for m in ms:
        frac = m.phase_fractions()
        rows.append([m.op] + [frac.get(label, 0.0) for label in labels])
    return format_table(headers, rows)


def geomean(values: Iterable[float]) -> float:
    import math

    vals = [v for v in values if v > 0 and math.isfinite(v)]
    if not vals:
        return float("nan")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def speedup_summary(measurements: dict[str, list[OpMeasurement]],
                    subject: str = "pim-zd-tree") -> str:
    """Geometric-mean speedups of ``subject`` over every other index, by
    operation family (matching the §7.2 headline numbers)."""
    families = {
        "insert": lambda op: op == "insert",
        "boxcount": lambda op: op.startswith("bc-"),
        "boxfetch": lambda op: op.startswith("bf-"),
        "knn": lambda op: op.endswith("-nn"),
    }
    lines = []
    subj = {m.op: m for m in measurements[subject]}
    for other, ms in measurements.items():
        if other == subject:
            continue
        oth = {m.op: m for m in ms}
        for fam, pred in families.items():
            ratios = [
                subj[op].throughput / oth[op].throughput
                for op in subj
                if pred(op) and op in oth and oth[op].throughput > 0
            ]
            traffic = [
                oth[op].traffic_per_element / subj[op].traffic_per_element
                for op in subj
                if pred(op) and op in oth and subj[op].traffic_per_element > 0
            ]
            if ratios:
                lines.append(
                    f"{subject} vs {other:9s} {fam:9s}: "
                    f"speedup x{geomean(ratios):7.2f}   "
                    f"traffic reduction x{geomean(traffic):6.2f}"
                )
    return "\n".join(lines)


def bar_chart(labels: Sequence[str], values: Sequence[float], *, width: int = 44,
              unit: str = "", log: bool = False) -> str:
    """Terminal bar chart (the Fig. 5 bars, rendered in ASCII).

    With ``log=True`` bar lengths follow log10 of the values — useful when
    series span orders of magnitude (e.g. zd-tree vs PIM-zd-tree box ops).
    """
    import math

    vals = [float(v) for v in values]
    if not vals:
        return ""
    if log:
        floor = min(v for v in vals if v > 0) / 10 if any(v > 0 for v in vals) else 1.0
        scaled = [math.log10(max(v, floor) / floor) for v in vals]
    else:
        scaled = vals
    top = max(scaled) or 1.0
    label_w = max(len(str(l)) for l in labels)
    lines = []
    for label, v, sv in zip(labels, vals, scaled):
        n = int(round(sv / top * width))
        lines.append(f"{str(label).ljust(label_w)}  {'█' * max(n, 0):<{width}}  "
                     f"{v:.4g}{unit}")
    return "\n".join(lines)
