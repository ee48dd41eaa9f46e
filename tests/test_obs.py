"""Tests for the repro.obs trace/metrics subsystem.

Covers the design contract: attaching a collector never perturbs the
simulator's counters (byte-identity), the ring buffer drops oldest-first
while aggregates keep running, and the timeline reconciles *exactly*
with ``PIMStats`` — both on synthetic workloads and on a real
PIM-zd-tree run.
"""

import json

import pytest

from repro.eval.harness import PIMZdTreeAdapter
from repro.obs import (
    EventKind,
    TraceCollector,
    timeline_csv,
    timeline_json,
    write_trace,
)
from repro.pim import CHARGE_PIM, CHARGE_RECV, CHARGE_SEND, PhaseCounters, PIMSystem

COUNTERS = (
    "cpu_ops",
    "cpu_span",
    "pim_cycles",
    "comm_words",
    "comm_max_words",
    "rounds",
    "module_rounds",
    "dram_words",
)


def _stats_fingerprint(stats) -> dict:
    """Every counter, per phase and total, as plain floats."""
    out = {"mux": stats.mux_switches}
    for f in COUNTERS:
        out[f"total.{f}"] = float(getattr(stats.total, f))
    for label, c in stats.phases.items():
        for f in COUNTERS:
            out[f"{label}.{f}"] = float(getattr(c, f))
    return out


def _synthetic_workload(sys: PIMSystem) -> None:
    with sys.phase("build"):
        sys.charge_cpu(123, span=17)
        sys.dram_stream(64)
        with sys.round():
            sys.charge_sequence([CHARGE_PIM, CHARGE_PIM, CHARGE_SEND],
                                [0, 1, 1], [40, 55, 9])
            with sys.phase("insert"):
                sys.charge_sequence([CHARGE_PIM, CHARGE_RECV], [1, 0], [5, 3])
    with sys.phase("knn"):
        sys.charge_comm_flat(30)
        sys.touch_cpu_blocks(["blk"])
        with sys.round():
            pass  # empty round: must charge nothing, emit nothing
        with sys.round():
            sys.charge_sequence(CHARGE_SEND, [2], [11])


class TestByteIdentity:
    def test_tracing_does_not_perturb_counters(self):
        plain = PIMSystem(4, seed=1)
        traced = PIMSystem(4, seed=1, tracer=TraceCollector())
        _synthetic_workload(plain)
        _synthetic_workload(traced)
        assert _stats_fingerprint(plain.stats) == _stats_fingerprint(traced.stats)

    def test_tracing_does_not_perturb_tree_workload(self, rng):
        pts = rng.random((1500, 2))
        extra = rng.random((200, 2))
        queries = rng.random((20, 2))
        fingerprints = []
        for tracer in (None, TraceCollector()):
            a = PIMZdTreeAdapter(
                pts.copy(), n_modules=8, seed=3, tracer=tracer
            )
            a.insert(extra.copy())
            a.knn(queries.copy(), 5)
            fingerprints.append(_stats_fingerprint(a.system.stats))
        assert fingerprints[0] == fingerprints[1]


class TestReconciliation:
    def test_synthetic_workload_reconciles_exactly(self):
        tracer = TraceCollector()
        sys = PIMSystem(4, tracer=tracer)
        _synthetic_workload(sys)
        assert tracer.timeline.reconcile(sys.stats) == []

    def test_real_tree_workload_reconciles_exactly(self, rng):
        tracer = TraceCollector()
        a = PIMZdTreeAdapter(
            rng.random((3000, 3)), n_modules=8, seed=5, tracer=tracer
        )
        a.insert(rng.random((300, 3)))
        a.delete(rng.random((50, 3)))
        a.knn(rng.random((25, 3)), 10)
        from repro.eval.harness import make_boxes

        a.box_count(make_boxes(rng.random((10, 3)), 0.1, 10))
        problems = tracer.timeline.reconcile(a.system.stats)
        assert problems == [], "\n".join(problems)

    def test_reconcile_reports_mismatch(self):
        tracer = TraceCollector()
        sys = PIMSystem(2, tracer=tracer)
        with sys.phase("build"):
            sys.charge_cpu(10)
        tracer.timeline.total.cpu_ops += 1  # corrupt the trace
        problems = tracer.timeline.reconcile(sys.stats)
        assert any("total.cpu_ops" in p for p in problems)


class TestRing:
    def test_capacity_and_dropped(self):
        tracer = TraceCollector(capacity=4)
        sys = PIMSystem(2, tracer=tracer)
        with sys.phase("build"):
            for _ in range(10):
                sys.charge_cpu(1)
        assert tracer.seq == 10
        assert len(tracer.events()) == 4
        assert tracer.dropped == 6
        # Oldest dropped first: retained events are the last four.
        assert [e.seq for e in tracer.events()] == [6, 7, 8, 9]
        # Aggregates keep the full running sum despite the wraparound.
        assert tracer.timeline.total.cpu_ops == 10

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceCollector(capacity=0)


class TestRoundRecords:
    def test_record_contents(self):
        tracer = TraceCollector()
        sys = PIMSystem(4, tracer=tracer)
        with sys.phase("build"):
            with sys.round():
                sys.charge_sequence([CHARGE_PIM, CHARGE_PIM, CHARGE_SEND],
                                    [0, 2, 2], [10, 90, 8])
                with sys.phase("insert"):
                    sys.charge_sequence(CHARGE_SEND, [0], [3])
        (rec,) = tracer.rounds()
        assert rec.index == 0
        assert rec.entry_phase == "build"
        assert rec.straggler_mid == 2
        assert rec.max_cycles == 90
        assert rec.total_words == 11
        assert rec.max_words == 8 and rec.max_words_mid == 2
        assert rec.module_rounds == 2 and rec.touched == 2
        assert rec.cycles_by_module == {0: 10, 2: 90}
        assert rec.words_by_module == {0: 3, 2: 8}
        assert rec.pim_cycles_by_phase == {"build": 90}
        assert rec.comm_words_by_phase == {"build": 8, "insert": 3}
        assert rec.comm_max_words_by_phase == {"build": 8}

    def test_empty_round_emits_no_record(self):
        tracer = TraceCollector()
        sys = PIMSystem(2, tracer=tracer)
        with sys.round():
            pass
        assert tracer.rounds() == []
        assert tracer.rounds_seen == 0
        assert all(e.kind != EventKind.ROUND for e in tracer.events())

    def test_per_module_raw_aggregates(self):
        tracer = TraceCollector()
        sys = PIMSystem(4, tracer=tracer)
        with sys.round():
            sys.charge_sequence([CHARGE_PIM, CHARGE_SEND, CHARGE_RECV],
                                [1, 1, 1], [30, 5, 2])
        m = tracer.timeline.module(1)
        assert m.cycles == 30
        assert m.recv_words == 5  # CPU → module (CHARGE_SEND)
        assert m.send_words == 2  # module → CPU (CHARGE_RECV)
        assert m.active_rounds == 1
        assert m.straggler_rounds == 1


class TestExport:
    def test_json_document_serialises(self, tmp_path):
        tracer = TraceCollector()
        sys = PIMSystem(4, tracer=tracer)
        _synthetic_workload(sys)
        doc = write_trace(
            tracer,
            tmp_path / "t.json",
            tmp_path / "t.csv",
            stats=sys.stats,
        )
        loaded = json.loads((tmp_path / "t.json").read_text())
        assert loaded == json.loads(json.dumps(doc))
        assert loaded["format"] == "repro.obs/1"
        assert loaded["reconciliation"]["exact"] is True
        assert loaded["ring"]["emitted"] == tracer.seq
        assert len(loaded["rounds"]) == 2

    def test_json_without_events(self):
        tracer = TraceCollector()
        sys = PIMSystem(4, tracer=tracer)
        _synthetic_workload(sys)
        doc = timeline_json(tracer, include_events=False)
        assert "events" not in doc
        json.dumps(doc)  # still serialisable

    def test_csv_shape_and_totals(self):
        tracer = TraceCollector()
        sys = PIMSystem(4, tracer=tracer)
        _synthetic_workload(sys)
        lines = timeline_csv(tracer).strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "phase" and "pim_cycles" in header
        rows = {ln.split(",")[0]: ln.split(",")[1:] for ln in lines[1:]}
        assert "total" in rows
        col = header.index("cpu_ops") - 1
        phase_sum = sum(
            float(cells[col]) for ph, cells in rows.items() if ph != "total"
        )
        assert phase_sum == float(rows["total"][col])

    def test_timeline_matches_phase_sums(self):
        tracer = TraceCollector()
        sys = PIMSystem(4, tracer=tracer)
        _synthetic_workload(sys)
        sums = PhaseCounters()
        for c in tracer.timeline.phases.values():
            sums.add(c)
        for f in COUNTERS:
            assert getattr(sums, f) == getattr(tracer.timeline.total, f)


class TestCLI:
    def test_trace_subcommand_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "trace",
            "--n", "800",
            "--batch", "64",
            "--n-modules", "4",
            "--ops", "insert,bc-10",
            "--out", str(tmp_path / "trace.json"),
            "--csv", str(tmp_path / "trace.csv"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reconciles exactly" in out
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert doc["reconciliation"]["exact"] is True
        assert (tmp_path / "trace.csv").read_text().startswith("phase,")
