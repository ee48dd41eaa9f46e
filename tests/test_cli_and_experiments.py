"""Tests for the programmatic experiments API and the CLI driver."""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.eval import (
    ALL_EXPERIMENTS,
    ExperimentResult,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_latency,
    run_table2,
    run_table3,
)

# Tiny sizes keep the whole module fast; the benchmark suite runs the real
# scales.
SMALL = dict(n=3000, n_modules=8, seed=3)


class TestExperimentFunctions:
    def test_registry_complete(self):
        assert set(ALL_EXPERIMENTS) == {
            "fig5", "latency", "fig6", "fig7", "fig8", "fig9", "table2", "table3",
        }

    def test_fig5_structure(self):
        r = run_fig5("uniform", batch=64, ops=("insert", "1-nn"), **SMALL)
        assert isinstance(r, ExperimentResult)
        assert [row[0] for row in r.rows] == ["insert", "1-nn"]
        assert len(r.headers) == 1 + 2 * 3  # op + (MOp/s, B/elem) per index
        assert "insert" in r.table()

    def test_fig5_single_index(self):
        r = run_fig5("cosmos", batch=64, ops=("1-nn",), indexes=("pim",), **SMALL)
        assert len(r.rows) == 1
        assert r.rows[0][1] > 0

    def test_fig5_indexes_insert_the_same_points(self):
        """Each index draws its own copy of one insert stream, so an index's
        columns do not depend on which other indexes ran before it."""
        kw = dict(batch=64, ops=("insert", "bc-10", "1-nn"), **SMALL)
        alone = run_fig5("uniform", indexes=("pim",), **kw)
        after_zd = run_fig5("uniform", indexes=("zd", "pim"), **kw)
        cols = ["pim-zd-tree MOp/s", "pim-zd-tree B/elem"]

        def pim_columns(r):
            return [[row[r.headers.index(c)] for c in cols] for row in r.rows]

        assert pim_columns(alone) == pim_columns(after_zd)

    def test_fig5_unknown_dataset(self):
        with pytest.raises(ValueError):
            run_fig5("planets", **SMALL)

    def test_latency_rows(self):
        r = run_latency("uniform", batch=32, n_batches=4, **SMALL)
        assert [row[0] for row in r.rows] == ["pim-zd-tree", "pkd-tree", "zd-tree"]
        for row in r.rows:
            assert row[1] <= row[2]  # P50 <= P99

    def test_fig6_fractions_sum(self):
        r = run_fig6(batch=64, ops=("bc-1", "bf-100"), **SMALL)
        for row in r.rows:
            assert sum(row[1:]) == pytest.approx(1.0, abs=0.01)

    def test_fig7_rows(self):
        r = run_fig7(batch_sizes=(64, 256), **SMALL)
        assert [row[0] for row in r.rows] == [64, 256]
        assert all(row[1] > 0 for row in r.rows)

    def test_fig8_rows(self):
        r = run_fig8(sizes=(1000, 2000), batch=32, n_modules=8, seed=3)
        assert len(r.rows) == 3
        assert r.headers == ["index", "n=1000", "n=2000"]

    def test_fig9_rows(self):
        r = run_fig9(batch=64, fractions=(0.0, 1.0), **SMALL)
        assert len(r.rows) == 2
        names = {row[0] for row in r.rows}
        assert names == {"throughput-optimized", "skew-resistant"}

    def test_table2_rows(self):
        r = run_table2(batch=64, **SMALL)
        assert len(r.rows) == 2
        for row in r.rows:
            assert row[1] < 20  # space within a constant of raw points

    def test_table3_rows(self):
        ops = ("insert", "bc-10", "bf-10", "10-nn")
        r = run_table3(batch=48, ops=ops, **SMALL)
        assert len(r.rows) == 4
        for row in r.rows:
            assert all(v > 0 for v in row[1:])
        rows = {row[0]: dict(zip(ops, row[1:])) for row in r.rows}
        # Base and ablation insert the same points, so a technique leaves
        # the operations it does not touch exactly as fast as before.
        assert [rows["fast-l2"][op] for op in ("insert", "bc-10", "bf-10")] == [1.0] * 3
        assert [rows["lazy-counter"][op] for op in ("bc-10", "bf-10", "10-nn")] == [1.0] * 3


class TestCLI:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *args],
            capture_output=True, text=True, timeout=600,
        )

    def test_list(self):
        out = self._run("list")
        assert out.returncode == 0
        for name in ALL_EXPERIMENTS:
            assert name in out.stdout

    def test_single_experiment(self):
        out = self._run("table2", "--n", "2000", "--batch", "64",
                        "--n-modules", "8")
        assert out.returncode == 0
        assert "throughput-optimized" in out.stdout
        assert "Table 2" in out.stdout

    def test_fig5_with_dataset(self):
        out = self._run("latency", "--dataset", "uniform", "--n", "2000",
                        "--batch", "16", "--n-modules", "8")
        assert out.returncode == 0
        assert "P99" in out.stdout

    def test_all_writes_report(self, tmp_path):
        out = self._run(
            "all", "--n", "1500", "--batch", "32", "--n-modules", "4",
            "--out", str(tmp_path),
        )
        assert out.returncode == 0, out.stderr
        report = (tmp_path / "report.md").read_text()
        for name in ALL_EXPERIMENTS:
            assert name in report
        blob = json.loads((tmp_path / "results.json").read_text())
        # Result names carry dataset suffixes (fig5-uniform, latency-osm).
        assert len(blob) == len(ALL_EXPERIMENTS)
        for name in ALL_EXPERIMENTS:
            assert any(key.startswith(name.split("-")[0]) for key in blob)

    def test_requires_command(self):
        out = self._run()
        assert out.returncode != 0

    def test_serve_subcommand(self, tmp_path):
        out = self._run(
            "serve", "--n", "1500", "--n-modules", "8", "--requests", "120",
            "--load", "1.2", "--queue-depth", "64", "--deadline-ms", "50",
            "--out", str(tmp_path / "lat.json"), "--csv",
            str(tmp_path / "lat.csv"),
        )
        assert out.returncode == 0, out.stderr
        assert "calibrated capacity" in out.stdout
        assert "p99" in out.stdout and "goodput" in out.stdout
        doc = json.loads((tmp_path / "lat.json").read_text())
        assert doc["format"] == "repro.obs/serve-1"
        assert doc["stats"]["n_offered"] == 120
        assert (tmp_path / "lat.csv").read_text().startswith("metric,value")

    def test_serve_fixed_policy_and_rate(self):
        out = self._run(
            "serve", "--n", "1500", "--n-modules", "8", "--requests", "60",
            "--rate", "20000", "--policy", "fixed", "--fixed-batch", "4",
            "--mix", "knn=1.0",
        )
        assert out.returncode == 0, out.stderr
        assert "fixed batching" in out.stdout

    def test_serve_rejects_bad_mix(self):
        out = self._run("serve", "--n", "1500", "--requests", "10",
                        "--rate", "1000", "--mix", "knn=x")
        assert out.returncode == 2
        assert "malformed" in out.stdout
